// Decision provenance (DESIGN.md §6g): the tracon.decision_log stream
// round-trips byte-exactly, recording is deterministic per seed and
// byte-identical across worker threads, the attribution engine joins
// decisions to outcomes correctly, and the whole stream is invisible
// (no metric, trace, or series byte changes) when disabled.
#include "obs/decision_log.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/attribution.hpp"
#include "obs/telemetry.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
#include "sim/dynamic_scenario.hpp"
#include "sim/shard_scenario.hpp"
#include "workload/benchmarks.hpp"

namespace tracon {
namespace {

using obs::DecisionCandidate;
using obs::DecisionDoc;
using obs::DecisionEvent;
using obs::DecisionLog;

const sim::PerfTable& table() {
  static sim::PerfTable t = [] {
    model::Profiler prof(
        virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
    return sim::PerfTable::build(prof, workload::paper_benchmarks());
  }();
  return t;
}

const sched::TablePredictor& oracle() {
  static sched::TablePredictor p = table().oracle_predictor();
  return p;
}

DecisionEvent make_decision(std::uint64_t task, double t, std::size_t app,
                            double predicted_runtime) {
  DecisionEvent d;
  d.task = task;
  d.time_s = t;
  d.app = app;
  d.scheduler = "MIBS_8";
  d.objective = "runtime";
  d.families = {"nlm"};
  d.weights = {1.0};
  DecisionCandidate empty_slot;
  empty_slot.score = predicted_runtime;
  empty_slot.by_family = {predicted_runtime};
  DecisionCandidate busy;
  busy.neighbour = 2;
  busy.score = predicted_runtime * 1.25;
  busy.by_family = {predicted_runtime * 1.25};
  d.candidates = {empty_slot, busy};
  d.chosen = 0;
  d.margin = predicted_runtime * 0.25;
  d.predicted_runtime_s = predicted_runtime;
  d.predicted_iops = 40.0;
  return d;
}

DecisionEvent make_outcome(std::uint64_t task, double t, std::size_t app,
                           std::optional<std::size_t> neighbour,
                           double runtime, double solo) {
  DecisionEvent o;
  o.kind = DecisionEvent::Kind::kOutcome;
  o.task = task;
  o.time_s = t;
  o.app = app;
  o.neighbour = neighbour;
  o.runtime_s = runtime;
  o.iops = 39.5;
  o.solo_runtime_s = solo;
  return o;
}

TEST(DecisionLog, GoldenBytes) {
  DecisionLog log;
  log.set_enabled(true);
  log.set_fingerprint("seed", "7");
  DecisionEvent d = make_decision(3, 384.25, 1, 812.5);
  log.record_decision(d);
  log.bind_machine(3, 17);
  DecisionEvent o = make_outcome(3, 1200.5, 1, std::nullopt, 820.0, 800.0);
  o.machine = 17;
  log.record_outcome(o);

  const std::string expected =
      "{\"schema\": \"tracon.decision_log\", \"version\": 2, "
      "\"fingerprint\": {\"seed\": \"7\"}}\n"
      "{\"kind\": \"decision\", \"task\": 3, \"t\": 384.25, \"app\": 1, "
      "\"scheduler\": \"MIBS_8\", \"objective\": \"runtime\", "
      "\"families\": [\"nlm\"], \"weights\": [1], "
      "\"candidates\": [{\"neighbour\": \"empty\", \"score\": 812.5, "
      "\"by_family\": [812.5]}, {\"neighbour\": 2, \"score\": 1015.625, "
      "\"by_family\": [1015.625]}], \"chosen\": 0, \"margin\": 203.125, "
      "\"predicted_runtime_s\": 812.5, \"predicted_iops\": 40, "
      "\"machine\": 17}\n"
      "{\"kind\": \"outcome\", \"task\": 3, \"t\": 1200.5, \"app\": 1, "
      "\"neighbour\": \"empty\", \"runtime_s\": 820, \"iops\": 39.5, "
      "\"solo_runtime_s\": 800, \"machine\": 17}\n";
  EXPECT_EQ(log.str(), expected);
}

TEST(DecisionLog, RoundTripsByteExactly) {
  DecisionLog log;
  log.set_enabled(true);
  log.set_fingerprint("seed", "7");
  log.set_fingerprint("scheduler", "MIBS_8");
  log.record_decision(make_decision(1, 10.0, 0, 100.0));
  log.record_decision(make_decision(2, 12.5, 3, 250.0));
  log.bind_machine(2, 5);
  log.record_outcome(make_outcome(1, 110.0, 0, 2, 130.0, 100.0));

  const std::string bytes = log.str();
  DecisionDoc doc = obs::parse_decision_log(bytes);
  EXPECT_EQ(doc.version, 2);
  EXPECT_EQ(doc.fingerprint.at("seed"), "7");
  ASSERT_EQ(doc.events.size(), 3u);
  EXPECT_EQ(doc.events[0].kind, DecisionEvent::Kind::kDecision);
  EXPECT_EQ(doc.events[1].machine, 5u);
  EXPECT_EQ(doc.events[2].kind, DecisionEvent::Kind::kOutcome);
  ASSERT_EQ(doc.events[0].candidates.size(), 2u);
  EXPECT_FALSE(doc.events[0].candidates[0].neighbour.has_value());
  EXPECT_EQ(doc.events[0].candidates[1].neighbour, 2u);
  // The parsed records, appended to a fresh log, write the same bytes:
  // the log's one formatter inverts the parser.
  DecisionLog copy;
  for (const auto& [key, value] : doc.fingerprint)
    copy.set_fingerprint(key, value);
  for (const DecisionEvent& e : doc.events) copy.append(e);
  EXPECT_EQ(copy.str(), bytes);
}

// ---- the merge contract ------------------------------------------------

/// The (time, task, machine) of every record, as written.
std::vector<std::tuple<double, std::uint64_t, std::size_t>> written(
    const DecisionLog& log) {
  std::vector<std::tuple<double, std::uint64_t, std::size_t>> out;
  for (const DecisionEvent& e : obs::parse_decision_log(log.str()).events)
    out.emplace_back(e.time_s, e.task, e.machine);
  return out;
}

TEST(DecisionLog, PartsMergeOnStampThenShardWithIdsReindexed) {
  // Shard 0 owns machines 0-2 and tasks 0-1; shard 1 starts at machine
  // 3 and task 2. Both decide at t=5, so equal stamps meet across
  // shards, and shard 0's two decisions share a stamp within it.
  DecisionLog s0;
  s0.set_enabled(true);
  s0.record_decision(make_decision(0, 5.0, 0, 100.0));
  s0.bind_machine(0, 1);
  s0.record_decision(make_decision(1, 5.0, 1, 100.0));
  s0.bind_machine(1, 2);
  DecisionEvent move;
  move.task = 0;
  move.time_s = 10.0;
  move.machine = 0;
  move.from_machine = 1;
  s0.record_migration(move);
  DecisionEvent done0 = make_outcome(0, 20.0, 0, std::nullopt, 15.0, 10.0);
  done0.machine = 0;
  s0.record_outcome(done0);
  DecisionLog s1;
  s1.set_enabled(true);
  s1.record_decision(make_decision(0, 5.0, 2, 100.0));
  s1.bind_machine(0, 0);
  DecisionEvent done1 = make_outcome(0, 10.0, 2, 1, 5.0, 5.0);
  done1.machine = 0;
  s1.record_outcome(done1);

  DecisionLog merged;
  merged.append_part(s0, 0, 0);
  merged.append_part(s1, 3, 2);
  EXPECT_EQ(merged.size(), 6u);
  using Row = std::tuple<double, std::uint64_t, std::size_t>;
  const std::vector<Row> expected = {
      {5.0, 0, 1}, {5.0, 1, 2}, {5.0, 2, 3},
      {10.0, 0, 0}, {10.0, 2, 3}, {20.0, 0, 0}};
  EXPECT_EQ(written(merged), expected);
  const DecisionDoc doc = obs::parse_decision_log(merged.str());
  EXPECT_EQ(doc.events[3].kind, DecisionEvent::Kind::kMigration);
  EXPECT_EQ(doc.events[3].from_machine, 1u);
  EXPECT_EQ(doc.events[4].kind, DecisionEvent::Kind::kOutcome);
  // events() is the written stream.
  const std::vector<DecisionEvent> events = merged.events();
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(Row(events[i].time_s, events[i].task, events[i].machine),
              expected[i]);
}

TEST(DecisionLog, StreamedEpochsWriteTheWholeLog) {
  // Two shards, two epochs, both deciding at t = 5 and t = 12: each
  // flush writes its epoch's records merged on (time, shard), and the
  // file holds what the whole-log writer writes.
  auto record = [](DecisionLog& log, std::uint64_t task, double t) {
    log.record_decision(make_decision(task, t, 1, 100.0));
    log.bind_machine(task, 0);
    DecisionEvent done = make_outcome(task, t + 2.0, 1, std::nullopt, 2.0, 2.0);
    done.machine = 0;
    log.record_outcome(done);
  };
  DecisionLog streamed, streamed_shards[2], whole, whole_shards[2];
  std::ostringstream os;
  streamed.set_fingerprint("seed", "7");
  streamed.stream_to(os);
  whole.set_fingerprint("seed", "7");
  for (double t : {5.0, 12.0}) {
    for (std::uint64_t s = 0; s < 2; ++s) {
      streamed_shards[s].set_enabled(true);
      whole_shards[s].set_enabled(true);
      const std::uint64_t task = t < 10.0 ? 0 : 1;
      record(streamed_shards[s], task, t);
      record(whole_shards[s], task, t);
      streamed.append_part(streamed_shards[s], 3 * s, 2 * s);
    }
    streamed.flush(1);
    EXPECT_EQ(streamed.size(), 0u);
  }
  for (std::uint64_t s = 0; s < 2; ++s)
    whole.append_part(whole_shards[s], 3 * s, 2 * s);
  EXPECT_EQ(os.str(), whole.str());
  EXPECT_EQ(obs::parse_decision_log(os.str()).events.size(), 8u);

  // A decision not yet bound to its machine cannot leave its shard.
  DecisionLog unbound;
  unbound.set_enabled(true);
  unbound.record_decision(make_decision(7, 1.0, 1, 100.0));
  EXPECT_THROW(streamed.append_part(unbound, 0, 0), std::invalid_argument);
}

TEST(DecisionLog, WithoutPartsRecordOrderIsWriteOrder) {
  DecisionLog log;
  log.set_enabled(true);
  log.record_outcome(make_outcome(4, 9.0, 0, std::nullopt, 5.0, 5.0));
  log.record_decision(make_decision(5, 3.0, 0, 10.0));
  using Row = std::tuple<double, std::uint64_t, std::size_t>;
  const std::vector<Row> expected = {{9.0, 4, DecisionEvent::kNoMachine},
                                     {3.0, 5, DecisionEvent::kNoMachine}};
  // Time runs backwards here, which the reader refuses; events() is
  // the written stream, read without the reader's rules.
  std::vector<Row> recorded;
  for (const DecisionEvent& e : log.events())
    recorded.emplace_back(e.time_s, e.task, e.machine);
  EXPECT_EQ(recorded, expected);
}

TEST(DecisionLog, PartsComeBeforeAnyRecordOfItsOwn) {
  DecisionLog log;
  log.set_enabled(true);
  log.record_decision(make_decision(1, 0.0, 0, 10.0));
  DecisionLog shard;
  EXPECT_THROW(log.append_part(shard, 0, 0),
               std::invalid_argument);
}

TEST(DecisionLog, ParserRejectsMalformedDocuments) {
  // No header line.
  EXPECT_THROW(obs::parse_decision_log(std::string("")),
               std::invalid_argument);
  const std::string header =
      "{\"schema\": \"tracon.decision_log\", \"version\": 1, "
      "\"fingerprint\": {}}\n";
  // Unknown record kind.
  EXPECT_THROW(obs::parse_decision_log(
                   header + "{\"kind\": \"mystery\", \"task\": 1, \"t\": 0, "
                            "\"app\": 0}\n"),
               std::invalid_argument);
  // Chosen index out of candidate range.
  EXPECT_THROW(
      obs::parse_decision_log(
          header +
          "{\"kind\": \"decision\", \"task\": 1, \"t\": 0, \"app\": 0, "
          "\"scheduler\": \"s\", \"objective\": \"runtime\", \"families\": "
          "[\"m\"], \"weights\": [1], \"candidates\": [{\"neighbour\": "
          "\"empty\", \"score\": 1, \"by_family\": [1]}], \"chosen\": 3, "
          "\"margin\": 0, \"predicted_runtime_s\": 1, \"predicted_iops\": "
          "1}\n"),
      std::invalid_argument);
  // Foreign schema.
  EXPECT_THROW(obs::parse_decision_log(std::string(
                   "{\"schema\": \"tracon.metrics_series\", \"version\": 1, "
                   "\"fingerprint\": {}}\n")),
               std::invalid_argument);

  // Each structural rule, broken once by an otherwise valid log.
  auto decision = [](int task, int t, const std::string& families = "[\"m\"]",
                     const std::string& weights = "[1]",
                     const std::string& by_family = "[1]") {
    return "{\"kind\": \"decision\", \"task\": " + std::to_string(task) +
           ", \"t\": " + std::to_string(t) +
           ", \"app\": 0, \"scheduler\": \"s\", \"objective\": "
           "\"runtime\", \"families\": " + families + ", \"weights\": " +
           weights + ", \"candidates\": [{\"neighbour\": \"empty\", "
           "\"score\": 1, \"by_family\": " + by_family +
           "}], \"chosen\": 0, \"margin\": 0, \"predicted_runtime_s\": 1, "
           "\"predicted_iops\": 1}\n";
  };
  auto migration = [](int task, int from, int to,
                      const std::string& copy_s = "1") {
    return "{\"kind\": \"migration\", \"task\": " + std::to_string(task) +
           ", \"t\": 5, \"app\": 0, \"from_machine\": " +
           std::to_string(from) + ", \"from_neighbour\": \"empty\", "
           "\"machine\": " + std::to_string(to) +
           ", \"neighbour\": \"empty\", \"predicted_stay_s\": 3, "
           "\"predicted_move_s\": 2, \"downtime_s\": 0.5, \"copy_s\": " +
           copy_s + ", \"cost_s\": 1, \"margin\": 1}\n";
  };
  auto outcome = [](int task) {
    return "{\"kind\": \"outcome\", \"task\": " + std::to_string(task) +
           ", \"t\": 10, \"app\": 0, \"neighbour\": \"empty\", "
           "\"runtime_s\": 9, \"iops\": 1, \"solo_runtime_s\": 8}\n";
  };
  auto expect_refused = [&](const std::string& records,
                            const std::string& rule) {
    try {
      obs::parse_decision_log(header + records);
      ADD_FAILURE() << "accepted a log that breaks: " << rule;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(rule), std::string::npos)
          << e.what();
    }
  };
  EXPECT_NO_THROW(obs::parse_decision_log(header + decision(1, 0) +
                                          migration(1, 0, 1) + outcome(1)));
  // Outcomes with no decision at all are a FIFO-style run.
  EXPECT_NO_THROW(obs::parse_decision_log(header + outcome(1) + outcome(2)));
  expect_refused(decision(1, 5) + decision(2, 3), "time runs backwards");
  expect_refused(decision(1, 0, "[]", "[]", "[]"), "names no model family");
  expect_refused(decision(1, 0, "[\"m\"]", "[1, 1]"),
                 "do not match its families");
  expect_refused(decision(1, 0, "[\"m\", \"n\"]", "[1, 1]", "[1]"),
                 "do not match its families");
  expect_refused(decision(1, 0) + migration(1, 2, 2),
                 "does not name two distinct machines");
  expect_refused(decision(1, 0) + migration(1, 0, 1, "-1"),
                 "cost \"copy_s\" is negative");
  expect_refused(decision(1, 0) + migration(2, 0, 1),
                 "migration for task 2 joins no earlier decision");
  expect_refused(decision(1, 0) + outcome(2),
                 "outcome for task 2 joins no earlier decision");
}

TEST(DecisionLog, DisabledGateDropsRecordsButNotAppends) {
  DecisionLog log;
  ASSERT_FALSE(log.enabled());
  log.record_decision(make_decision(1, 0.0, 0, 10.0));
  log.record_outcome(make_outcome(1, 5.0, 0, std::nullopt, 12.0, 10.0));
  log.bind_machine(1, 3);
  EXPECT_EQ(log.size(), 0u);
  // The merge path bypasses the gate by design.
  log.append(make_outcome(1, 5.0, 0, std::nullopt, 12.0, 10.0));
  EXPECT_EQ(log.size(), 1u);
}

TEST(DecisionLog, BindMachineIgnoresUnknownTask) {
  DecisionLog log;
  log.set_enabled(true);
  log.record_decision(make_decision(1, 0.0, 0, 10.0));
  log.bind_machine(99, 3);  // FIFO-style placement with no decision
  EXPECT_EQ(log.events()[0].machine, DecisionEvent::kNoMachine);
}

// ---- live recording through the simulator ------------------------------

struct SingleRun {
  std::string decisions;
  std::string metrics;
};

SingleRun run_single(std::uint64_t seed, bool decisions) {
  sim::DynamicConfig cfg;
  cfg.machines = 12;
  cfg.lambda_per_min = 30.0;
  cfg.duration_s = 3600.0;
  cfg.seed = seed;
  obs::Telemetry tel;
  tel.decisions.set_enabled(decisions);
  cfg.telemetry = &tel;
  sched::MibsScheduler sched(oracle(), sched::Objective::kRuntime, 8, 60.0);
  sched.set_telemetry(&tel);
  sim::run_dynamic(table(), sched, cfg);
  SingleRun out;
  out.decisions = tel.decisions.str();
  std::ostringstream metrics;
  tel.metrics.write_json(metrics);
  out.metrics = metrics.str();
  return out;
}

TEST(DecisionRecording, StructurallySoundAndSeedDeterministic) {
  SingleRun a = run_single(7, true);
  DecisionDoc doc = obs::parse_decision_log(a.decisions);
  ASSERT_FALSE(doc.events.empty());
  double prev_t = 0.0;
  std::size_t decisions = 0, outcomes = 0, bound = 0;
  for (const DecisionEvent& e : doc.events) {
    EXPECT_GE(e.time_s, prev_t);
    prev_t = e.time_s;
    if (e.kind == DecisionEvent::Kind::kDecision) {
      ++decisions;
      EXPECT_FALSE(e.candidates.empty());
      EXPECT_LT(e.chosen, e.candidates.size());
      EXPECT_EQ(e.families.size(), 1u);
      EXPECT_EQ(e.weights.size(), 1u);
      if (e.machine != DecisionEvent::kNoMachine) ++bound;
      // The chosen candidate's score is the recorded prediction.
      EXPECT_EQ(e.candidates[e.chosen].score, e.predicted_runtime_s);
    } else {
      ++outcomes;
      EXPECT_GT(e.solo_runtime_s, 0.0);
    }
  }
  EXPECT_GT(decisions, 0u);
  EXPECT_GT(outcomes, 0u);
  // Every placed decision got its machine stamped by the simulator.
  EXPECT_EQ(bound, decisions);

  // Same seed, same bytes; different seed, different stream.
  EXPECT_EQ(run_single(7, true).decisions, a.decisions);
  EXPECT_NE(run_single(8, true).decisions, a.decisions);
}

TEST(DecisionRecording, DisabledLogLeavesMetricsUntouched) {
  SingleRun on = run_single(7, true);
  SingleRun off = run_single(7, false);
  EXPECT_TRUE(off.decisions.find("\"kind\"") == std::string::npos);
  // Recording decisions adds no counters/gauges/histograms: the metrics
  // export is byte-identical whether the log is on or off.
  EXPECT_EQ(on.metrics, off.metrics);
}

// ---- sharded execution -------------------------------------------------

struct ShardedRun {
  std::string decisions;
  std::string metrics;
};

ShardedRun run_sharded(std::uint64_t seed, std::size_t threads,
                       bool decisions) {
  sim::ShardedConfig cfg;
  cfg.machines = 26;  // uneven split: 4 shards of 7,7,6,6
  cfg.lambda_per_min = 40.0;
  cfg.duration_s = 3600.0;
  cfg.seed = seed;
  cfg.shards = 4;
  cfg.threads = threads;
  obs::Telemetry tel;
  tel.decisions.set_enabled(decisions);
  cfg.telemetry = &tel;
  run_dynamic_sharded(
      table(),
      [](std::size_t) -> std::unique_ptr<sched::Scheduler> {
        return std::make_unique<sched::MibsScheduler>(
            oracle(), sched::Objective::kRuntime, 8, 60.0);
      },
      cfg);
  ShardedRun out;
  out.decisions = tel.decisions.str();
  std::ostringstream metrics;
  tel.metrics.write_json(metrics);
  out.metrics = metrics.str();
  return out;
}

TEST(DecisionSharding, FourThreadsByteIdenticalToOne) {
  for (std::uint64_t seed : {7u, 23u}) {
    ShardedRun a = run_sharded(seed, 1, true);
    ShardedRun b = run_sharded(seed, 4, true);
    EXPECT_EQ(a.decisions, b.decisions) << "seed " << seed;
    EXPECT_FALSE(a.decisions.empty());
    DecisionDoc doc = obs::parse_decision_log(a.decisions);
    EXPECT_FALSE(doc.events.empty());
    // Merged events are in virtual-time order and carry
    // globally re-indexed machine ids within the 26-machine cluster.
    double prev_t = 0.0;
    for (const DecisionEvent& e : doc.events) {
      EXPECT_GE(e.time_s, prev_t);
      prev_t = e.time_s;
      if (e.machine != DecisionEvent::kNoMachine) {
        EXPECT_LT(e.machine, 26u);
      }
    }
  }
}

TEST(DecisionSharding, DisabledLogLeavesShardedMetricsUntouched) {
  ShardedRun on = run_sharded(7, 4, true);
  ShardedRun off = run_sharded(7, 4, false);
  EXPECT_EQ(on.metrics, off.metrics);
}

// ---- attribution -------------------------------------------------------

TEST(Attribution, JoinsErrorsAndRanksMispredicts) {
  DecisionDoc doc;
  doc.version = 1;
  // task 1: predicted 100, realized 150 next to app 2 — the worst
  // mispredict, rel error (100-150)/150 = -1/3, slowdown 1.5.
  doc.events.push_back(make_decision(1, 10.0, 0, 100.0));
  doc.events.push_back(make_outcome(1, 200.0, 0, 2, 150.0, 100.0));
  // task 2: predicted 100, realized 105 on an empty machine.
  doc.events.push_back(make_decision(2, 20.0, 0, 100.0));
  doc.events.push_back(make_outcome(2, 210.0, 0, std::nullopt, 105.0, 100.0));
  // task 3: decided but never completed.
  doc.events.push_back(make_decision(3, 30.0, 1, 80.0));
  // task 9: orphan outcome (no decision) is counted but not joined.
  doc.events.push_back(make_outcome(9, 250.0, 1, std::nullopt, 90.0, 90.0));

  obs::AttributionReport r = obs::attribute(doc);
  EXPECT_EQ(r.decisions, 3u);
  EXPECT_EQ(r.outcomes, 3u);
  EXPECT_EQ(r.joined, 2u);
  EXPECT_DOUBLE_EQ(r.mean_candidates, 2.0);
  ASSERT_EQ(r.rows.size(), 2u);
  ASSERT_EQ(r.mispredict_order.size(), 2u);
  // Worst |runtime rel error| first: task 1.
  EXPECT_EQ(r.rows[r.mispredict_order[0]].task, 1u);
  EXPECT_NEAR(r.rows[r.mispredict_order[0]].runtime_error, -1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.rows[r.mispredict_order[0]].realized_slowdown, 1.5);

  // Heatmap cells key on (app, realized co-runner).
  ASSERT_EQ(r.pairs.size(), 2u);
  const obs::PairCell& hot = r.pairs.at({0, std::optional<std::size_t>{2}});
  EXPECT_EQ(hot.count, 1u);
  EXPECT_DOUBLE_EQ(hot.mean_slowdown(), 1.5);
  const obs::PairCell& idle = r.pairs.at({0, std::optional<std::size_t>{}});
  EXPECT_DOUBLE_EQ(idle.mean_slowdown(), 1.05);
}

TEST(Attribution, EmptyDocumentYieldsEmptyReport) {
  DecisionDoc doc;
  doc.version = 1;
  obs::AttributionReport r = obs::attribute(doc);
  EXPECT_EQ(r.decisions, 0u);
  EXPECT_EQ(r.outcomes, 0u);
  EXPECT_EQ(r.joined, 0u);
  EXPECT_EQ(r.mean_candidates, 0.0);
  EXPECT_TRUE(r.rows.empty());
  EXPECT_TRUE(r.mispredict_order.empty());
  EXPECT_TRUE(r.pairs.empty());
}

TEST(Attribution, LiveRunJoinsEveryOutcome) {
  SingleRun run = run_single(7, true);
  obs::AttributionReport r =
      obs::attribute(obs::parse_decision_log(run.decisions));
  EXPECT_GT(r.decisions, 0u);
  EXPECT_GT(r.joined, 0u);
  // MIBS records a decision for every placement, so every outcome in
  // the log joins back to one.
  EXPECT_EQ(r.joined, r.outcomes);
  EXPECT_GT(r.mean_candidates, 1.0);
  for (std::size_t idx : r.mispredict_order) {
    EXPECT_LT(idx, r.rows.size());
    EXPECT_GT(r.rows[idx].runtime_s, 0.0);
  }
}

}  // namespace
}  // namespace tracon
