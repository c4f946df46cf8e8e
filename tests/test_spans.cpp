// Lifecycle spans (DESIGN.md §6i): the tracon.spans stream round-trips
// byte-exactly, every task's spans tile [enqueue, complete] with the
// four latency components summing to the end-to-end latency, recording
// is deterministic per seed and byte-identical across worker threads,
// and the whole stream is invisible (no metric or decision byte
// changes) when disabled.
#include "obs/span_log.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/breakdown.hpp"
#include "obs/telemetry.hpp"
#include "sched/mibs.hpp"
#include "sim/dynamic_scenario.hpp"
#include "sim/shard_scenario.hpp"
#include "util/error.hpp"
#include "workload/benchmarks.hpp"

namespace tracon {
namespace {

using obs::SpanDoc;
using obs::SpanEvent;
using obs::SpanLog;

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

SpanEvent make_span(SpanEvent::Kind kind, std::uint64_t task, double t0,
                    double t1, std::size_t app,
                    std::size_t machine = SpanEvent::kNoMachine) {
  SpanEvent e;
  e.kind = kind;
  e.task = task;
  e.t0_s = t0;
  e.t1_s = t1;
  e.app = app;
  e.machine = machine;
  return e;
}

TEST(SpanLog, GoldenBytes) {
  SpanLog log;
  log.set_enabled(true);
  log.set_fingerprint("seed", "7");
  log.record(make_span(SpanEvent::Kind::kQueued, 3, 0.0, 12.5, 1));
  SpanEvent run = make_span(SpanEvent::Kind::kRunning, 3, 12.5, 400.0, 1, 17);
  run.neighbour = 2;
  run.factor = 0.8;
  log.record(run);
  log.record(
      make_span(SpanEvent::Kind::kMigrationFreeze, 3, 400.0, 400.5, 1, 17));
  SpanEvent copy =
      make_span(SpanEvent::Kind::kMigrationCopy, 3, 400.5, 410.5, 1, 4);
  copy.factor = 1.0;
  copy.copy_factor = 0.75;
  log.record(copy);
  SpanEvent done = make_span(SpanEvent::Kind::kCompleted, 3, 410.5, 410.5, 1, 4);
  done.solo_runtime_s = 320.0;
  log.record(done);

  const std::string expected =
      "{\"schema\": \"tracon.spans\", \"version\": 2, "
      "\"fingerprint\": {\"seed\": \"7\"}}\n"
      "{\"kind\": \"queued\", \"task\": 3, \"t0\": 0, \"t1\": 12.5, "
      "\"app\": 1}\n"
      "{\"kind\": \"running\", \"task\": 3, \"t0\": 12.5, \"t1\": 400, "
      "\"app\": 1, \"machine\": 17, \"neighbour\": 2, \"factor\": 0.8}\n"
      "{\"kind\": \"migration_freeze\", \"task\": 3, \"t0\": 400, "
      "\"t1\": 400.5, \"app\": 1, \"machine\": 17}\n"
      "{\"kind\": \"migration_copy\", \"task\": 3, \"t0\": 400.5, "
      "\"t1\": 410.5, \"app\": 1, \"machine\": 4, \"neighbour\": \"empty\", "
      "\"factor\": 1, \"copy_factor\": 0.75}\n"
      "{\"kind\": \"completed\", \"task\": 3, \"t\": 410.5, \"app\": 1, "
      "\"machine\": 4, \"solo_runtime_s\": 320}\n";
  EXPECT_EQ(log.str(), expected);
}

TEST(SpanLog, RoundTripsByteExactly) {
  SpanLog log;
  log.set_enabled(true);
  log.set_fingerprint("seed", "7");
  log.set_fingerprint("scheduler", "MIBS_8");
  log.record(make_span(SpanEvent::Kind::kQueued, 1, 0.0, 4.25, 0));
  SpanEvent run = make_span(SpanEvent::Kind::kRunning, 1, 4.25, 104.25, 0, 9);
  run.factor = 0.9;
  log.record(run);
  SpanEvent done =
      make_span(SpanEvent::Kind::kCompleted, 1, 104.25, 104.25, 0, 9);
  done.solo_runtime_s = 90.0;
  log.record(done);

  const std::string bytes = log.str();
  SpanDoc doc = obs::parse_span_log(bytes);
  EXPECT_EQ(doc.version, 2);
  EXPECT_EQ(doc.fingerprint.at("seed"), "7");
  ASSERT_EQ(doc.events.size(), 3u);
  EXPECT_EQ(doc.events[0].kind, SpanEvent::Kind::kQueued);
  EXPECT_EQ(doc.events[1].machine, 9u);
  EXPECT_FALSE(doc.events[1].neighbour.has_value());
  EXPECT_EQ(doc.events[2].kind, SpanEvent::Kind::kCompleted);
  EXPECT_EQ(doc.events[2].t0_s, doc.events[2].t1_s);
  // The parsed spans, appended to a fresh log, write the same bytes:
  // the log's one formatter inverts the parser.
  SpanLog copy;
  for (const auto& [key, value] : doc.fingerprint)
    copy.set_fingerprint(key, value);
  for (const SpanEvent& e : doc.events) copy.append(e);
  EXPECT_EQ(copy.str(), bytes);
}

// ---- the merge contract ------------------------------------------------

/// The (start, task, machine) of every span, as written.
std::vector<std::tuple<double, std::uint64_t, std::size_t>> written(
    const SpanLog& log) {
  std::vector<std::tuple<double, std::uint64_t, std::size_t>> out;
  for (const SpanEvent& e : obs::parse_span_log(log.str()).events)
    out.emplace_back(e.t0_s, e.task, e.machine);
  return out;
}

TEST(SpanLog, PartsMergeOnStartThenShardWithIdsReindexed) {
  // Spans are recorded as they close: shard 0 records task 1's queue
  // wait [12, 15) before task 0's running epoch [5, 30).
  SpanLog s0;
  s0.set_enabled(true);
  s0.record(make_span(SpanEvent::Kind::kQueued, 1, 12.0, 15.0, 0));
  s0.record(make_span(SpanEvent::Kind::kRunning, 0, 5.0, 30.0, 0, 2));
  SpanLog s1;
  s1.set_enabled(true);
  s1.record(make_span(SpanEvent::Kind::kRunning, 0, 5.0, 8.0, 1, 0));
  s1.record(make_span(SpanEvent::Kind::kCompleted, 0, 8.0, 8.0, 1, 0));

  // Without parts a log writes record order, as a 1-shard run does.
  using Row = std::tuple<double, std::uint64_t, std::size_t>;
  const std::size_t none = SpanEvent::kNoMachine;
  EXPECT_EQ(written(s0), (std::vector<Row>{{12.0, 1, none}, {5.0, 0, 2}}));

  s0.sort_by_start();
  s1.sort_by_start();
  SpanLog merged;
  merged.append_part(s0, 0, 0);
  merged.append_part(s1, 4, 2);
  EXPECT_EQ(merged.size(), 4u);
  EXPECT_EQ(written(merged), (std::vector<Row>{{5.0, 0, 2},
                                               {5.0, 2, 4},
                                               {8.0, 2, 4},
                                               {12.0, 1, none}}));
}

TEST(SpanLog, StreamedEpochsKeepEqualStartsInRecordOrder) {
  // Two shards record queue waits over two epochs, the first closed at
  // a watermark of t = 8. Shard 0's spans starting at 8 fall on both
  // sides of it: tasks 1 and 3, recorded before the barrier, stay held
  // there; task 4 is recorded after it. Spans with equal starts must
  // keep (shard, record) order, as the whole-log writer merges them.
  using Epoch = std::vector<std::pair<std::uint64_t, double>>;
  const Epoch epochs[2][2] = {{{{0, 5.0}, {1, 8.0}, {2, 5.0}, {3, 8.0}},
                               {{0, 8.0}, {1, 3.0}}},
                              {{{4, 8.0}, {5, 9.0}}, {{2, 8.0}}}};
  auto record = [](SpanLog& log, const Epoch& spans) {
    for (const auto& [task, t0] : spans)
      log.record(make_span(SpanEvent::Kind::kQueued, task, t0, t0 + 1.0, 0));
    log.sort_by_start();
  };
  SpanLog streamed, streamed_shards[2], whole, whole_shards[2];
  std::ostringstream os;
  streamed.set_fingerprint("seed", "7");
  streamed.stream_to(os);
  whole.set_fingerprint("seed", "7");
  for (std::size_t e = 0; e < 2; ++e) {
    const double watermark =
        e == 0 ? 8.0 : std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < 2; ++s) {
      streamed_shards[s].set_enabled(true);
      whole_shards[s].set_enabled(true);
      record(streamed_shards[s], epochs[e][s]);
      record(whole_shards[s], epochs[e][s]);
      streamed.append_part(streamed_shards[s], 4 * s, 10 * s, watermark);
    }
    streamed.flush(1);
    if (e == 0) {
      EXPECT_EQ(streamed_shards[0].size(), 2u);  // tasks 1 and 3
      EXPECT_EQ(streamed_shards[1].size(), 1u);  // task 0
    }
  }
  for (std::size_t s = 0; s < 2; ++s)
    whole.append_part(whole_shards[s], 4 * s, 10 * s);
  EXPECT_EQ(os.str(), whole.str());

  std::vector<std::pair<double, std::uint64_t>> order;
  for (const SpanEvent& e : obs::parse_span_log(os.str()).events)
    order.emplace_back(e.t0_s, e.task);
  EXPECT_EQ(order, (std::vector<std::pair<double, std::uint64_t>>{
                       {3.0, 11},
                       {5.0, 0},
                       {5.0, 2},
                       {8.0, 1},
                       {8.0, 3},
                       {8.0, 4},
                       {8.0, 10},
                       {8.0, 12},
                       {9.0, 5}}));
}

TEST(SpanLog, ParanoidBuildsRejectAPartOutOfStartOrder) {
  SpanLog s0;
  s0.set_enabled(true);
  s0.record(make_span(SpanEvent::Kind::kQueued, 1, 12.0, 15.0, 0));
  s0.record(make_span(SpanEvent::Kind::kRunning, 0, 5.0, 30.0, 0, 2));
  SpanLog merged;
  merged.append_part(s0, 0, 0);  // not sorted by start
  if (kParanoidChecksEnabled) {
    EXPECT_THROW(merged.str(), std::logic_error);
  } else {
    EXPECT_NO_THROW(merged.str());  // the check compiles out
  }
}

TEST(SpanLog, PartsComeBeforeAnySpanOfItsOwn) {
  SpanLog log;
  log.set_enabled(true);
  log.record(make_span(SpanEvent::Kind::kQueued, 1, 0.0, 5.0, 0));
  SpanLog shard;
  EXPECT_THROW(log.append_part(shard, 0, 0),
               std::invalid_argument);
}

TEST(SpanLog, ParserRejectsMalformedDocuments) {
  // No header line.
  EXPECT_THROW(obs::parse_span_log(std::string("")), std::invalid_argument);
  const std::string header =
      "{\"schema\": \"tracon.spans\", \"version\": 2, \"fingerprint\": {}}\n";
  // Unknown record kind.
  EXPECT_THROW(obs::parse_span_log(
                   header + "{\"kind\": \"paused\", \"task\": 1, \"t0\": 0, "
                            "\"t1\": 1, \"app\": 0, \"machine\": 0}\n"),
               std::invalid_argument);
  // A span that runs backwards.
  EXPECT_THROW(obs::parse_span_log(
                   header + "{\"kind\": \"queued\", \"task\": 1, \"t0\": 5, "
                            "\"t1\": 4, \"app\": 0}\n"),
               std::invalid_argument);
  // Malformed neighbour spelling.
  EXPECT_THROW(
      obs::parse_span_log(
          header + "{\"kind\": \"running\", \"task\": 1, \"t0\": 0, "
                   "\"t1\": 1, \"app\": 0, \"machine\": 0, \"neighbour\": "
                   "\"nobody\", \"factor\": 1}\n"),
      std::invalid_argument);
  // Foreign schema.
  EXPECT_THROW(obs::parse_span_log(std::string(
                   "{\"schema\": \"tracon.decision_log\", \"version\": 2, "
                   "\"fingerprint\": {}}\n")),
               std::invalid_argument);

  // Each speed rule, broken once by an otherwise valid span.
  auto copy_span = [&](const std::string& factor,
                       const std::string& copy_factor) {
    return header +
           "{\"kind\": \"migration_copy\", \"task\": 1, \"t0\": 0, "
           "\"t1\": 1, \"app\": 0, \"machine\": 0, \"neighbour\": "
           "\"empty\", \"factor\": " + factor + ", \"copy_factor\": " +
           copy_factor + "}\n";
  };
  auto expect_refused = [](const std::string& text, const std::string& rule) {
    try {
      obs::parse_span_log(text);
      ADD_FAILURE() << "accepted a span that breaks: " << rule;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(rule), std::string::npos)
          << e.what();
    }
  };
  EXPECT_NO_THROW(obs::parse_span_log(copy_span("1.05", "1")));
  expect_refused(copy_span("0", "0.5"), "\"factor\" is not positive");
  expect_refused(copy_span("0.5", "0"), "\"copy_factor\" is not in (0, 1]");
  expect_refused(copy_span("0.5", "1.5"), "\"copy_factor\" is not in (0, 1]");
}

TEST(SpanLog, GateAndZeroLengthSuppression) {
  SpanLog log;
  ASSERT_FALSE(log.enabled());
  log.record(make_span(SpanEvent::Kind::kQueued, 1, 0.0, 5.0, 0));
  EXPECT_EQ(log.size(), 0u);
  log.set_enabled(true);
  // Zero-length segments carry no time and are dropped...
  log.record(make_span(SpanEvent::Kind::kRunning, 1, 5.0, 5.0, 0, 2));
  EXPECT_EQ(log.size(), 0u);
  // ...except the completed marker, which is zero-length by definition.
  log.record(make_span(SpanEvent::Kind::kCompleted, 1, 5.0, 5.0, 0, 2));
  EXPECT_EQ(log.size(), 1u);
  // The merge path bypasses the gate by design.
  log.set_enabled(false);
  log.append(make_span(SpanEvent::Kind::kQueued, 2, 0.0, 1.0, 0));
  EXPECT_EQ(log.size(), 2u);
}

// ---- breakdown arithmetic ----------------------------------------------

TEST(Breakdown, HandComputedMigrationCase) {
  SpanDoc doc;
  doc.version = 2;
  doc.events.push_back(make_span(SpanEvent::Kind::kQueued, 5, 0.0, 10.0, 1));
  SpanEvent run1 = make_span(SpanEvent::Kind::kRunning, 5, 10.0, 110.0, 1, 3);
  run1.neighbour = 0;
  run1.factor = 0.8;
  doc.events.push_back(run1);
  doc.events.push_back(
      make_span(SpanEvent::Kind::kMigrationFreeze, 5, 110.0, 112.0, 1, 3));
  SpanEvent copy =
      make_span(SpanEvent::Kind::kMigrationCopy, 5, 112.0, 122.0, 1, 8);
  copy.factor = 0.9;
  copy.copy_factor = 0.75;
  doc.events.push_back(copy);
  SpanEvent run2 = make_span(SpanEvent::Kind::kRunning, 5, 122.0, 150.0, 1, 8);
  run2.factor = 1.0;
  doc.events.push_back(run2);
  SpanEvent done = make_span(SpanEvent::Kind::kCompleted, 5, 150.0, 150.0, 1, 8);
  done.solo_runtime_s = 114.75;
  doc.events.push_back(done);

  obs::BreakdownReport r = obs::breakdown(doc);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.incomplete, 0u);
  const obs::TaskBreakdown& row = r.rows[0];
  EXPECT_EQ(row.task, 5u);
  EXPECT_TRUE(row.completed);
  // queued [0,10]: wait 10.
  EXPECT_DOUBLE_EQ(row.wait_s, 10.0);
  // running 100 s at 0.8 -> solo 80, interference 20;
  // copy 10 s at 0.9*0.75 -> solo 6.75, interference 1, migration 2.25;
  // freeze 2 s -> migration 2; running 28 s at 1.0 -> solo 28.
  EXPECT_NEAR(row.solo_s, 114.75, 1e-12);
  EXPECT_NEAR(row.interference_s, 21.0, 1e-12);
  EXPECT_NEAR(row.migration_s, 4.25, 1e-12);
  EXPECT_DOUBLE_EQ(row.solo_runtime_s, 114.75);
  // The components tile [enqueue, complete] exactly.
  EXPECT_NEAR(row.wait_s + row.solo_s + row.interference_s + row.migration_s,
              row.end_to_end_s(), 1e-9);
  EXPECT_EQ(row.machine, 3u);  // first placement machine
  EXPECT_DOUBLE_EQ(row.start_s, 10.0);
  EXPECT_EQ(r.by_app.at(1).tasks, 1u);
  EXPECT_NEAR(r.total.end_to_end_s(), 150.0, 1e-9);
}

TEST(Breakdown, RejectsNonTilingChains) {
  SpanDoc doc;
  doc.version = 2;
  doc.events.push_back(make_span(SpanEvent::Kind::kQueued, 1, 0.0, 10.0, 0));
  doc.events.push_back(
      make_span(SpanEvent::Kind::kRunning, 1, 11.0, 20.0, 0, 2));  // gap
  EXPECT_THROW(obs::breakdown(doc), std::invalid_argument);

  SpanDoc after_complete;
  after_complete.version = 2;
  after_complete.events.push_back(
      make_span(SpanEvent::Kind::kRunning, 1, 0.0, 10.0, 0, 2));
  after_complete.events.push_back(
      make_span(SpanEvent::Kind::kCompleted, 1, 10.0, 10.0, 0, 2));
  after_complete.events.push_back(
      make_span(SpanEvent::Kind::kRunning, 1, 10.0, 20.0, 0, 2));
  EXPECT_THROW(obs::breakdown(after_complete), std::invalid_argument);
}

TEST(Breakdown, RejectsComponentsThatMissTheLatency) {
  // At a speed of 1e17, d * factor + d * (1 - factor) rounds to 0: the
  // one-second span accounts for no time at all.
  SpanDoc doc;
  doc.version = 2;
  SpanEvent run = make_span(SpanEvent::Kind::kRunning, 1, 0.0, 1.0, 0, 0);
  run.factor = 1e17;
  doc.events = {run, make_span(SpanEvent::Kind::kCompleted, 1, 1.0, 1.0, 0, 0)};
  EXPECT_THROW(obs::breakdown(doc), std::invalid_argument);
  // Without the completed marker the task is not accounted, so not
  // checked.
  doc.events.pop_back();
  EXPECT_EQ(obs::breakdown(doc).incomplete, 1u);
}

TEST(Breakdown, WindowAggregationBucketsByCompletionTime) {
  SpanDoc doc;
  doc.version = 2;
  for (std::uint64_t task : {1u, 2u}) {
    const double shift = task == 1 ? 0.0 : 500.0;
    SpanEvent run =
        make_span(SpanEvent::Kind::kRunning, task, shift, shift + 100.0, 0, 0);
    doc.events.push_back(run);
    SpanEvent done = make_span(SpanEvent::Kind::kCompleted, task,
                               shift + 100.0, shift + 100.0, 0, 0);
    done.solo_runtime_s = 100.0;
    doc.events.push_back(done);
  }
  obs::BreakdownReport r = obs::breakdown(doc, 300.0);
  ASSERT_EQ(r.by_window.size(), 2u);
  EXPECT_EQ(r.by_window.at(0).tasks, 1u);  // completes at 100
  EXPECT_EQ(r.by_window.at(2).tasks, 1u);  // completes at 600
}

TEST(Breakdown, RejectsAWindowWhoseIndexOverflows) {
  SpanDoc doc;
  doc.version = 2;
  doc.events = {make_span(SpanEvent::Kind::kRunning, 1, 0.0, 600.0, 0, 0),
                make_span(SpanEvent::Kind::kCompleted, 1, 600.0, 600.0, 0, 0)};
  // 600 s in 1e-300 s windows is index 6e302, far past 2^64; 1e-15 s
  // windows (index 6e17) still fit.
  EXPECT_THROW(obs::breakdown(doc, 1e-300), std::invalid_argument);
  EXPECT_EQ(obs::breakdown(doc, 1e-15).by_window.size(), 1u);
}

TEST(CriticalPath, WalksSameMachinePredecessors) {
  SpanDoc doc;
  doc.version = 2;
  // Task 1 holds machine 0 until t=100; task 2 arrives at 50, waits for
  // it, and sets the makespan at t=180.
  doc.events.push_back(make_span(SpanEvent::Kind::kRunning, 1, 0.0, 100.0, 0, 0));
  SpanEvent done1 = make_span(SpanEvent::Kind::kCompleted, 1, 100.0, 100.0, 0, 0);
  done1.solo_runtime_s = 100.0;
  doc.events.push_back(done1);
  doc.events.push_back(make_span(SpanEvent::Kind::kQueued, 2, 50.0, 100.0, 1));
  doc.events.push_back(
      make_span(SpanEvent::Kind::kRunning, 2, 100.0, 180.0, 1, 0));
  SpanEvent done2 = make_span(SpanEvent::Kind::kCompleted, 2, 180.0, 180.0, 1, 0);
  done2.solo_runtime_s = 80.0;
  doc.events.push_back(done2);

  std::vector<obs::CriticalPathEntry> chain = obs::critical_path(doc);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].task, 1u);
  EXPECT_EQ(chain[1].task, 2u);
  EXPECT_DOUBLE_EQ(chain[1].wait_s, 50.0);
  EXPECT_DOUBLE_EQ(chain.back().complete_s, 180.0);
}

// ---- live recording through the simulator ------------------------------

struct SingleRun {
  std::string spans;
  std::string decisions;
  std::string metrics;
};

SingleRun run_single(std::uint64_t seed, bool spans) {
  sim::DynamicConfig cfg;
  cfg.machines = 12;
  cfg.lambda_per_min = 30.0;
  cfg.duration_s = 3600.0;
  cfg.seed = seed;
  obs::Telemetry tel;
  tel.decisions.set_enabled(true);
  tel.spans.set_enabled(spans);
  cfg.telemetry = &tel;
  sched::MibsScheduler sched(oracle(), sched::Objective::kRuntime, 8, 60.0);
  sched.set_telemetry(&tel);
  sim::run_dynamic(table(), sched, cfg);
  SingleRun out;
  out.spans = tel.spans.str();
  out.decisions = tel.decisions.str();
  std::ostringstream metrics;
  tel.metrics.write_json(metrics);
  out.metrics = metrics.str();
  return out;
}

TEST(SpanRecording, TilesAndSumsOnALiveRun) {
  SingleRun a = run_single(7, true);
  SpanDoc doc = obs::parse_span_log(a.spans);
  ASSERT_FALSE(doc.events.empty());
  obs::BreakdownReport r = obs::breakdown(doc);  // throws on any gap/overlap
  EXPECT_GT(r.rows.size(), 0u);
  for (const obs::TaskBreakdown& row : r.rows) {
    EXPECT_NEAR(row.wait_s + row.solo_s + row.interference_s + row.migration_s,
                row.end_to_end_s(), 1e-9)
        << "task " << row.task;
    EXPECT_GE(row.wait_s, 0.0);
    EXPECT_GT(row.solo_s, 0.0);
    // interference_s may be slightly negative: a pairing whose speed
    // exceeds 1 outpaces solo, and the penalty becomes a credit.
    EXPECT_GT(row.solo_runtime_s, 0.0);
    EXPECT_LT(row.machine, 12u);
  }
  // The critical path ends at the latest completion and stays
  // chronologically ordered.
  std::vector<obs::CriticalPathEntry> chain = obs::critical_path(doc);
  ASSERT_FALSE(chain.empty());
  double latest = 0.0;
  for (const obs::TaskBreakdown& row : r.rows)
    latest = std::max(latest, row.complete_s);
  EXPECT_DOUBLE_EQ(chain.back().complete_s, latest);
  for (std::size_t i = 1; i < chain.size(); ++i)
    EXPECT_LE(chain[i - 1].complete_s, chain[i].start_s);
}

TEST(SpanRecording, SeedDeterministic) {
  SingleRun a = run_single(7, true);
  EXPECT_EQ(run_single(7, true).spans, a.spans);
  EXPECT_NE(run_single(8, true).spans, a.spans);
}

TEST(SpanRecording, DisabledLogLeavesOtherOutputsUntouched) {
  SingleRun on = run_single(7, true);
  SingleRun off = run_single(7, false);
  EXPECT_TRUE(off.spans.find("\"kind\"") == std::string::npos);
  // Enabling spans adds no counters/gauges/histograms and no decision
  // records: both exports are byte-identical either way.
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(on.decisions, off.decisions);
}

// ---- sharded execution -------------------------------------------------

struct ShardedRun {
  std::string spans;
  std::string metrics;
};

ShardedRun run_sharded(std::uint64_t seed, std::size_t threads, bool spans) {
  sim::ShardedConfig cfg;
  cfg.machines = 26;  // uneven split: 4 shards of 7,7,6,6
  cfg.lambda_per_min = 40.0;
  cfg.duration_s = 3600.0;
  cfg.seed = seed;
  cfg.shards = 4;
  cfg.threads = threads;
  obs::Telemetry tel;
  tel.spans.set_enabled(spans);
  cfg.telemetry = &tel;
  run_dynamic_sharded(
      table(),
      [](std::size_t) -> std::unique_ptr<sched::Scheduler> {
        return std::make_unique<sched::MibsScheduler>(
            oracle(), sched::Objective::kRuntime, 8, 60.0);
      },
      cfg);
  ShardedRun out;
  out.spans = tel.spans.str();
  std::ostringstream metrics;
  tel.metrics.write_json(metrics);
  out.metrics = metrics.str();
  return out;
}

TEST(SpanSharding, FourThreadsByteIdenticalToOne) {
  for (std::uint64_t seed : {7u, 23u}) {
    ShardedRun a = run_sharded(seed, 1, true);
    ShardedRun b = run_sharded(seed, 4, true);
    EXPECT_EQ(a.spans, b.spans) << "seed " << seed;
    EXPECT_FALSE(a.spans.empty());
    SpanDoc doc = obs::parse_span_log(a.spans);
    EXPECT_FALSE(doc.events.empty());
    // Merged spans carry globally re-indexed machine ids and still
    // tile per task (breakdown throws otherwise).
    for (const SpanEvent& e : doc.events) {
      if (e.machine != SpanEvent::kNoMachine) {
        EXPECT_LT(e.machine, 26u);
      }
    }
    obs::BreakdownReport r = obs::breakdown(doc);
    EXPECT_GT(r.rows.size(), 0u);
    for (const obs::TaskBreakdown& row : r.rows) {
      EXPECT_NEAR(
          row.wait_s + row.solo_s + row.interference_s + row.migration_s,
          row.end_to_end_s(), 1e-9);
    }
  }
}

TEST(SpanSharding, DisabledLogLeavesShardedMetricsUntouched) {
  ShardedRun on = run_sharded(7, 4, true);
  ShardedRun off = run_sharded(7, 4, false);
  EXPECT_EQ(on.metrics, off.metrics);
}

}  // namespace
}  // namespace tracon
