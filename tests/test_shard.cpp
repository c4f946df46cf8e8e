// Tests the sharded dynamic scenario's headline guarantees: results are
// a function of (seed, machines, shards) only — the worker-pool size
// must never leak into outcomes, metrics bytes, trace bytes, or the
// merged snapshot series (DESIGN.md §7) — and a 1-shard run is the
// flat run_dynamic system, byte for byte.
#include "sim/shard_scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>

#include "drain.hpp"
#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
#include "sched/mix.hpp"
#include "stats/matrix.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::sim {
namespace {

const PerfTable& table() {
  static PerfTable t = [] {
    model::Profiler prof(
        virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
    return PerfTable::build(prof, workload::paper_benchmarks());
  }();
  return t;
}

const sched::TablePredictor& oracle() {
  static sched::TablePredictor p = table().oracle_predictor();
  return p;
}

TEST(DeriveStreamSeed, DeterministicAndStreamSeparated) {
  EXPECT_EQ(derive_stream_seed(7, 0), derive_stream_seed(7, 0));
  // Distinct streams and distinct base seeds land on distinct values,
  // including the pathological all-zero input.
  EXPECT_NE(derive_stream_seed(7, 0), derive_stream_seed(7, 1));
  EXPECT_NE(derive_stream_seed(7, 0), derive_stream_seed(8, 0));
  EXPECT_NE(derive_stream_seed(0, 0), derive_stream_seed(0, 1));
  EXPECT_NE(derive_stream_seed(0, 0), 0u);
  // Stream ids must not collapse onto neighbouring seeds.
  EXPECT_NE(derive_stream_seed(7, 1), derive_stream_seed(8, 0));
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(97);
    for (auto& h : hits) h.store(0);
    parallel_for(threads, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, PropagatesFirstWorkerException) {
  EXPECT_THROW(parallel_for(4, 16,
                            [](std::size_t i) {
                              if (i % 2 == 1)
                                throw std::runtime_error("shard failed");
                            }),
               std::runtime_error);
  // Zero iterations: no worker runs, no exception.
  parallel_for(4, 0, [](std::size_t) { throw std::runtime_error("never"); });
}

TEST(HardwareThreads, NeverZero) { EXPECT_GE(hardware_threads(), 1u); }

TEST(AutoShardCount, OneShardPer128MachinesClamped) {
  EXPECT_EQ(auto_shard_count(1), 1u);
  EXPECT_EQ(auto_shard_count(127), 1u);
  EXPECT_EQ(auto_shard_count(256), 2u);
  EXPECT_EQ(auto_shard_count(10'000), 64u);  // 78 -> clamp
  EXPECT_EQ(auto_shard_count(1'000'000), 64u);
}

ShardedConfig small_cfg(std::uint64_t seed, std::size_t threads) {
  ShardedConfig cfg;
  cfg.machines = 26;  // uneven split: 4 shards of 7,7,6,6
  cfg.lambda_per_min = 40.0;
  cfg.duration_s = 3600.0;
  cfg.seed = seed;
  cfg.shards = 4;
  cfg.threads = threads;
  return cfg;
}

sched::PlacementPolicy no_hold() {
  sched::PlacementPolicy p;
  p.beneficial_joins_only = false;
  return p;
}

/// Builds the factory for one scheduler family; `kind` in
/// {fifo, mios, mibs, mix}.
SchedulerFactory factory_for(const std::string& kind, std::uint64_t seed) {
  if (kind == "fifo") {
    return [seed](std::size_t shard) -> std::unique_ptr<sched::Scheduler> {
      return std::make_unique<sched::FifoScheduler>(
          derive_stream_seed(seed + 1, shard));
    };
  }
  if (kind == "mios") {
    return [](std::size_t) -> std::unique_ptr<sched::Scheduler> {
      return std::make_unique<sched::MiosScheduler>(
          oracle(), sched::Objective::kRuntime, no_hold());
    };
  }
  if (kind == "mibs") {
    return [](std::size_t) -> std::unique_ptr<sched::Scheduler> {
      return std::make_unique<sched::MibsScheduler>(
          oracle(), sched::Objective::kRuntime, 8, 60.0, no_hold());
    };
  }
  return [](std::size_t) -> std::unique_ptr<sched::Scheduler> {
    return std::make_unique<sched::MixScheduler>(
        oracle(), sched::Objective::kRuntime, 8, 60.0, no_hold());
  };
}

/// Full instrumented run: metrics + typed trace + task trace + series.
struct RunBytes {
  ShardedOutcome outcome;
  std::string metrics_json;
  std::string trace_jsonl;
  std::string events_jsonl;
  std::string series;
};

RunBytes run_instrumented(const std::string& kind, std::uint64_t seed,
                          std::size_t threads) {
  ShardedConfig cfg = small_cfg(seed, threads);
  obs::Telemetry telemetry;
  telemetry.tracer.set_enabled(true);
  cfg.telemetry = &telemetry;
  cfg.accuracy_probe = &oracle();
  cfg.accuracy_family = "oracle";
  cfg.snapshot_interval_s = 600.0;

  RunBytes r;
  r.outcome = run_dynamic_sharded(table(), factory_for(kind, seed), cfg);
  std::ostringstream metrics, tj, ej;
  telemetry.metrics.write_json(metrics);
  telemetry.tracer.write_jsonl(tj);
  telemetry.tracer.write_task_events_jsonl(ej);
  r.metrics_json = metrics.str();
  r.trace_jsonl = tj.str();
  r.events_jsonl = ej.str();
  r.series = r.outcome.series;
  return r;
}

class ThreadInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(ThreadInvariance, FourThreadsByteIdenticalToOne) {
  const std::string kind = GetParam();
  for (std::uint64_t seed : {7u, 23u}) {
    RunBytes a = run_instrumented(kind, seed, 1);
    RunBytes b = run_instrumented(kind, seed, 4);
    EXPECT_EQ(b.outcome.threads_used, 4u);
    EXPECT_EQ(a.outcome.shards, b.outcome.shards);
    EXPECT_EQ(a.outcome.total.arrived, b.outcome.total.arrived);
    EXPECT_EQ(a.outcome.total.completed, b.outcome.total.completed);
    EXPECT_EQ(a.outcome.total.dropped, b.outcome.total.dropped);
    EXPECT_EQ(a.outcome.total.total_runtime, b.outcome.total.total_runtime);
    EXPECT_EQ(a.outcome.total.mean_wait_s, b.outcome.total.mean_wait_s);
    ASSERT_EQ(a.outcome.per_shard.size(), b.outcome.per_shard.size());
    for (std::size_t i = 0; i < a.outcome.per_shard.size(); ++i) {
      EXPECT_EQ(a.outcome.per_shard[i].completed,
                b.outcome.per_shard[i].completed);
    }
    // The determinism contract is byte-level, not value-level.
    EXPECT_EQ(a.metrics_json, b.metrics_json) << kind << " seed " << seed;
    EXPECT_EQ(a.trace_jsonl, b.trace_jsonl) << kind << " seed " << seed;
    EXPECT_EQ(a.events_jsonl, b.events_jsonl) << kind << " seed " << seed;
    EXPECT_EQ(a.series, b.series) << kind << " seed " << seed;
    EXPECT_FALSE(a.series.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, ThreadInvariance,
                         ::testing::Values("fifo", "mios", "mibs", "mix"));

TEST(ShardedScenario, OversubscribedThreadsStillByteIdentical) {
  // More workers than shards: extra threads must be harmless.
  RunBytes a = run_instrumented("mios", 11, 1);
  RunBytes b = run_instrumented("mios", 11, 16);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.events_jsonl, b.events_jsonl);
}

TEST(ShardedScenario, ShardStreamsAreIndependent) {
  ShardedConfig cfg = small_cfg(7, 1);
  ShardedOutcome o = run_dynamic_sharded(table(), factory_for("fifo", 7), cfg);
  ASSERT_EQ(o.per_shard.size(), 4u);
  // Shards 0 and 1 host the same machine count and arrival rate; only
  // their counter-derived streams differ, so identical arrival tallies
  // across all pairs would mean the streams collapsed.
  bool all_equal = true;
  for (std::size_t i = 1; i < o.per_shard.size(); ++i) {
    if (o.per_shard[i].arrived != o.per_shard[0].arrived) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
  // And the totals are the sum of the parts.
  std::size_t arrived = 0, completed = 0;
  for (const DynamicOutcome& s : o.per_shard) {
    arrived += s.arrived;
    completed += s.completed;
  }
  EXPECT_EQ(o.total.arrived, arrived);
  EXPECT_EQ(o.total.completed, completed);
}

TEST(ShardedScenario, ShardCountShapesTheSystem) {
  // Shards are part of the simulated system (per-shard queues and
  // managers), so different shard counts are different systems.
  ShardedConfig one = small_cfg(7, 1);
  one.shards = 1;
  ShardedConfig four = small_cfg(7, 1);
  ShardedOutcome a = run_dynamic_sharded(table(), factory_for("fifo", 7), one);
  ShardedOutcome b = run_dynamic_sharded(table(), factory_for("fifo", 7), four);
  EXPECT_EQ(a.shards, 1u);
  EXPECT_EQ(b.shards, 4u);
  EXPECT_NE(a.total.arrived, b.total.arrived);
}

TEST(ShardedScenario, ShardsNeverExceedMachines) {
  ShardedConfig cfg = small_cfg(7, 1);
  cfg.machines = 2;
  cfg.shards = 8;
  ShardedOutcome o = run_dynamic_sharded(table(), factory_for("fifo", 7), cfg);
  EXPECT_EQ(o.shards, 2u);
}

/// Every sink of one run, serialized.
struct SinkBytes {
  std::string metrics, trace, events, decisions, spans, series;
};

SinkBytes sink_bytes(const obs::Telemetry& tel, std::string series) {
  SinkBytes b;
  std::ostringstream metrics, tj, ej, dj, sj;
  tel.metrics.write_json(metrics);
  tel.tracer.write_jsonl(tj);
  tel.tracer.write_task_events_jsonl(ej);
  tel.decisions.write(dj);
  tel.spans.write(sj);
  b.metrics = metrics.str();
  b.trace = tj.str();
  b.events = ej.str();
  b.decisions = dj.str();
  b.spans = sj.str();
  b.series = std::move(series);
  return b;
}

void enable_logs(obs::Telemetry& tel) {
  tel.tracer.set_enabled(true);
  tel.decisions.set_enabled(true);
  tel.spans.set_enabled(true);
}

TEST(ShardedScenario, OneShardIsTheFlatRunByteForByte) {
  // The flat system, wired by hand: every sink, the accuracy windows,
  // the snapshot series and a rebalancer.
  migrate::RebalanceConfig rcfg;
  rcfg.interval_s = 120.0;
  DynamicConfig flat;
  flat.machines = 12;
  flat.lambda_per_min = 14.0;
  flat.duration_s = 7200.0;
  flat.mix = workload::MixKind::kHeavy;
  flat.seed = 5;
  obs::Telemetry flat_tel;
  enable_logs(flat_tel);
  flat.telemetry = &flat_tel;
  flat.accuracy_probe = &oracle();
  flat.accuracy_family = "oracle";
  obs::SnapshotSeries series(flat_tel.metrics, 600.0);
  obs::WindowedAccuracy win_runtime(64), win_iops(64);
  series.track_accuracy("model.oracle.runtime", &win_runtime);
  series.track_accuracy("model.oracle.iops", &win_iops);
  flat.snapshots = &series;
  flat.windowed_runtime = &win_runtime;
  flat.windowed_iops = &win_iops;
  migrate::Rebalancer rebalancer(oracle(), rcfg);
  flat.rebalancer = &rebalancer;
  auto scheduler = factory_for("mibs", flat.seed)(0);
  scheduler->set_telemetry(&flat_tel);
  const DynamicOutcome a = run_dynamic(table(), *scheduler, flat);
  const SinkBytes want = sink_bytes(flat_tel, series.str());

  // The same system through the engine, at any thread count.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ShardedConfig cfg;
    cfg.machines = flat.machines;
    cfg.lambda_per_min = flat.lambda_per_min;
    cfg.duration_s = flat.duration_s;
    cfg.mix = flat.mix;
    cfg.seed = flat.seed;
    cfg.shards = 1;
    cfg.threads = threads;
    obs::Telemetry tel;
    enable_logs(tel);
    cfg.telemetry = &tel;
    cfg.accuracy_probe = &oracle();
    cfg.accuracy_family = "oracle";
    cfg.snapshot_interval_s = 600.0;
    cfg.rebalance = true;
    cfg.rebalance_cfg = rcfg;
    cfg.rebalance_predictor = &oracle();
    const ShardedOutcome o =
        run_dynamic_sharded(table(), factory_for("mibs", cfg.seed), cfg);
    ASSERT_EQ(o.shards, 1u);
    EXPECT_EQ(o.total.arrived, a.arrived);
    EXPECT_EQ(o.total.completed, a.completed);
    EXPECT_EQ(o.total.dropped, a.dropped);
    EXPECT_EQ(o.total.total_runtime, a.total_runtime);
    EXPECT_EQ(o.total.total_iops, a.total_iops);
    EXPECT_EQ(o.total.mean_wait_s, a.mean_wait_s);
    EXPECT_EQ(o.total.mean_queue_length, a.mean_queue_length);
    const SinkBytes got = sink_bytes(tel, o.series);
    EXPECT_EQ(got.metrics, want.metrics);
    EXPECT_EQ(got.trace, want.trace);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.decisions, want.decisions);
    EXPECT_EQ(got.spans, want.spans);
    EXPECT_EQ(got.series, want.series);
    EXPECT_GT(tel.metrics.counters().at("sim.tasks.migrated").value(), 0u);
  }
}

/// An interference-blind family: every neighbour predicts the solo run.
sched::TablePredictor solo_predictor() {
  const std::size_t n = table().num_apps();
  stats::Matrix runtime(n, n + 1), iops(n, n + 1);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b <= n; ++b) {
      runtime(a, b) = table().solo_runtime(a);
      iops(a, b) = table().solo_iops(a);
    }
  return sched::TablePredictor(std::move(runtime), std::move(iops));
}

struct ConfidenceRun {
  ShardedOutcome outcome;
  SinkBytes bytes;
};

/// MIX over one confidence ensemble per shard of `cfg`, every sink on.
/// `indexed` false resets each shard's scheduler to the flat reference
/// scan. `streamed` streams the decision and span logs to their bytes
/// during the run, epoch by epoch.
ConfidenceRun run_confidence(ShardedConfig cfg, bool indexed = true,
                             bool streamed = false) {
  static const sched::TablePredictor solo = solo_predictor();
  std::vector<std::unique_ptr<sched::ConfidenceWeightedPredictor>> owned;
  for (std::size_t i = 0; i < cfg.shards; ++i) {
    owned.push_back(std::make_unique<sched::ConfidenceWeightedPredictor>(
        std::vector<sched::ConfidenceWeightedPredictor::Family>{
            {"oracle", &oracle()}, {"solo", &solo}}));
    cfg.ensembles.push_back(owned.back().get());
  }
  obs::Telemetry telemetry;
  enable_logs(telemetry);
  cfg.telemetry = &telemetry;
  cfg.snapshot_interval_s = 600.0;
  SchedulerFactory factory =
      [&](std::size_t shard) -> std::unique_ptr<sched::Scheduler> {
    auto s = std::make_unique<sched::MixScheduler>(
        *cfg.ensembles[shard], sched::Objective::kRuntime, 8, 60.0,
        no_hold());
    if (!indexed) s->set_candidate_index(nullptr);
    return s;
  };
  std::ostringstream decisions, spans;
  if (streamed) {
    telemetry.decisions.stream_to(decisions);
    telemetry.spans.stream_to(spans);
  }
  ConfidenceRun r;
  r.outcome = run_dynamic_sharded(table(), factory, cfg);
  r.bytes = sink_bytes(telemetry, r.outcome.series);
  if (streamed) {
    r.bytes.decisions = decisions.str();
    r.bytes.spans = spans.str();
  }
  return r;
}

TEST(ShardedScenario, PerShardEnsemblesAreThreadInvariant) {
  // One confidence ensemble per shard: each learns from its own
  // shard's completions only, so the stateful blend cannot see the
  // worker-pool size.
  const ConfidenceRun a = run_confidence(small_cfg(13, 1));
  const ConfidenceRun b = run_confidence(small_cfg(13, 4));
  EXPECT_EQ(a.outcome.total.completed, b.outcome.total.completed);
  EXPECT_EQ(a.bytes.metrics, b.bytes.metrics);
  EXPECT_EQ(a.bytes.trace, b.bytes.trace);
  EXPECT_EQ(a.bytes.events, b.bytes.events);
  EXPECT_EQ(a.bytes.decisions, b.bytes.decisions);
  EXPECT_EQ(a.bytes.spans, b.bytes.spans);
  EXPECT_EQ(a.bytes.series, b.bytes.series);
  // The ensembles did their jobs: probe, weight gauges, series windows.
  EXPECT_NE(a.bytes.metrics.find("model.confidence.runtime"),
            std::string::npos);
  EXPECT_NE(a.bytes.metrics.find("sched.confidence.oracle.runtime_weight"),
            std::string::npos);
  EXPECT_NE(a.bytes.series.find("model.solo.iops"), std::string::npos);
}

/// MIBS over the static table (default beneficial-join admission),
/// every sink on; `indexed` as in run_confidence.
SinkBytes run_mibs(std::size_t threads, bool indexed) {
  ShardedConfig cfg = small_cfg(21, threads);
  obs::Telemetry telemetry;
  enable_logs(telemetry);
  cfg.telemetry = &telemetry;
  cfg.snapshot_interval_s = 600.0;
  cfg.accuracy_probe = &oracle();
  cfg.accuracy_family = "oracle";
  SchedulerFactory factory =
      [&](std::size_t) -> std::unique_ptr<sched::Scheduler> {
    auto s = std::make_unique<sched::MibsScheduler>(
        oracle(), sched::Objective::kRuntime);
    if (!indexed) s->set_candidate_index(nullptr);
    return s;
  };
  ShardedOutcome o = run_dynamic_sharded(table(), factory, cfg);
  return sink_bytes(telemetry, o.series);
}

void expect_same_bytes(const SinkBytes& a, const SinkBytes& b,
                       const std::string& what) {
  EXPECT_EQ(a.metrics, b.metrics) << what;
  EXPECT_EQ(a.trace, b.trace) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.decisions, b.decisions) << what;
  EXPECT_EQ(a.spans, b.spans) << what;
  EXPECT_EQ(a.series, b.series) << what;
}

struct EngineRun {
  DynamicOutcome outcome;
  SinkBytes bytes;
};

/// The shape and arrival stream of run_chunked's runs.
DynamicConfig chunked_config() {
  DynamicConfig cfg;
  cfg.machines = 12;
  cfg.lambda_per_min = 14.0;
  cfg.duration_s = 7200.0;
  cfg.mix = workload::MixKind::kHeavy;
  cfg.seed = 5;
  return cfg;
}

/// run_chunked's arrivals: chunked_config()'s Poisson stream and one
/// more at 600 s, where a round, a rebalance and a snapshot are due too.
/// The arrival comes first.
std::vector<Arrival> chunked_stream() {
  const DynamicConfig cfg = chunked_config();
  PoissonStream poisson(cfg.lambda_per_min, cfg.duration_s, cfg.mix,
                        cfg.mix_stddev, cfg.seed);
  std::vector<Arrival> stream = test::drain(poisson);
  const Arrival tie{600.0, 3};
  stream.insert(std::upper_bound(stream.begin(), stream.end(), tie,
                                 [](const Arrival& a, const Arrival& b) {
                                   return a.time_s < b.time_s;
                                 }),
                tie);
  return stream;
}

/// One flat run of `kind` with every sink, the accuracy windows, the
/// snapshot series and a rebalancer on, its chunked_stream() fed to a
/// DynamicEngine `chunk` arrivals at a time (0: all it may feed at
/// once), advancing the engine to each instant of `cuts` (ascending)
/// once every arrival before it is fed.
EngineRun run_chunked(const std::string& kind, std::size_t chunk,
                      const std::vector<double>& cuts = {}) {
  DynamicConfig cfg = chunked_config();
  obs::Telemetry tel;
  enable_logs(tel);
  cfg.telemetry = &tel;
  cfg.accuracy_probe = &oracle();
  cfg.accuracy_family = "oracle";
  obs::SnapshotSeries series(tel.metrics, 600.0);
  obs::WindowedAccuracy win_runtime(64), win_iops(64);
  series.track_accuracy("model.oracle.runtime", &win_runtime);
  series.track_accuracy("model.oracle.iops", &win_iops);
  cfg.snapshots = &series;
  cfg.windowed_runtime = &win_runtime;
  cfg.windowed_iops = &win_iops;
  migrate::RebalanceConfig rcfg;
  rcfg.interval_s = 120.0;
  migrate::Rebalancer rebalancer(oracle(), rcfg);
  cfg.rebalancer = &rebalancer;
  auto scheduler = factory_for(kind, cfg.seed)(0);
  scheduler->set_telemetry(&tel);

  const std::vector<Arrival> stream = chunked_stream();
  const std::span<const Arrival> all(stream);
  DynamicEngine engine(table(), *scheduler, cfg);
  std::size_t at = 0;
  auto feed_before = [&](double until) {
    std::size_t end = at;
    while (end < all.size() && all[end].time_s < until) ++end;
    while (at < end) {
      const std::size_t n = chunk == 0 ? end - at : std::min(chunk, end - at);
      engine.feed(all.subspan(at, n));
      at += n;
    }
  };
  for (double t : cuts) {
    feed_before(t);
    engine.advance_to(t);
  }
  feed_before(std::numeric_limits<double>::infinity());
  EngineRun r;
  r.outcome = engine.finish();
  r.bytes = sink_bytes(tel, series.str());
  return r;
}

void expect_same_run(const EngineRun& got, const EngineRun& whole,
                     const std::string& what) {
  EXPECT_EQ(got.outcome.arrived, whole.outcome.arrived) << what;
  EXPECT_EQ(got.outcome.dropped, whole.outcome.dropped) << what;
  EXPECT_EQ(got.outcome.completed, whole.outcome.completed) << what;
  EXPECT_EQ(got.outcome.total_runtime, whole.outcome.total_runtime) << what;
  EXPECT_EQ(got.outcome.total_iops, whole.outcome.total_iops) << what;
  EXPECT_EQ(got.outcome.mean_wait_s, whole.outcome.mean_wait_s) << what;
  EXPECT_EQ(got.outcome.mean_queue_length, whole.outcome.mean_queue_length)
      << what;
  expect_same_bytes(got.bytes, whole.bytes, what);
}

/// Instants to advance run_chunked's engine to: two arrivals' times and
/// two completions' (each a pending completion's ETA when the engine
/// stops there), the arrival at 600 s where every control clock is due,
/// and two instants between events.
std::vector<double> cut_points(const EngineRun& whole) {
  const std::vector<Arrival> stream = chunked_stream();
  std::vector<double> completions;
  for (const obs::DecisionEvent& e :
       obs::parse_decision_log(whole.bytes.decisions).events)
    if (e.kind == obs::DecisionEvent::Kind::kOutcome)
      completions.push_back(e.time_s);
  EXPECT_GT(stream.size(), 60u);
  EXPECT_GT(completions.size(), 40u);
  std::vector<double> cuts = {stream[10].time_s, stream[57].time_s,
                              completions[5],    completions[40],
                              600.0,             1234.5,
                              5000.25};
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

TEST(DynamicEngine, ChunkedFeedIsTheWholeStreamByteForByte) {
  // Chunks of one arrival stop the engine before every arrival, so
  // wake-ups, rounds, rebalances and snapshots all fall across chunk
  // boundaries; the event sequence must not notice. Nor must it notice
  // advance_to stops, at an arrival's time, at a completion due there,
  // or where every control clock is.
  for (const char* kind : {"fifo", "mios", "mibs", "mix"}) {
    const EngineRun whole = run_chunked(kind, 0);
    EXPECT_GT(whole.outcome.completed, 0u) << kind;
    EXPECT_NE(whole.bytes.metrics.find("sim.tasks.migrated"),
              std::string::npos)
        << kind;
    for (std::size_t chunk : {1u, 2u, 7u, 4096u}) {
      expect_same_run(run_chunked(kind, chunk), whole,
                      std::string(kind) + " in chunks of " +
                          std::to_string(chunk));
    }
    const std::vector<double> cuts = cut_points(whole);
    for (std::size_t chunk : {0u, 3u}) {
      expect_same_run(run_chunked(kind, chunk, cuts), whole,
                      std::string(kind) + " advanced to cut points, in "
                                          "chunks of " +
                          std::to_string(chunk));
    }
  }
}

TEST(ShardedScenario, MeanWaitMergesWeightedByStartedTasks) {
  // Saturated shards: many tasks start without finishing, so weighting
  // by completions would read differently.
  ShardedConfig cfg = small_cfg(29, 2);
  cfg.lambda_per_min = 120.0;
  const ShardedOutcome o =
      run_dynamic_sharded(table(), factory_for("mibs", cfg.seed), cfg);
  double by_started = 0.0, by_completed = 0.0;
  std::size_t started = 0, completed = 0;
  for (const DynamicOutcome& s : o.per_shard) {
    EXPECT_GE(s.started, s.completed);
    by_started += s.mean_wait_s * static_cast<double>(s.started);
    by_completed += s.mean_wait_s * static_cast<double>(s.completed);
    started += s.started;
    completed += s.completed;
  }
  ASSERT_GT(completed, 0u);
  EXPECT_EQ(o.total.started, started);
  EXPECT_EQ(o.total.mean_wait_s, by_started / static_cast<double>(started));
  EXPECT_NE(o.total.mean_wait_s,
            by_completed / static_cast<double>(completed));
}

TEST(ShardedScenario, LockstepBaselineIsTheSeparateFifoRun) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const std::string at = std::to_string(shards) + " shards";
    ShardedConfig cfg = small_cfg(17, 2);
    cfg.shards = shards;

    // The normalization baseline as its own pass, with no sink.
    const SchedulerFactory fifo =
        [&](std::size_t shard) -> std::unique_ptr<sched::Scheduler> {
      return std::make_unique<sched::FifoScheduler>(
          shard_seed(cfg.seed + 1, shard, shards));
    };
    const ShardedOutcome separate = run_dynamic_sharded(table(), fifo, cfg);

    // The scheduled side carries everything the baseline must not see:
    // per-shard confidence ensembles, rebalancing, the series and every
    // sink.
    cfg.rebalance = true;
    cfg.rebalance_cfg.interval_s = 120.0;
    cfg.rebalance_predictor = &oracle();
    cfg.fifo_baseline = true;
    const ConfidenceRun with = run_confidence(cfg);
    const DynamicOutcome& b = with.outcome.baseline;
    EXPECT_GT(b.completed, 0u) << at;
    EXPECT_EQ(b.arrived, separate.total.arrived) << at;
    EXPECT_EQ(b.dropped, separate.total.dropped) << at;
    EXPECT_EQ(b.completed, separate.total.completed) << at;
    EXPECT_EQ(b.total_runtime, separate.total.total_runtime) << at;
    EXPECT_EQ(b.total_iops, separate.total.total_iops) << at;
    EXPECT_EQ(b.mean_wait_s, separate.total.mean_wait_s) << at;
    EXPECT_EQ(b.mean_queue_length, separate.total.mean_queue_length) << at;
    EXPECT_EQ(b.duration_s, separate.total.duration_s) << at;

    // The baseline beside it leaves the scheduled run as it was.
    cfg.fifo_baseline = false;
    const ConfidenceRun without = run_confidence(cfg);
    EXPECT_EQ(without.outcome.baseline.completed, 0u) << at;
    EXPECT_EQ(with.outcome.total.completed, without.outcome.total.completed)
        << at;
    EXPECT_EQ(with.outcome.total.mean_wait_s,
              without.outcome.total.mean_wait_s)
        << at;
    expect_same_bytes(with.bytes, without.bytes, at);
    EXPECT_NE(with.bytes.metrics.find("sim.tasks.migrated"),
              std::string::npos)
        << at;
  }
}

/// Streams `cfg`'s run_confidence logs at 1 and 4 threads and compares
/// every byte with the whole run's; returns the whole run.
ConfidenceRun expect_streamed_is_whole(ShardedConfig cfg,
                                       const std::string& what) {
  const ConfidenceRun whole = run_confidence(cfg);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    cfg.threads = threads;
    const ConfidenceRun streamed = run_confidence(cfg, true, true);
    const std::string at =
        what + " streamed at threads " + std::to_string(threads);
    EXPECT_EQ(streamed.outcome.total.completed, whole.outcome.total.completed)
        << at;
    expect_same_bytes(streamed.bytes, whole.bytes, at);
  }
  return whole;
}

TEST(ShardedScenario, StreamedLogsAreTheWholeLogsByteForByte) {
  // Four and a half epochs of a rebalancing MIX run over per-shard
  // ensembles. A rebalance round falls 0.3 s more before each epoch's
  // end than before the last, so the barriers cut migration freeze and
  // copy windows; spans still open hold the span watermark back.
  ShardedConfig cfg = small_cfg(31, 1);
  cfg.machines = 64;
  cfg.lambda_per_min = 60.0;
  const double epoch_s = kEpochArrivals * 60.0 / cfg.lambda_per_min;
  cfg.duration_s = 4.5 * epoch_s;
  cfg.mix = workload::MixKind::kHeavy;
  cfg.rebalance = true;
  cfg.rebalance_cfg.interval_s = (epoch_s - 0.3) / 137.0;
  cfg.rebalance_predictor = &oracle();
  const ConfidenceRun whole = expect_streamed_is_whole(cfg, "rebalancing");

  // The barriers cut at least one migration window.
  std::size_t cut = 0;
  for (const obs::SpanEvent& e : obs::parse_span_log(whole.bytes.spans).events)
    if (e.kind == obs::SpanEvent::Kind::kMigrationFreeze ||
        e.kind == obs::SpanEvent::Kind::kMigrationCopy)
      for (double end = epoch_s; end < cfg.duration_s; end += epoch_s)
        if (e.t0_s < end && end < e.t1_s) ++cut;
  EXPECT_GT(cut, 0u);

  // Saturated shards with long queues: a queued task's arrival is often
  // the earliest open span, and so the watermark.
  cfg.machines = 16;
  cfg.queue_capacity = 48;
  cfg.rebalance = false;
  expect_streamed_is_whole(cfg, "saturated");
}

TEST(ShardedScenario, IndexedPlacementIsTheFlatScanAtAnyThreadCount) {
  // Each shard's scheduler places through its own candidate index;
  // over the static table it never rebuilds, over a shard's ensemble
  // it rebuilds on that shard's worker as completions move the blend.
  // Either way every sink must match the flat scan, at every
  // worker-pool size.
  const SinkBytes mibs_flat = run_mibs(1, false);
  const ConfidenceRun mix_flat = run_confidence(small_cfg(13, 1), false);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string at = " at threads " + std::to_string(threads);
    expect_same_bytes(run_mibs(threads, true), mibs_flat, "mibs" + at);
    const ConfidenceRun mix = run_confidence(small_cfg(13, threads), true);
    EXPECT_EQ(mix.outcome.total.completed, mix_flat.outcome.total.completed);
    expect_same_bytes(mix.bytes, mix_flat.bytes, "mix" + at);
  }
  EXPECT_NE(mibs_flat.decisions.find("\"decision\""), std::string::npos);
}

TEST(ShardedScenario, RejectsBadConfig) {
  ShardedConfig cfg = small_cfg(7, 1);
  cfg.machines = 0;
  EXPECT_THROW(run_dynamic_sharded(table(), factory_for("fifo", 7), cfg),
               std::invalid_argument);
  EXPECT_THROW(run_dynamic_sharded(table(), nullptr, small_cfg(7, 1)),
               std::invalid_argument);
  // Ensembles come one per shard, and replace the shared probe.
  sched::ConfidenceWeightedPredictor ensemble({{"oracle", &oracle()}});
  cfg = small_cfg(7, 1);
  cfg.ensembles = {&ensemble};
  EXPECT_THROW(run_dynamic_sharded(table(), factory_for("fifo", 7), cfg),
               std::invalid_argument);
  cfg.shards = 1;
  cfg.accuracy_probe = &oracle();
  EXPECT_THROW(run_dynamic_sharded(table(), factory_for("fifo", 7), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace tracon::sim
