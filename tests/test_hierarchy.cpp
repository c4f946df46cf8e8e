// The paper's manager tree (Section 3) on the sharded engine: one root
// arrival stream routed round-robin or at random across per-manager
// shards (ShardedConfig::routing).
#include "sim/shard_scenario.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "drain.hpp"
#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
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

/// Four managers of four machines each, fed one round-robin root stream.
ShardedConfig small_config() {
  ShardedConfig cfg;
  cfg.machines = 16;
  cfg.shards = 4;
  cfg.routing = Routing::kRoundRobin;
  cfg.lambda_per_min = 20.0;
  cfg.duration_s = 3600.0;
  cfg.seed = 11;
  return cfg;
}

SchedulerFactory fifo_factory() {
  return [](std::size_t m) {
    return std::make_unique<sched::FifoScheduler>(100 + m);
  };
}

TEST(Hierarchy, AggregatesManagerOutcomes) {
  ShardedOutcome o =
      run_dynamic_sharded(table(), fifo_factory(), small_config());
  ASSERT_EQ(o.per_shard.size(), 4u);
  std::size_t arrived = 0, completed = 0, dropped = 0;
  for (const auto& m : o.per_shard) {
    arrived += m.arrived;
    completed += m.completed;
    dropped += m.dropped;
  }
  EXPECT_EQ(o.total.arrived, arrived);
  EXPECT_EQ(o.total.completed, completed);
  EXPECT_EQ(o.total.dropped, dropped);
  EXPECT_GT(o.total.completed, 0u);
}

TEST(Hierarchy, RootStreamSplitExactly) {
  for (Routing routing : {Routing::kRoundRobin, Routing::kRandom}) {
    ShardedConfig cfg = small_config();
    cfg.routing = routing;
    ShardedOutcome o = run_dynamic_sharded(table(), fifo_factory(), cfg);
    PoissonStream root(cfg.lambda_per_min, cfg.duration_s, cfg.mix,
                       cfg.mix_stddev, cfg.seed);
    EXPECT_EQ(o.total.arrived, test::drain(root).size());
  }
}

TEST(Hierarchy, RoundRobinIsBalanced) {
  ShardedConfig cfg = small_config();
  cfg.routing = Routing::kRoundRobin;
  ShardedOutcome o = run_dynamic_sharded(table(), fifo_factory(), cfg);
  // Arrivals differ by at most 1 across managers under round-robin.
  std::size_t lo = o.per_shard[0].arrived, hi = lo;
  for (const auto& m : o.per_shard) {
    lo = std::min(lo, m.arrived);
    hi = std::max(hi, m.arrived);
  }
  EXPECT_LE(hi - lo, 1u);
  EXPECT_LT(o.completion_imbalance(), 0.2);
}

TEST(Hierarchy, RandomRoutingRoughlyBalanced) {
  ShardedConfig cfg = small_config();
  cfg.routing = Routing::kRandom;
  ShardedOutcome o = run_dynamic_sharded(table(), fifo_factory(), cfg);
  EXPECT_LT(o.completion_imbalance(), 0.3);
  EXPECT_GT(o.total.completed, 0u);
}

TEST(Hierarchy, Deterministic) {
  ShardedConfig cfg = small_config();
  auto a = run_dynamic_sharded(table(), fifo_factory(), cfg);
  auto b = run_dynamic_sharded(table(), fifo_factory(), cfg);
  EXPECT_EQ(a.total.completed, b.total.completed);
  EXPECT_EQ(a.total.total_runtime, b.total.total_runtime);
}

TEST(Hierarchy, ThreadCountDoesNotChangeResults) {
  // The leaf runs go through util/parallel's worker pool; any thread
  // count must reproduce the serial outcome exactly.
  ShardedConfig serial = small_config();
  serial.threads = 1;
  ShardedOutcome a = run_dynamic_sharded(table(), fifo_factory(), serial);
  for (std::size_t threads : {2u, 4u, 8u}) {
    ShardedConfig cfg = small_config();
    cfg.threads = threads;
    ShardedOutcome b = run_dynamic_sharded(table(), fifo_factory(), cfg);
    ASSERT_EQ(a.per_shard.size(), b.per_shard.size());
    for (std::size_t m = 0; m < a.per_shard.size(); ++m) {
      EXPECT_EQ(a.per_shard[m].arrived, b.per_shard[m].arrived);
      EXPECT_EQ(a.per_shard[m].completed, b.per_shard[m].completed);
      EXPECT_EQ(a.per_shard[m].dropped, b.per_shard[m].dropped);
      EXPECT_EQ(a.per_shard[m].total_runtime, b.per_shard[m].total_runtime);
      EXPECT_EQ(a.per_shard[m].mean_wait_s, b.per_shard[m].mean_wait_s);
    }
    EXPECT_EQ(a.total.completed, b.total.completed);
    EXPECT_EQ(a.total.total_runtime, b.total.total_runtime);
    EXPECT_EQ(a.total.mean_wait_s, b.total.mean_wait_s);
  }
}

TEST(Hierarchy, PerManagerSchedulersAreIndependent) {
  // Manager 0 gets MIBS, the rest FIFO; the factory index must be used.
  ShardedConfig cfg = small_config();
  cfg.lambda_per_min = 60.0;  // load the managers
  cfg.mix = workload::MixKind::kHeavy;
  int mibs_made = 0;
  sched::TablePredictor oracle = table().oracle_predictor();
  auto factory = [&](std::size_t m) -> std::unique_ptr<sched::Scheduler> {
    if (m == 0) {
      ++mibs_made;
      return std::make_unique<sched::MibsScheduler>(
          oracle, sched::Objective::kRuntime, 8);
    }
    return std::make_unique<sched::FifoScheduler>(m);
  };
  ShardedOutcome o = run_dynamic_sharded(table(), factory, cfg);
  EXPECT_EQ(mibs_made, 1);
  ASSERT_EQ(o.per_shard.size(), 4u);
}

/// One manager's run of small_config()'s shape under `routing`, with
/// the decision and span logs on.
struct OneManager {
  ShardedOutcome outcome;
  std::string decisions, spans;
};

OneManager one_manager(Routing routing) {
  ShardedConfig cfg = small_config();
  cfg.shards = 1;
  cfg.routing = routing;
  obs::Telemetry tel;
  tel.decisions.set_enabled(true);
  tel.spans.set_enabled(true);
  cfg.telemetry = &tel;
  const SchedulerFactory mibs = [](std::size_t) {
    static const sched::TablePredictor oracle = table().oracle_predictor();
    return std::make_unique<sched::MibsScheduler>(
        oracle, sched::Objective::kRuntime, 8, 60.0);
  };
  OneManager r;
  r.outcome = run_dynamic_sharded(table(), mibs, cfg);
  std::ostringstream decisions, spans;
  tel.decisions.write(decisions);
  tel.spans.write(spans);
  r.decisions = decisions.str();
  r.spans = spans.str();
  return r;
}

TEST(Hierarchy, OneManagerIsTheIndependentRunUnderEitherRouting) {
  // Either routing deals a single manager the whole root stream, which
  // is the stream it draws itself.
  const OneManager independent = one_manager(Routing::kIndependent);
  EXPECT_GT(independent.outcome.total.completed, 0u);
  EXPECT_NE(independent.decisions.find("\"decision\""), std::string::npos);
  for (Routing routing : {Routing::kRoundRobin, Routing::kRandom}) {
    const OneManager routed = one_manager(routing);
    const DynamicOutcome& a = routed.outcome.total;
    const DynamicOutcome& b = independent.outcome.total;
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.started, b.started);
    EXPECT_EQ(a.total_runtime, b.total_runtime);
    EXPECT_EQ(a.total_iops, b.total_iops);
    EXPECT_EQ(a.mean_wait_s, b.mean_wait_s);
    EXPECT_EQ(a.mean_queue_length, b.mean_queue_length);
    EXPECT_EQ(routed.decisions, independent.decisions);
    EXPECT_EQ(routed.spans, independent.spans);
  }
}

TEST(Hierarchy, ConfigValidation) {
  ShardedConfig cfg = small_config();
  cfg.machines = 0;
  EXPECT_THROW(run_dynamic_sharded(table(), fifo_factory(), cfg),
               std::invalid_argument);
  EXPECT_THROW(run_dynamic_sharded(table(), nullptr, small_config()),
               std::invalid_argument);
  // A root-stream override is dealt out by a routing policy; without
  // one it can only feed a single shard.
  PoissonStream source(20.0, 3600.0, workload::MixKind::kMedium, 1.5, 11);
  cfg = small_config();
  cfg.routing = Routing::kIndependent;
  cfg.arrival_source = &source;
  EXPECT_THROW(run_dynamic_sharded(table(), fifo_factory(), cfg),
               std::invalid_argument);
  cfg.shards = 1;
  EXPECT_NO_THROW(run_dynamic_sharded(table(), fifo_factory(), cfg));
}

}  // namespace
}  // namespace tracon::sim
