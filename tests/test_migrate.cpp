// Live rebalancing (src/migrate + the event loop's migration
// mechanics): the cost model's arithmetic, candidate selection from a
// synthetic degrading heatmap, the cost-vs-benefit guard, and the
// determinism contract — same-seed runs byte-identical, and
// rebalancing-on sharded runs byte-identical across thread counts.
#include "migrate/rebalancer.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "obs/decision_log.hpp"
#include "obs/telemetry.hpp"
#include "sched/fifo.hpp"
#include "sim/shard_scenario.hpp"
#include "util/rng.hpp"
#include "virt/migration.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::migrate {
namespace {

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

// ------------------------------------------------------------ cost model

TEST(MigrationCostModel, ArithmeticMatchesTheDecomposition) {
  virt::MigrationCostConfig cfg;
  cfg.downtime_s = 0.5;
  cfg.copy_bandwidth_mbps = 400.0;
  cfg.working_set_mb = 512.0;
  cfg.copy_interference = 0.25;
  virt::MigrationCostModel model(cfg);
  EXPECT_DOUBLE_EQ(model.copy_duration_s(), 512.0 / 400.0);
  EXPECT_DOUBLE_EQ(model.copy_speed_factor(), 0.75);
  EXPECT_DOUBLE_EQ(model.task_cost_s(), 0.5 + (512.0 / 400.0) * 0.25);
  // Per-working-set overloads scale with the copied bytes.
  EXPECT_DOUBLE_EQ(model.copy_duration_s(800.0), 2.0);
  EXPECT_DOUBLE_EQ(model.task_cost_s(800.0), 0.5 + 2.0 * 0.25);
}

TEST(MigrationCostModel, ValidatesItsConfig) {
  virt::MigrationCostConfig cfg;
  cfg.downtime_s = -0.1;
  EXPECT_THROW(virt::MigrationCostModel{cfg}, std::invalid_argument);
  cfg = {};
  cfg.copy_bandwidth_mbps = 0.0;
  EXPECT_THROW(virt::MigrationCostModel{cfg}, std::invalid_argument);
  cfg = {};
  cfg.working_set_mb = 0.0;
  EXPECT_THROW(virt::MigrationCostModel{cfg}, std::invalid_argument);
  cfg = {};
  cfg.copy_interference = 1.0;  // factor of 0 would stall the host
  EXPECT_THROW(virt::MigrationCostModel{cfg}, std::invalid_argument);
}

// ------------------------------------------------------- plan() selection

/// The most interference-sensitive (app, neighbour) pair under the
/// oracle: maximizes predicted co-located runtime over solo runtime.
std::pair<std::size_t, std::size_t> worst_pair() {
  std::size_t best_a = 0, best_b = 0;
  double best_ratio = 0.0;
  for (std::size_t a = 0; a < table().num_apps(); ++a) {
    for (std::size_t b = 0; b < table().num_apps(); ++b) {
      double ratio = oracle().predict_runtime(a, b) /
                     oracle().predict_runtime(a, std::nullopt);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_a = a;
        best_b = b;
      }
    }
  }
  EXPECT_GT(best_ratio, 1.05) << "perf table lost its interference";
  return {best_a, best_b};
}

RebalanceConfig cheap_moves() {
  RebalanceConfig cfg;
  cfg.min_benefit_s = 0.1;
  cfg.min_cell_samples = 2;
  cfg.cost.downtime_s = 0.01;
  cfg.cost.working_set_mb = 1.0;
  cfg.cost.copy_bandwidth_mbps = 1000.0;
  return cfg;
}

/// One task of `app` halfway done next to `neighbour` on machine 0.
std::vector<RunningTaskView> one_task(std::size_t app, std::size_t nb) {
  RunningTaskView v;
  v.task_id = 17;
  v.app = app;
  v.machine = 0;
  v.neighbour = nb;
  v.solo_runtime_s = table().solo_runtime(app);
  v.remaining_solo_s = v.solo_runtime_s / 2.0;
  return {v};
}

TEST(Rebalancer, MovesATaskOutOfADegradingCell) {
  auto [app, nb] = worst_pair();
  Rebalancer reb(oracle(), cheap_moves());
  double solo = table().solo_runtime(app);
  for (int i = 0; i < 4; ++i) reb.observe_completion(app, nb, 2.0 * solo, solo);
  EXPECT_GT(reb.cell_slowdown(app, nb), 1.5);
  EXPECT_EQ(reb.completions_observed(), 4u);

  sched::ClusterCounts counts(table().num_apps(), 3);
  counts.place(app, std::nullopt);   // half-busy source stand-in
  counts.place(nb, app);             // fills it: the (app, nb) machine
  auto plans = reb.plan(100.0, one_task(app, nb), counts);
  ASSERT_EQ(plans.size(), 1u);
  const MigrationPlan& p = plans[0];
  EXPECT_EQ(p.task_id, 17u);
  EXPECT_EQ(p.from_machine, 0u);
  EXPECT_EQ(p.from_neighbour, std::optional<std::size_t>(nb));
  EXPECT_EQ(p.dest_neighbour, std::nullopt);  // empty machine wins
  EXPECT_GT(p.margin, 0.1);
  EXPECT_DOUBLE_EQ(p.cost_s, p.downtime_s +
                                 p.copy_s * cheap_moves().cost.copy_interference);
  EXPECT_LT(p.predicted_move_s, p.predicted_stay_s);
}

TEST(Rebalancer, StaysPutWithoutADegradationSignal) {
  auto [app, nb] = worst_pair();
  Rebalancer reb(oracle(), cheap_moves());  // no completions observed
  sched::ClusterCounts counts(table().num_apps(), 3);
  counts.place(app, std::nullopt);
  counts.place(nb, app);
  EXPECT_TRUE(reb.plan(100.0, one_task(app, nb), counts).empty());
  EXPECT_DOUBLE_EQ(reb.cell_slowdown(app, nb), 1.0);
}

TEST(Rebalancer, NeverMovesWhenCostExceedsBenefit) {
  auto [app, nb] = worst_pair();
  RebalanceConfig cfg = cheap_moves();
  // A working set that takes longer to copy than any possible gain.
  cfg.cost.working_set_mb = 1e9;
  cfg.cost.copy_bandwidth_mbps = 1.0;
  Rebalancer reb(oracle(), cfg);
  double solo = table().solo_runtime(app);
  for (int i = 0; i < 4; ++i) reb.observe_completion(app, nb, 2.0 * solo, solo);
  sched::ClusterCounts counts(table().num_apps(), 3);
  counts.place(app, std::nullopt);
  counts.place(nb, app);
  EXPECT_TRUE(reb.plan(100.0, one_task(app, nb), counts).empty());
}

TEST(Rebalancer, ValidatesItsConfig) {
  RebalanceConfig cfg;
  cfg.interval_s = 0.0;
  EXPECT_THROW(Rebalancer(oracle(), cfg), std::invalid_argument);
  cfg = {};
  cfg.max_moves_per_round = 0;
  EXPECT_THROW(Rebalancer(oracle(), cfg), std::invalid_argument);
  cfg = {};
  cfg.slowdown_threshold = 0.9;
  EXPECT_THROW(Rebalancer(oracle(), cfg), std::invalid_argument);
}

// ------------------------------------------------- end-to-end determinism

/// Aggressive rebalancing over a FIFO-placed (hence interference-blind)
/// sharded run, with the decision log recorded.
struct RebalanceRun {
  sim::ShardedOutcome outcome;
  std::string decisions;
  std::string metrics_json;
};

RebalanceRun run_rebalancing(std::uint64_t seed, std::size_t threads) {
  sim::ShardedConfig cfg;
  cfg.machines = 26;
  cfg.lambda_per_min = 25.0;
  cfg.duration_s = 3600.0;
  cfg.seed = seed;
  cfg.shards = 4;
  cfg.threads = threads;
  cfg.rebalance = true;
  cfg.rebalance_cfg.interval_s = 120.0;
  cfg.rebalance_cfg.slowdown_threshold = 1.05;
  cfg.rebalance_cfg.min_cell_samples = 2;
  cfg.rebalance_cfg.min_benefit_s = 0.1;
  cfg.rebalance_predictor = &oracle();

  obs::Telemetry tel;
  tel.decisions.set_enabled(true);
  cfg.telemetry = &tel;
  cfg.accuracy_probe = &oracle();
  cfg.accuracy_family = "oracle";

  RebalanceRun r;
  r.outcome = sim::run_dynamic_sharded(
      table(),
      [seed](std::size_t shard) {
        return std::unique_ptr<sched::Scheduler>(
            std::make_unique<sched::FifoScheduler>(
                derive_stream_seed(seed + 1, shard)));
      },
      cfg);
  r.decisions = tel.decisions.str();
  std::ostringstream metrics;
  tel.metrics.write_json(metrics);
  r.metrics_json = metrics.str();
  return r;
}

std::size_t count_migrations(const std::string& decisions) {
  obs::DecisionDoc doc = obs::parse_decision_log(decisions);
  std::size_t n = 0;
  for (const obs::DecisionEvent& e : doc.events)
    if (e.kind == obs::DecisionEvent::Kind::kMigration) ++n;
  return n;
}

TEST(RebalanceDeterminism, SameSeedSameBytes) {
  RebalanceRun a = run_rebalancing(7, 1);
  RebalanceRun b = run_rebalancing(7, 1);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_GT(count_migrations(a.decisions), 0u)
      << "aggressive rebalancing over FIFO placements should migrate";
}

TEST(RebalanceDeterminism, FourThreadsByteIdenticalToOne) {
  for (std::uint64_t seed : {7u, 23u}) {
    RebalanceRun a = run_rebalancing(seed, 1);
    RebalanceRun b = run_rebalancing(seed, 4);
    EXPECT_EQ(b.outcome.threads_used, 4u);
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.metrics_json, b.metrics_json);
    EXPECT_EQ(a.outcome.total.completed, b.outcome.total.completed);
    EXPECT_EQ(a.outcome.total.total_runtime, b.outcome.total.total_runtime);
  }
}

TEST(RebalanceDeterminism, MigrationRecordsRoundTripAndJoin) {
  RebalanceRun r = run_rebalancing(7, 1);
  obs::DecisionDoc doc = obs::parse_decision_log(r.decisions);
  std::size_t checked = 0;
  for (const obs::DecisionEvent& e : doc.events) {
    if (e.kind != obs::DecisionEvent::Kind::kMigration) continue;
    ++checked;
    EXPECT_NE(e.machine, obs::DecisionEvent::kNoMachine);
    EXPECT_NE(e.from_machine, obs::DecisionEvent::kNoMachine);
    EXPECT_NE(e.machine, e.from_machine);
    EXPECT_GE(e.downtime_s, 0.0);
    EXPECT_GE(e.copy_s, 0.0);
    EXPECT_DOUBLE_EQ(e.cost_s, e.downtime_s + e.copy_s * 0.25);
    EXPECT_GT(e.margin, 0.0);
  }
  ASSERT_GT(checked, 0u);
  // The writer/parser pair is an identity on the migration kind.
  std::ostringstream round;
  obs::DecisionLog log2;
  log2.set_enabled(true);
  for (const auto& [k, v] : doc.fingerprint) log2.set_fingerprint(k, v);
  for (const obs::DecisionEvent& e : doc.events) {
    obs::DecisionEvent copy = e;
    if (e.kind == obs::DecisionEvent::Kind::kDecision)
      log2.record_decision(std::move(copy));
    else if (e.kind == obs::DecisionEvent::Kind::kMigration)
      log2.record_migration(std::move(copy));
    else
      log2.record_outcome(std::move(copy));
  }
  EXPECT_EQ(log2.str(), r.decisions);
}

}  // namespace
}  // namespace tracon::migrate
