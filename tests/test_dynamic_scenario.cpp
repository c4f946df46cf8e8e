#include "sim/dynamic_scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
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

DynamicConfig small_config() {
  DynamicConfig cfg;
  cfg.machines = 8;
  cfg.lambda_per_min = 4.0;  // well below the 16-VM capacity
  cfg.duration_s = 3600.0;
  cfg.seed = 3;
  return cfg;
}

TEST(DynamicScenario, LowLoadCompletesAlmostEverything) {
  sched::FifoScheduler fifo(1);
  DynamicConfig cfg = small_config();
  DynamicOutcome o = run_dynamic(table(), fifo, cfg);
  EXPECT_GT(o.arrived, 200u);  // ~4/min over an hour
  EXPECT_EQ(o.dropped, 0u);
  // Everything that arrived early enough completes; a few in-flight
  // tasks at the horizon are allowed.
  EXPECT_GE(o.completed + 20, o.arrived);
  EXPECT_LT(o.mean_wait_s, 1.0);
}

TEST(DynamicScenario, ConservationInvariant) {
  sched::FifoScheduler fifo(1);
  DynamicConfig cfg = small_config();
  cfg.lambda_per_min = 120.0;  // saturate the 8 machines
  DynamicOutcome o = run_dynamic(table(), fifo, cfg);
  EXPECT_LE(o.completed + o.dropped, o.arrived);
  EXPECT_GT(o.dropped, 0u);  // bounded queue must shed load
  EXPECT_GT(o.completed, 0u);
}

TEST(DynamicScenario, DeterministicPerSeed) {
  DynamicConfig cfg = small_config();
  sched::FifoScheduler a(1), b(1);
  DynamicOutcome oa = run_dynamic(table(), a, cfg);
  DynamicOutcome ob = run_dynamic(table(), b, cfg);
  EXPECT_EQ(oa.completed, ob.completed);
  EXPECT_EQ(oa.total_runtime, ob.total_runtime);
  cfg.seed = 4;
  sched::FifoScheduler c(1);
  DynamicOutcome oc = run_dynamic(table(), c, cfg);
  EXPECT_NE(oa.completed, oc.completed);
}

TEST(DynamicScenario, ThroughputPerHour) {
  DynamicOutcome o;
  o.completed = 500;
  o.duration_s = 7200.0;
  EXPECT_DOUBLE_EQ(o.throughput_per_hour(), 250.0);
  DynamicOutcome zero;
  EXPECT_EQ(zero.throughput_per_hour(), 0.0);
}

TEST(DynamicScenario, QueueCapacityControlsDrops) {
  DynamicConfig cfg = small_config();
  cfg.lambda_per_min = 200.0;
  cfg.queue_capacity = 2;
  sched::FifoScheduler a(1);
  DynamicOutcome small_q = run_dynamic(table(), a, cfg);
  cfg.queue_capacity = 64;
  sched::FifoScheduler b(1);
  DynamicOutcome big_q = run_dynamic(table(), b, cfg);
  EXPECT_GT(small_q.dropped, big_q.dropped);
}

TEST(DynamicScenario, RuntimesAtLeastSolo) {
  sched::FifoScheduler fifo(1);
  DynamicConfig cfg = small_config();
  DynamicOutcome o = run_dynamic(table(), fifo, cfg);
  // Mean realized runtime can never beat the fastest solo runtime.
  double min_solo = 1e300;
  for (std::size_t a = 0; a < table().num_apps(); ++a)
    min_solo = std::min(min_solo, table().solo_runtime(a));
  EXPECT_GT(o.total_runtime / static_cast<double>(o.completed),
            0.9 * min_solo);
}

TEST(DynamicScenario, BatchSchedulerDrainsQueueEventually) {
  DynamicConfig cfg = small_config();
  cfg.lambda_per_min = 5.0;  // far below capacity
  sched::TablePredictor oracle = table().oracle_predictor();
  sched::MibsScheduler mibs(oracle, sched::Objective::kRuntime, 8, 30.0);
  DynamicOutcome o = run_dynamic(table(), mibs, cfg);
  EXPECT_EQ(o.dropped, 0u);
  EXPECT_GE(o.completed + 20, o.arrived);
}

TEST(DynamicScenario, InterferenceAwareBeatsFifoUnderLoad) {
  DynamicConfig cfg = small_config();
  cfg.machines = 16;
  cfg.lambda_per_min = 60.0;
  cfg.duration_s = 7200.0;
  cfg.mix = workload::MixKind::kHeavy;  // widest interference spread
  sched::FifoScheduler fifo(1);
  DynamicOutcome base = run_dynamic(table(), fifo, cfg);
  sched::TablePredictor oracle = table().oracle_predictor();
  sched::MibsScheduler mibs(oracle, sched::Objective::kRuntime, 8);
  DynamicOutcome smart = run_dynamic(table(), mibs, cfg);
  EXPECT_GT(smart.completed, base.completed);
}

/// A batch scheduler that places nothing and records the instant of
/// every round it runs. While its queue holds k tasks it asks to be
/// woken at wakes[min(k, wakes.size()) - 1].
class ScriptedBatch final : public sched::Scheduler {
 public:
  explicit ScriptedBatch(std::vector<double> wakes)
      : wakes_(std::move(wakes)) {}

  std::string name() const override { return "scripted"; }

  std::vector<sched::Placement> schedule(
      std::span<const sched::QueuedTask> queue,
      const sched::ClusterCounts& cluster,
      const sched::ScheduleContext& ctx) override {
    (void)queue;
    (void)cluster;
    rounds.push_back(ctx.now_s);
    return {};
  }

  std::optional<double> next_wakeup(
      std::span<const sched::QueuedTask> queue,
      const sched::ScheduleContext& ctx) const override {
    (void)ctx;
    if (queue.empty()) return std::nullopt;
    return wakes_[std::min(queue.size(), wakes_.size()) - 1];
  }

  std::vector<double> rounds;

 private:
  std::vector<double> wakes_;
};

/// Runs `scheduler` over `arrivals` with no periodic round before the
/// horizon, so every round is an arrival's or a wake-up's.
void run_scripted(ScriptedBatch& scheduler,
                  const std::vector<Arrival>& arrivals) {
  DynamicConfig cfg = small_config();
  cfg.duration_s = 100.0;
  cfg.schedule_period_s = 1000.0;
  run_dynamic(table(), scheduler, cfg, arrivals);
}

TEST(DynamicScenario, RepeatedWakeupIsDeliveredOnce) {
  // Four arrivals before t = 50 each ask for the same instant.
  ScriptedBatch scheduler({50.0});
  run_scripted(scheduler, {{1.0, 0}, {2.0, 1}, {3.0, 2}, {4.0, 3}});
  EXPECT_EQ(scheduler.rounds,
            (std::vector<double>{1.0, 2.0, 3.0, 4.0, 50.0}));
}

TEST(DynamicScenario, DistinctWakeupsAreEachDelivered) {
  // The later instant is asked for first; each is delivered once, in
  // time order.
  ScriptedBatch scheduler({60.0, 40.0});
  run_scripted(scheduler, {{1.0, 0}, {2.0, 1}, {3.0, 2}});
  EXPECT_EQ(scheduler.rounds,
            (std::vector<double>{1.0, 2.0, 3.0, 40.0, 60.0}));
}

TEST(PoissonStream, ChunksAreTheMaterializedStream) {
  PoissonArrivalSource source(60.0, 1800.0, workload::MixKind::kHeavy, 1.5,
                              23);
  const std::vector<Arrival> whole = source.arrivals(8);
  ASSERT_GT(whole.size(), 1000u);
  for (std::size_t chunk : {1u, 7u, 4096u}) {
    PoissonStream stream(60.0, 1800.0, workload::MixKind::kHeavy, 1.5, 23, 8);
    std::vector<Arrival> buf(chunk), pulled;
    for (std::size_t got = chunk; got == chunk;) {
      got = stream.fill(buf);
      pulled.insert(pulled.end(), buf.begin(),
                    buf.begin() + static_cast<long>(got));
    }
    ASSERT_EQ(pulled.size(), whole.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(pulled[i].time_s, whole[i].time_s) << i;
      EXPECT_EQ(pulled[i].app, whole[i].app) << i;
    }
    EXPECT_FALSE(stream.next().has_value());  // an ended stream stays so
  }
}

TEST(DynamicEngine, FeedChecksTheStreamAcrossChunks) {
  sched::FifoScheduler fifo(1);
  const DynamicConfig cfg = small_config();
  const std::vector<Arrival> late = {{5.0, 0}, {6.0, 1}};
  const std::vector<Arrival> early = {{4.0, 2}};
  {
    DynamicEngine engine(table(), fifo, cfg);
    engine.feed(late);
    EXPECT_THROW(engine.feed(early), std::invalid_argument);
  }
  {
    DynamicEngine engine(table(), fifo, cfg);
    const std::vector<Arrival> before_zero = {{-1.0, 0}};
    EXPECT_THROW(engine.feed(before_zero), std::invalid_argument);
  }
  DynamicEngine engine(table(), fifo, cfg);
  engine.feed(early);
  engine.feed(late);
  const DynamicOutcome o = engine.finish();
  EXPECT_EQ(o.arrived, 3u);
  EXPECT_THROW(engine.feed(late), std::invalid_argument);
  EXPECT_THROW(engine.finish(), std::invalid_argument);
}

TEST(DynamicScenario, ConfigValidation) {
  sched::FifoScheduler fifo(1);
  DynamicConfig cfg = small_config();
  cfg.machines = 0;
  EXPECT_THROW(run_dynamic(table(), fifo, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.lambda_per_min = 0.0;
  EXPECT_THROW(run_dynamic(table(), fifo, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.queue_capacity = 0;
  EXPECT_THROW(run_dynamic(table(), fifo, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.schedule_period_s = 0.0;
  EXPECT_THROW(run_dynamic(table(), fifo, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace tracon::sim
