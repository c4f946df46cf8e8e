#include "core/tracon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/scope_timer.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::core {
namespace {

/// A small system (3 apps, 27 synthetic workloads) for fast tests.
Tracon small_system() {
  TraconConfig cfg;
  cfg.synthetic.levels = 3;
  Tracon sys(cfg);
  sys.register_applications({*workload::benchmark_by_name("email"),
                             *workload::benchmark_by_name("compile"),
                             *workload::benchmark_by_name("video")});
  return sys;
}

TEST(Tracon, LifecycleGuards) {
  Tracon sys;
  EXPECT_FALSE(sys.trained());
  EXPECT_THROW(sys.perf_table(), std::invalid_argument);
  EXPECT_THROW(sys.predictor(), std::invalid_argument);
  EXPECT_THROW(sys.train(model::ModelKind::kLinear), std::invalid_argument);
  EXPECT_THROW(sys.register_applications({}), std::invalid_argument);
}

TEST(Tracon, RegisterBuildsPerfTableAndTrainingSets) {
  Tracon sys = small_system();
  EXPECT_EQ(sys.num_apps(), 3u);
  EXPECT_EQ(sys.perf_table().num_apps(), 3u);
  EXPECT_EQ(sys.training_set(0).size(), 28u);  // 27 synthetic + idle
  EXPECT_THROW(sys.training_set(3), std::invalid_argument);
  EXPECT_FALSE(sys.trained());
}

TEST(Tracon, TrainBuildsPredictor) {
  Tracon sys = small_system();
  sys.train(model::ModelKind::kLinear);
  EXPECT_TRUE(sys.trained());
  EXPECT_EQ(sys.model_kind(), model::ModelKind::kLinear);
  const auto& p = sys.predictor();
  EXPECT_EQ(p.num_apps(), 3u);
  // Predictions are positive and interference-sensitive.
  double solo = p.predict_runtime(2, std::nullopt);
  double paired = p.predict_runtime(2, std::optional<std::size_t>(2));
  EXPECT_GT(solo, 0.0);
  EXPECT_GT(paired, solo);
  EXPECT_NO_THROW(sys.models(0));
}

TEST(Tracon, RetrainSwitchesModelKind) {
  Tracon sys = small_system();
  sys.train(model::ModelKind::kLinear);
  double lm = sys.predictor().predict_runtime(2, std::optional<std::size_t>(1));
  sys.train(model::ModelKind::kWmm);
  double wmm =
      sys.predictor().predict_runtime(2, std::optional<std::size_t>(1));
  EXPECT_EQ(sys.model_kind(), model::ModelKind::kWmm);
  EXPECT_NE(lm, wmm);
}

TEST(Tracon, MakeSchedulerVariants) {
  Tracon sys = small_system();
  sys.train(model::ModelKind::kLinear);
  EXPECT_EQ(sys.make_scheduler(SchedulerKind::kFifo,
                               sched::Objective::kRuntime)
                ->name(),
            "FIFO");
  EXPECT_EQ(sys.make_scheduler(SchedulerKind::kMios,
                               sched::Objective::kRuntime)
                ->name(),
            "MIOS-RT");
  EXPECT_EQ(sys.make_scheduler(SchedulerKind::kMibs, sched::Objective::kIops,
                               4)
                ->name(),
            "MIBS4-IO");
  EXPECT_EQ(sys.make_scheduler(SchedulerKind::kMix,
                               sched::Objective::kRuntime, 2)
                ->name(),
            "MIX2-RT");
}

TEST(Tracon, FifoWorksWithoutTraining) {
  Tracon sys = small_system();
  EXPECT_NO_THROW(
      sys.make_scheduler(SchedulerKind::kFifo, sched::Objective::kRuntime));
  EXPECT_THROW(
      sys.make_scheduler(SchedulerKind::kMios, sched::Objective::kRuntime),
      std::invalid_argument);
}

// train_predictor() for the family train() already fitted hands back
// that table: bit for bit what a fresh fit on another system builds,
// and without a single model.train call. Other families still fit.
TEST(Tracon, TrainPredictorReusesTheTrainedFamily) {
  const model::ModelKind kind = model::ModelKind::kNonlinear;
  Tracon fresh = small_system();
  const sched::TablePredictor expected = fresh.train_predictor(kind);

  Tracon sys = small_system();
  sys.train(kind);
  obs::ProfRegistry& prof = obs::ProfRegistry::global();
  prof.reset();
  prof.set_enabled(true);
  const sched::TablePredictor reused = sys.train_predictor(kind);
  const std::uint64_t reuse_fits = prof.scope("model.train").calls;
  sys.train_predictor(model::ModelKind::kLinear);
  const std::uint64_t total_fits = prof.scope("model.train").calls;
  prof.set_enabled(false);
  EXPECT_EQ(reuse_fits, 0u);
  EXPECT_EQ(total_fits, 2 * sys.num_apps());  // runtime + IOPS per app

  ASSERT_EQ(reused.num_apps(), expected.num_apps());
  for (std::size_t task = 0; task < reused.num_apps(); ++task) {
    for (std::size_t nb = 0; nb <= reused.num_apps(); ++nb) {
      const std::optional<std::size_t> neighbour =
          nb < reused.num_apps() ? std::optional<std::size_t>(nb)
                                 : std::nullopt;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    reused.predict_runtime(task, neighbour)),
                std::bit_cast<std::uint64_t>(
                    expected.predict_runtime(task, neighbour)));
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(reused.predict_iops(task, neighbour)),
          std::bit_cast<std::uint64_t>(
              expected.predict_iops(task, neighbour)));
    }
  }
}

/// Every number the paper set-up produces on `threads` workers, as
/// bits: each training row, the perf table's profiles and cells, and
/// each family's prediction table, fitted through train_predictor and,
/// for NLM, through train.
std::vector<std::uint64_t> paper_set_up_bits(std::size_t threads) {
  Tracon sys;  // paper testbed, seed 42
  sys.register_applications(workload::paper_benchmarks(), threads);
  std::vector<std::uint64_t> bits;
  auto put = [&](double v) { bits.push_back(std::bit_cast<std::uint64_t>(v)); };
  const std::size_t n = sys.num_apps();
  for (std::size_t a = 0; a < n; ++a) {
    for (const model::Observation& o : sys.training_set(a).observations()) {
      for (double f : o.features) put(f);
      put(o.runtime);
      put(o.iops);
    }
  }
  const sim::PerfTable& table = sys.perf_table();
  for (std::size_t a = 0; a < n; ++a) {
    const monitor::AppProfile& p = table.profile(a);
    for (double v : {p.domu_cpu, p.dom0_cpu, p.reads_per_s, p.writes_per_s})
      put(v);
    for (std::size_t b = 0; b <= n; ++b) {
      const std::optional<std::size_t> nb =
          b < n ? std::optional<std::size_t>(b) : std::nullopt;
      put(table.runtime(a, nb));
      put(table.iops(a, nb));
    }
  }
  auto put_table = [&](const sched::TablePredictor& p) {
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t b = 0; b <= n; ++b) {
        const std::optional<std::size_t> nb =
            b < n ? std::optional<std::size_t>(b) : std::nullopt;
        put(p.predict_runtime(t, nb));
        put(p.predict_iops(t, nb));
      }
    }
  };
  for (model::ModelKind kind :
       {model::ModelKind::kWmm, model::ModelKind::kLinear,
        model::ModelKind::kNonlinear, model::ModelKind::kNonlinearLog,
        model::ModelKind::kNonlinearNoDom0})
    put_table(sys.train_predictor(kind, threads));
  sys.train(model::ModelKind::kNonlinear, threads);
  put_table(sys.predictor());
  return bits;
}

// The set-up's host runs and model fits run on the worker pool, each
// writing only its own slot: no bit of the set-up depends on the
// worker count.
TEST(Tracon, SetUpIsBitIdenticalOnAnyWorkerCount) {
  const std::vector<std::uint64_t> serial = paper_set_up_bits(1);
  for (std::size_t threads : {2u, 3u, 8u}) {
    const std::vector<std::uint64_t> got = paper_set_up_bits(threads);
    ASSERT_EQ(got.size(), serial.size()) << threads << " workers";
    const auto diff = std::mismatch(got.begin(), got.end(), serial.begin());
    EXPECT_TRUE(diff.first == got.end())
        << threads << " workers: number " << (diff.first - got.begin())
        << " of " << got.size() << " differs";
  }
}

TEST(Tracon, SchedulerKindNames) {
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kFifo), "FIFO");
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kMibs), "MIBS");
}

}  // namespace
}  // namespace tracon::core
