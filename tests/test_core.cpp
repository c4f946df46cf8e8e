#include "core/tracon.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>

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

TEST(Tracon, SchedulerKindNames) {
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kFifo), "FIFO");
  EXPECT_EQ(scheduler_kind_name(SchedulerKind::kMibs), "MIBS");
}

}  // namespace
}  // namespace tracon::core
