#include "sched/predictor.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace tracon::sched {
namespace {

TablePredictor small_table() {
  // 2 apps; last column = idle neighbour.
  stats::Matrix rt = {{100.0, 150.0, 80.0}, {200.0, 300.0, 180.0}};
  stats::Matrix io = {{50.0, 30.0, 60.0}, {20.0, 10.0, 25.0}};
  return TablePredictor(rt, io);
}

TEST(TablePredictor, LookupByNeighbour) {
  TablePredictor p = small_table();
  EXPECT_EQ(p.num_apps(), 2u);
  EXPECT_EQ(p.predict_runtime(0, std::optional<std::size_t>(1)), 150.0);
  EXPECT_EQ(p.predict_runtime(0, std::nullopt), 80.0);
  EXPECT_EQ(p.predict_iops(1, std::optional<std::size_t>(0)), 20.0);
  EXPECT_EQ(p.predict_iops(1, std::nullopt), 25.0);
}

TEST(TablePredictor, RangeChecks) {
  TablePredictor p = small_table();
  EXPECT_THROW(p.predict_runtime(2, std::nullopt), std::invalid_argument);
  EXPECT_THROW(p.predict_runtime(0, std::optional<std::size_t>(5)),
               std::invalid_argument);
}

TEST(TablePredictor, ShapeValidation) {
  stats::Matrix bad_rt(2, 2);  // needs 3 columns
  stats::Matrix io(2, 3);
  EXPECT_THROW(TablePredictor(bad_rt, io), std::invalid_argument);
  stats::Matrix rt(2, 3);
  stats::Matrix bad_io(1, 3);
  EXPECT_THROW(TablePredictor(rt, bad_io), std::invalid_argument);
}

TEST(TablePredictor, FromModelsEvaluatesAllPairs) {
  // Dummy models: runtime = sum of features, iops = 1000 - sum.
  class SumModel final : public model::InterferenceModel {
   public:
    explicit SumModel(model::Response r, double scale)
        : InterferenceModel(r), scale_(scale) {}
    double predict(std::span<const double> f) const override {
      double s = 0.0;
      for (double v : f) s += v;
      return scale_ * s;
    }
    std::string describe() const override { return "sum"; }

   private:
    double scale_;
  };

  std::vector<model::ModelPair> models;
  for (int i = 0; i < 2; ++i) {
    model::ModelPair mp;
    mp.runtime = std::make_unique<SumModel>(model::Response::kRuntime, 1.0);
    mp.iops = std::make_unique<SumModel>(model::Response::kIops, 2.0);
    models.push_back(std::move(mp));
  }
  std::vector<monitor::AppProfile> profiles = {{0.1, 0.0, 10.0, 0.0},
                                               {0.2, 0.0, 20.0, 0.0}};
  TablePredictor p = TablePredictor::from_models(models, profiles);
  // App 0 next to app 1: sum = 0.1+10 + 0.2+20 = 30.3.
  EXPECT_NEAR(p.predict_runtime(0, std::optional<std::size_t>(1)), 30.3,
              1e-12);
  // App 0 idle neighbour: 10.1.
  EXPECT_NEAR(p.predict_runtime(0, std::nullopt), 10.1, 1e-12);
  EXPECT_NEAR(p.predict_iops(0, std::nullopt), 20.2, 1e-12);
}

TEST(TablePredictor, FromModelsValidation) {
  std::vector<model::ModelPair> none;
  std::vector<monitor::AppProfile> profiles;
  EXPECT_THROW(TablePredictor::from_models(none, profiles),
               std::invalid_argument);
}

// Every table value multiplied by `k` — a family that is wrong by a
// constant factor (1 - k) on every prediction.
TablePredictor scaled_table(double k) {
  stats::Matrix rt = {{100.0 * k, 150.0 * k, 80.0 * k},
                      {200.0 * k, 300.0 * k, 180.0 * k}};
  stats::Matrix io = {{50.0 * k, 30.0 * k, 60.0 * k},
                      {20.0 * k, 10.0 * k, 25.0 * k}};
  return TablePredictor(rt, io);
}

ConfidenceConfig test_cfg() {
  ConfidenceConfig cfg;
  cfg.window = 16;
  cfg.min_samples = 4;
  return cfg;
}

TEST(ConfidencePredictor, ValidatesConstruction) {
  TablePredictor good = small_table();
  EXPECT_THROW(ConfidenceWeightedPredictor({}), std::invalid_argument);
  EXPECT_THROW(ConfidenceWeightedPredictor({{"", &good}}),
               std::invalid_argument);
  EXPECT_THROW(ConfidenceWeightedPredictor({{"a", nullptr}}),
               std::invalid_argument);
  ConfidenceConfig zero_window;
  zero_window.window = 0;
  EXPECT_THROW(ConfidenceWeightedPredictor({{"a", &good}}, zero_window),
               std::invalid_argument);
}

TEST(ConfidencePredictor, EqualWeightsBeforeWarmup) {
  TablePredictor a = small_table();
  TablePredictor b = scaled_table(4.0);
  ConfidenceWeightedPredictor p({{"good", &a}, {"bad", &b}}, test_cfg());
  // No completions yet: both families sit at the default error, so the
  // blend is the plain average.
  EXPECT_DOUBLE_EQ(p.runtime_weight(0), 0.5);
  EXPECT_DOUBLE_EQ(p.runtime_weight(1), 0.5);
  EXPECT_NEAR(p.predict_runtime(0, std::optional<std::size_t>(1)),
              (150.0 + 600.0) / 2.0, 1e-9);
}

TEST(ConfidencePredictor, DisqualifiesFamilyPastErrorThreshold) {
  TablePredictor a = small_table();
  TablePredictor b = scaled_table(4.0);  // 300% off once warmed up
  ConfidenceWeightedPredictor p({{"good", &a}, {"bad", &b}}, test_cfg());
  // Realized outcomes exactly match family "good".
  for (int i = 0; i < 4; ++i) {
    p.on_completion(0, std::optional<std::size_t>(1), 150.0, 30.0);
  }
  EXPECT_DOUBLE_EQ(p.runtime_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(p.runtime_weight(1), 0.0);
  EXPECT_DOUBLE_EQ(p.iops_weight(1), 0.0);
  EXPECT_NEAR(p.predict_runtime(0, std::optional<std::size_t>(1)), 150.0,
              1e-9);
  EXPECT_NEAR(p.predict_iops(0, std::optional<std::size_t>(1)), 30.0, 1e-9);
  EXPECT_EQ(p.runtime_window(0).size(), 4u);
  EXPECT_EQ(p.runtime_window(1).size(), 4u);
}

TEST(ConfidencePredictor, AllFamiliesBadFallsBackToBest) {
  TablePredictor a = small_table();
  TablePredictor b = scaled_table(4.0);
  ConfidenceWeightedPredictor p({{"good", &a}, {"bad", &b}}, test_cfg());
  // Outcomes far from both tables: "bad" (600) is still the closer
  // forecast to 10000 than "good" (150), so it alone survives.
  for (int i = 0; i < 4; ++i) {
    p.on_completion(0, std::optional<std::size_t>(1), 10000.0, 10000.0);
  }
  EXPECT_DOUBLE_EQ(p.runtime_weight(0), 0.0);
  EXPECT_DOUBLE_EQ(p.runtime_weight(1), 1.0);
  EXPECT_NEAR(p.predict_runtime(0, std::optional<std::size_t>(1)), 600.0,
              1e-9);
}

TEST(ConfidencePredictor, AdaptOffFreezesEqualWeights) {
  TablePredictor a = small_table();
  TablePredictor b = scaled_table(4.0);
  ConfidenceConfig cfg = test_cfg();
  cfg.adapt = false;
  ConfidenceWeightedPredictor p({{"good", &a}, {"bad", &b}}, cfg);
  for (int i = 0; i < 8; ++i) {
    p.on_completion(0, std::optional<std::size_t>(1), 150.0, 30.0);
  }
  // The static blend ignores the feedback it keeps receiving.
  EXPECT_DOUBLE_EQ(p.runtime_weight(0), 0.5);
  EXPECT_DOUBLE_EQ(p.runtime_weight(1), 0.5);
  EXPECT_EQ(p.runtime_window(1).size(), 8u);  // windows still fed
}

TEST(ConfidencePredictor, BeginRoundStampsWeightGauges) {
  TablePredictor a = small_table();
  TablePredictor b = scaled_table(4.0);
  ConfidenceWeightedPredictor p({{"good", &a}, {"bad", &b}}, test_cfg());
  obs::MetricsRegistry reg;
  p.set_metrics(&reg);
  for (int i = 0; i < 4; ++i) {
    p.on_completion(0, std::optional<std::size_t>(1), 150.0, 30.0);
  }
  p.begin_round(60.0);
  EXPECT_DOUBLE_EQ(reg.gauge("sched.confidence.good.runtime_weight").value(),
                   1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("sched.confidence.bad.runtime_weight").value(),
                   0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("sched.confidence.good.iops_weight").value(),
                   1.0);
}

}  // namespace
}  // namespace tracon::sched
