// Tests for the NLM-log extension model (degree-2 fit on log response).
#include <gtest/gtest.h>

#include <cmath>

#include "model/evaluate.hpp"
#include "model/factory.hpp"
#include "model/nonlinear.hpp"
#include "util/rng.hpp"

namespace tracon::model {
namespace {

/// Multiplicative response: y = base * exp(a*x1) * (1 + b*x2) — the
/// regime where a log link shines and a raw quadratic struggles.
TrainingSet multiplicative_data(int n, std::uint64_t seed) {
  Rng rng(seed);
  TrainingSet ts;
  monitor::AppProfile fg{0.4, 0.05, 150.0, 30.0};
  for (int i = 0; i < n; ++i) {
    monitor::AppProfile bg;
    bg.domu_cpu = rng.uniform(0, 1);
    bg.dom0_cpu = rng.uniform(0, 0.2);
    bg.reads_per_s = rng.uniform(0, 400);
    bg.writes_per_s = rng.uniform(0, 250);
    double y = 50.0 * std::exp(2.0 * bg.domu_cpu) *
               (1.0 + 0.004 * bg.reads_per_s) *
               rng.lognormal_noise(0.03);
    double iops = 400.0 * std::exp(-1.5 * bg.domu_cpu) *
                  rng.lognormal_noise(0.03);
    ts.add(fg, bg, y, iops);
  }
  return ts;
}

TEST(NlmLog, BeatsRawNlmOnMultiplicativeResponse) {
  TrainingSet train = multiplicative_data(200, 60);
  TrainingSet test = multiplicative_data(80, 61);
  auto raw = train_model(ModelKind::kNonlinear, train, Response::kRuntime);
  auto logm = train_model(ModelKind::kNonlinearLog, train,
                          Response::kRuntime);
  double raw_err = evaluate_on(*raw, test).mean;
  double log_err = evaluate_on(*logm, test).mean;
  EXPECT_LT(log_err, raw_err);
  EXPECT_LT(log_err, 0.06);
}

TEST(NlmLog, PredictionsPositiveAndBounded) {
  TrainingSet train = multiplicative_data(150, 62);
  auto m = train_model(ModelKind::kNonlinearLog, train, Response::kIops);
  std::vector<double> extreme(8, 1e6);
  double p = m->predict(extreme);
  EXPECT_GT(p, 0.0);
  EXPECT_TRUE(std::isfinite(p));
}

TEST(NlmLog, DescribeAndFactoryName) {
  TrainingSet train = multiplicative_data(120, 63);
  NonlinearConfig cfg;
  cfg.log_response = true;
  NonlinearModel m(train, Response::kRuntime, cfg);
  EXPECT_TRUE(m.log_response());
  EXPECT_NE(m.describe().find("NLM-log"), std::string::npos);
  EXPECT_EQ(model_kind_name(ModelKind::kNonlinearLog), "NLM-log");
}

TEST(NlmLog, ZeroResponsesHandled) {
  // log(0) is floored; training must not produce NaNs.
  TrainingSet ts = multiplicative_data(120, 64);
  Observation zero = ts.observations()[0];
  zero.runtime = 0.0;
  zero.iops = 0.0;
  ts.add(zero);
  auto m = train_model(ModelKind::kNonlinearLog, ts, Response::kRuntime);
  EXPECT_TRUE(std::isfinite(m->predict(ts.observations()[5].features)));
}

}  // namespace
}  // namespace tracon::model
