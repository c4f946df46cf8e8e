// Windowed telemetry: WindowedAccuracy ring semantics, SnapshotSeries
// record/parse round trips, byte-identical same-seed series from the
// dynamic scenario, and the drift A/B — the confidence-weighted MIX
// beating the frozen equal-weight blend once the workload mix shifts.
#include "obs/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "obs/accuracy.hpp"
#include "obs/telemetry.hpp"
#include "sched/fifo.hpp"
#include "sched/mix.hpp"
#include "sim/arrival_source.hpp"
#include "sim/dynamic_scenario.hpp"
#include "workload/benchmarks.hpp"
#include "workload/mixes.hpp"

namespace tracon {
namespace {

using obs::AccuracyTracker;
using obs::MetricsSeries;
using obs::SnapshotSeries;
using obs::WindowedAccuracy;

TEST(WindowedAccuracyTest, EmptyWindowIsAllZeros) {
  WindowedAccuracy win(4);
  EXPECT_EQ(win.capacity(), 4u);
  EXPECT_EQ(win.size(), 0u);
  EXPECT_EQ(win.total(), 0u);
  EXPECT_DOUBLE_EQ(win.mean_abs_error(), 0.0);
  EXPECT_DOUBLE_EQ(win.quantile(0.5), 0.0);
  EXPECT_THROW(WindowedAccuracy(0), std::invalid_argument);
}

TEST(WindowedAccuracyTest, RingEvictsOldestPastCapacity) {
  WindowedAccuracy win(4);
  // Errors 0.1, 0.2, ..., 0.6; the ring keeps the last four.
  for (int i = 1; i <= 6; ++i) win.record(100.0 + 10.0 * i, 100.0);
  EXPECT_EQ(win.size(), 4u);
  EXPECT_EQ(win.total(), 6u);
  EXPECT_NEAR(win.mean_abs_error(), (0.3 + 0.4 + 0.5 + 0.6) / 4.0, 1e-12);
  EXPECT_NEAR(win.quantile(0.0), 0.3, 1e-12);
  EXPECT_NEAR(win.quantile(0.5), 0.5, 1e-12);
  EXPECT_NEAR(win.quantile(1.0), 0.6, 1e-12);
}

TEST(WindowedAccuracyTest, AgreesWithCumulativeTrackerWhenNothingEvicted) {
  obs::MetricsRegistry reg;
  AccuracyTracker tracker(reg, "NLM", "runtime");
  WindowedAccuracy win(16);
  const double pairs[][2] = {
      {110.0, 100.0}, {80.0, 100.0}, {150.0, 120.0}, {60.0, 90.0}, {5.0, 4.0}};
  for (const auto& p : pairs) {
    tracker.record(p[0], p[1]);
    win.record(p[0], p[1]);
  }
  // Window capacity exceeds the sample count, so the rolling mean must
  // equal the cumulative histogram's mean |relative error|.
  const obs::Histogram& abs_hist =
      reg.histograms().at("model.nlm.runtime.rel_error_abs");
  EXPECT_EQ(win.size(), abs_hist.count());
  EXPECT_NEAR(win.mean_abs_error(),
              abs_hist.sum() / static_cast<double>(abs_hist.count()), 1e-12);
}

TEST(SnapshotSeriesTest, EmitsCounterDeltasGaugesAndAccuracy) {
  obs::MetricsRegistry reg;
  WindowedAccuracy win(8);
  SnapshotSeries series(reg, 10.0);
  series.track_accuracy("model.test.runtime", &win);
  reg.counter("sim.tasks.arrived").inc(5);
  reg.gauge("sim.queue.length").set(2.0);
  win.record(110.0, 100.0);
  series.sample(10.0);
  reg.counter("sim.tasks.arrived").inc(3);
  reg.gauge("sim.queue.length").set(7.0);
  series.sample(20.0);

  MetricsSeries parsed = obs::parse_metrics_series(series.str());
  EXPECT_EQ(parsed.version, 2);
  EXPECT_DOUBLE_EQ(parsed.interval_s, 10.0);
  ASSERT_EQ(parsed.windows.size(), 2u);
  EXPECT_EQ(parsed.windows[0].index, 0u);
  EXPECT_DOUBLE_EQ(parsed.windows[0].t_start, 0.0);
  EXPECT_DOUBLE_EQ(parsed.windows[0].t_end, 10.0);
  EXPECT_DOUBLE_EQ(parsed.windows[1].t_start, 10.0);
  // Counters report per-window deltas, not running totals.
  EXPECT_DOUBLE_EQ(parsed.windows[0].counters.at("sim.tasks.arrived"), 5.0);
  EXPECT_DOUBLE_EQ(parsed.windows[1].counters.at("sim.tasks.arrived"), 3.0);
  // Gauges report the value as of t_end.
  EXPECT_DOUBLE_EQ(parsed.windows[1].gauges.at("sim.queue.length"), 7.0);
  const auto& acc = parsed.windows[0].accuracy.at("model.test.runtime");
  EXPECT_DOUBLE_EQ(acc.count, 1.0);
  EXPECT_DOUBLE_EQ(acc.total, 1.0);
  EXPECT_NEAR(acc.mean_abs, 0.1, 1e-12);
}

TEST(SnapshotSeriesTest, RejectsNonAdvancingSampleTime) {
  obs::MetricsRegistry reg;
  SnapshotSeries series(reg, 10.0);
  series.sample(10.0);
  EXPECT_THROW(series.sample(10.0), std::invalid_argument);
  EXPECT_THROW(series.sample(5.0), std::invalid_argument);
  EXPECT_THROW(SnapshotSeries(reg, 0.0), std::invalid_argument);
}

TEST(SnapshotSeriesTest, ParserRejectsForeignOrMalformedDocuments) {
  EXPECT_THROW(obs::parse_metrics_series(""), std::invalid_argument);
  EXPECT_THROW(obs::parse_metrics_series(
                   "{\"schema\": \"tracon.trace\", \"version\": 1, "
                   "\"interval_s\": 5}\n"),
               std::invalid_argument);
  EXPECT_THROW(obs::parse_metrics_series(
                   "{\"schema\": \"tracon.metrics_series\", \"version\": "
                   "999, \"interval_s\": 5}\n"),
               std::invalid_argument);

  // Each structural rule, broken once by an otherwise valid series.
  auto header = [](const std::string& interval_s) {
    return "{\"schema\": \"tracon.metrics_series\", \"version\": 2, "
           "\"interval_s\": " + interval_s + "}\n";
  };
  auto window = [](const std::string& index, const std::string& t_start,
                   const std::string& t_end, const std::string& delta = "1",
                   const std::string& count = "1") {
    return "{\"window\": " + index + ", \"t_start\": " + t_start +
           ", \"t_end\": " + t_end + ", \"counters\": {\"sim.tasks\": " +
           delta + "}, \"gauges\": {}, \"accuracy\": {\"model.m\": "
           "{\"count\": " + count + ", \"total\": 2, \"mean_abs\": 0, "
           "\"p50\": 0, \"p90\": 0}}}\n";
  };
  auto expect_refused = [](const std::string& text, const std::string& rule) {
    try {
      obs::parse_metrics_series(text);
      ADD_FAILURE() << "accepted a series that breaks: " << rule;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(rule), std::string::npos)
          << e.what();
    }
  };
  const std::string h = header("10");
  EXPECT_NO_THROW(obs::parse_metrics_series(h + window("0", "0", "10") +
                                            window("1", "10", "15")));
  expect_refused(header("0"), "\"interval_s\" is not positive");
  expect_refused(h + window("1", "0", "10"), "window indices run");
  expect_refused(h + window("0", "0", "10") + window("1", "11", "20"),
                 "does not tile");
  expect_refused(h + window("0", "5", "10"), "does not tile");
  expect_refused(h + window("0", "0", "0"), "does not end after it starts");
  expect_refused(h + window("0", "0", "11"), "spans more than interval_s");
  expect_refused(h + window("0", "0", "10", "-1"), "has a negative delta");
  for (const char* delta : {"1.5", "1e300"})
    expect_refused(h + window("0", "0", "10", delta),
                   "counter \"sim.tasks\" is not a non-negative integer");
  expect_refused(h + window("0", "0", "10", "1", "3"),
                 "count exceeds its lifetime total");
}

const sim::PerfTable& table() {
  static sim::PerfTable t = [] {
    model::Profiler prof(
        virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
    return sim::PerfTable::build(prof, workload::paper_benchmarks());
  }();
  return t;
}

std::string run_series_once(double interval_s) {
  obs::Telemetry tel;
  tel.tracer.set_enabled(false);
  SnapshotSeries series(tel.metrics, interval_s);
  sched::FifoScheduler fifo(1);
  sim::DynamicConfig cfg;
  cfg.machines = 8;
  cfg.lambda_per_min = 4.0;
  cfg.duration_s = 3600.0;
  cfg.seed = 3;
  cfg.telemetry = &tel;
  cfg.snapshots = &series;
  sim::run_dynamic(table(), fifo, cfg);
  return series.str();
}

TEST(SnapshotIntegration, SameSeedRunsEmitByteIdenticalSeries) {
  EXPECT_EQ(run_series_once(600.0), run_series_once(600.0));
}

TEST(SnapshotIntegration, WindowsTileTheHorizonWithFinalPartialWindow) {
  MetricsSeries parsed = obs::parse_metrics_series(run_series_once(1000.0));
  // 3600 s at 1000 s per window: 1000, 2000, 3000, then a partial one.
  ASSERT_EQ(parsed.windows.size(), 4u);
  double prev_end = 0.0;
  for (const obs::SeriesWindow& w : parsed.windows) {
    EXPECT_DOUBLE_EQ(w.t_start, prev_end);
    prev_end = w.t_end;
    for (const auto& [name, delta] : w.counters) {
      EXPECT_GE(delta, 0.0) << name;
    }
  }
  EXPECT_DOUBLE_EQ(parsed.windows.back().t_end, 3600.0);
  EXPECT_DOUBLE_EQ(parsed.windows.back().t_start, 3000.0);
}

/// A deliberately misleading family: inverts and inflates the oracle's
/// runtime ordering, so placements it likes are placements the cluster
/// regrets. Stands in for a model trained on a stale workload mix.
class MisleadingPredictor final : public sched::Predictor {
 public:
  explicit MisleadingPredictor(const sched::TablePredictor& oracle)
      : oracle_(oracle) {}
  std::size_t num_apps() const override { return oracle_.num_apps(); }
  double predict_runtime(
      std::size_t task,
      const std::optional<std::size_t>& neighbour) const override {
    const double solo = oracle_.predict_runtime(task, std::nullopt);
    return 4.0 * solo * solo / oracle_.predict_runtime(task, neighbour);
  }
  double predict_iops(
      std::size_t task,
      const std::optional<std::size_t>& neighbour) const override {
    const double solo = oracle_.predict_iops(task, std::nullopt);
    return solo * solo /
           std::max(oracle_.predict_iops(task, neighbour), 1e-9);
  }

 private:
  const sched::TablePredictor& oracle_;
};

struct DriftResult {
  double mean_completion_s = 0.0;
  double stale_runtime_weight = 0.0;  ///< final blend weight of "stale"
  std::size_t stale_samples = 0;      ///< completions fed to its window
};

DriftResult run_drift(bool adapt) {
  static sched::TablePredictor oracle = table().oracle_predictor();
  static MisleadingPredictor misleading(oracle);
  sched::ConfidenceConfig ccfg;
  ccfg.window = 32;
  ccfg.min_samples = 8;
  ccfg.adapt = adapt;
  sched::ConfidenceWeightedPredictor pred(
      {{"oracle", &oracle}, {"stale", &misleading}}, ccfg);

  sim::DynamicConfig cfg;
  cfg.machines = 8;
  cfg.lambda_per_min = 8.0;
  cfg.duration_s = 7200.0;
  cfg.seed = 5;
  cfg.outcome_observer = &pred;
  // The drift: a light mix for the first hour, heavy after.
  sim::MixShiftArrivalSource source(cfg.lambda_per_min, cfg.duration_s,
                                    3600.0, workload::MixKind::kLight,
                                    workload::MixKind::kHeavy, 1.5, cfg.seed);
  cfg.arrival_source = &source;

  sched::MixScheduler mix(pred, sched::Objective::kRuntime, 8, 60.0, {});
  sim::DynamicOutcome o = sim::run_dynamic(table(), mix, cfg);
  EXPECT_GT(o.completed, 0u);
  DriftResult result;
  result.mean_completion_s =
      o.total_runtime / static_cast<double>(o.completed);
  result.stale_runtime_weight = pred.runtime_weight(1);
  result.stale_samples = pred.runtime_window(1).total();
  return result;
}

TEST(ConfidenceDrift, AdaptiveBlendBeatsFrozenBlendAfterMixShift) {
  const DriftResult adaptive = run_drift(true);
  const DriftResult frozen = run_drift(false);
  // The adaptive ensemble learns the misleading family's windowed error
  // and drops it from the blend; the frozen ensemble keeps averaging it
  // into every placement decision.
  EXPECT_DOUBLE_EQ(adaptive.stale_runtime_weight, 0.0);
  EXPECT_GT(adaptive.stale_samples, 8u);
  EXPECT_DOUBLE_EQ(frozen.stale_runtime_weight, 0.5);
  EXPECT_LT(adaptive.mean_completion_s, frozen.mean_completion_s);
}

}  // namespace
}  // namespace tracon
