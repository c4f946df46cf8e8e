// Prediction interface the schedulers consult, and its main
// implementations: model-driven (TRACON's interference models), oracle
// (the measured ground truth, for upper-bound ablations), and the
// confidence-weighted ensemble that blends model families by their
// live windowed accuracy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/factory.hpp"
#include "monitor/profile.hpp"
#include "obs/accuracy.hpp"
#include "stats/matrix.hpp"

namespace tracon::obs {
class Gauge;
class MetricsRegistry;
}

namespace tracon::sched {

/// Predicts a task's performance when co-located with a neighbour
/// application class (nullopt = idle neighbour). App classes index a
/// fixed application set shared with the cluster simulator.
class Predictor {
 public:
  virtual ~Predictor() = default;
  virtual std::size_t num_apps() const = 0;
  virtual double predict_runtime(
      std::size_t task, const std::optional<std::size_t>& neighbour) const = 0;
  virtual double predict_iops(
      std::size_t task, const std::optional<std::size_t>& neighbour) const = 0;

  /// Round boundary hook: batch schedulers (MIX) call this once per
  /// scheduling round before issuing the round's predictions, so
  /// adaptive predictors refresh their state exactly once per round and
  /// every in-round query sees consistent weights. Default no-op.
  virtual void begin_round(double now_s) const { (void)now_s; }

  /// Model epoch: monotone counter that advances whenever the
  /// predictor's answers may change (retraining, confidence-weight
  /// updates). Memoization layers (sched::CandidateIndex) key their
  /// cached values on it and rebuild on a bump. Immutable predictors
  /// (TablePredictor) stay at epoch 0 forever, so an index over one is
  /// built once.
  virtual std::uint64_t model_epoch() const { return 0; }
};

/// Feedback seam between the simulator and adaptive predictors: the
/// dynamic scenario reports every completed task's realized performance
/// together with the neighbour it was placed against, which is what a
/// predictor needs to score its own placement-time forecasts.
class CompletionObserver {
 public:
  virtual ~CompletionObserver() = default;
  virtual void on_completion(std::size_t app,
                             const std::optional<std::size_t>& neighbour,
                             double actual_runtime_s, double actual_iops) = 0;
};

/// Dense prediction table — the common backing store. Both entries in a
/// row are precomputed for every (task, neighbour) pair, so scheduler
/// queries are O(1) lookups.
class TablePredictor final : public Predictor {
 public:
  /// runtime/iops are (num_apps x num_apps+1) matrices; column j<num_apps
  /// is neighbour class j, the last column is the idle neighbour.
  TablePredictor(stats::Matrix runtime, stats::Matrix iops);

  std::size_t num_apps() const override { return runtime_.rows(); }
  double predict_runtime(
      std::size_t task,
      const std::optional<std::size_t>& neighbour) const override;
  double predict_iops(
      std::size_t task,
      const std::optional<std::size_t>& neighbour) const override;

  /// Builds the table by evaluating trained per-application models on
  /// the application profiles (models[i] predicts application i).
  static TablePredictor from_models(
      const std::vector<model::ModelPair>& models,
      const std::vector<monitor::AppProfile>& profiles);

 private:
  stats::Matrix runtime_;
  stats::Matrix iops_;
};

/// Confidence-weighting knobs. Defaults match DESIGN.md §6e.
struct ConfidenceConfig {
  /// Completions per (family, response) rolling error window.
  std::size_t window = 64;
  /// A family whose windowed mean |relative error| exceeds this is
  /// down-weighted to zero for that response.
  double error_threshold = 0.5;
  /// Below this many windowed samples a family is scored at
  /// `default_error` instead of its (noisy) measured error.
  std::size_t min_samples = 8;
  /// Assumed error while a window is still warming up.
  double default_error = 0.15;
  /// Weight smoothing: weight = 1 / (epsilon + error).
  double epsilon = 0.05;
  /// When false the ensemble is frozen at equal weights — the static
  /// blend the `--confidence-weighting` flag A/B-compares against.
  /// Windows are still fed so telemetry stays comparable.
  bool adapt = true;
};

/// Ensemble over named model families (each backed by any Predictor)
/// that blends per-response predictions by live confidence: families
/// are weighted inversely to their rolling windowed error, a family
/// whose windowed error crosses the threshold is dropped from the
/// blend, and if every family crosses it the single best-performing
/// family is used alone. Implements CompletionObserver so the dynamic
/// scenario can feed realized outcomes back (the paper's adaptation
/// loop driven by accuracy instrumentation).
class ConfidenceWeightedPredictor final : public Predictor,
                                          public CompletionObserver {
 public:
  struct Family {
    std::string name;           ///< metric-path label ("nlm", "oracle")
    const Predictor* predictor;  ///< not owned; must outlive the ensemble
  };

  explicit ConfidenceWeightedPredictor(std::vector<Family> families,
                                       ConfidenceConfig cfg = {});

  std::size_t num_apps() const override;
  double predict_runtime(
      std::size_t task,
      const std::optional<std::size_t>& neighbour) const override;
  double predict_iops(
      std::size_t task,
      const std::optional<std::size_t>& neighbour) const override;

  /// Recomputes cached weights from the current windows and, when a
  /// registry is attached, stamps `sched.confidence.<family>.
  /// {runtime_weight,iops_weight}` gauges for the round.
  void begin_round(double now_s) const override;

  /// Scores every family's forecast for (app, neighbour) against the
  /// realized outcome and marks the cached weights stale.
  void on_completion(std::size_t app,
                     const std::optional<std::size_t>& neighbour,
                     double actual_runtime_s, double actual_iops) override;

  /// Every completion feeds the error windows and so can shift the
  /// blend weights: the epoch advances with each one, invalidating any
  /// memoized predictions.
  std::uint64_t model_epoch() const override { return epoch_; }

  std::size_t num_families() const { return families_.size(); }
  const std::string& family_name(std::size_t family) const;
  /// The underlying per-family predictor — the decision-log probe
  /// replays each candidate through it to record what every family
  /// would have predicted alongside the blended score.
  const Predictor& family_predictor(std::size_t family) const;
  const obs::WindowedAccuracy& runtime_window(std::size_t family) const;
  const obs::WindowedAccuracy& iops_window(std::size_t family) const;
  /// Current blend weights (normalized; refreshed if stale).
  double runtime_weight(std::size_t family) const;
  double iops_weight(std::size_t family) const;

  /// Attaches (or detaches) the registry receiving per-round weight
  /// gauges. Not owned.
  void set_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    weight_gauges_.clear();
  }

  const ConfidenceConfig& config() const { return cfg_; }

 private:
  void refresh() const;
  std::vector<double> channel_weights(
      const std::vector<obs::WindowedAccuracy>& windows) const;

  std::vector<Family> families_;
  ConfidenceConfig cfg_;
  std::vector<obs::WindowedAccuracy> runtime_windows_;
  std::vector<obs::WindowedAccuracy> iops_windows_;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// The per-family {runtime, iops} weight gauges in `metrics_`,
  /// resolved at the first begin_round after set_metrics (the
  /// registry's nodes are stable), so a run without rounds registers
  /// none.
  mutable std::vector<obs::Gauge*> weight_gauges_;
  mutable std::vector<double> runtime_weights_;
  mutable std::vector<double> iops_weights_;
  mutable bool stale_ = true;
  std::uint64_t epoch_ = 0;
};

}  // namespace tracon::sched
