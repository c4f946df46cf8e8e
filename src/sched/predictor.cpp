#include "sched/predictor.hpp"

#include <limits>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace tracon::sched {

TablePredictor::TablePredictor(stats::Matrix runtime, stats::Matrix iops)
    : runtime_(std::move(runtime)), iops_(std::move(iops)) {
  TRACON_REQUIRE(runtime_.rows() > 0, "empty prediction table");
  TRACON_REQUIRE(runtime_.cols() == runtime_.rows() + 1,
                 "table needs one column per neighbour class plus idle");
  TRACON_REQUIRE(iops_.rows() == runtime_.rows() &&
                     iops_.cols() == runtime_.cols(),
                 "runtime/iops table shape mismatch");
}

double TablePredictor::predict_runtime(
    std::size_t task, const std::optional<std::size_t>& neighbour) const {
  TRACON_REQUIRE(task < runtime_.rows(), "task class out of range");
  std::size_t col = neighbour.value_or(runtime_.rows());
  TRACON_REQUIRE(col < runtime_.cols(), "neighbour class out of range");
  TRACON_CHECK_FINITE(runtime_(task, col), "predicted runtime");
  TRACON_DCHECK(runtime_(task, col) >= 0.0, "negative predicted runtime");
  return runtime_(task, col);
}

double TablePredictor::predict_iops(
    std::size_t task, const std::optional<std::size_t>& neighbour) const {
  TRACON_REQUIRE(task < iops_.rows(), "task class out of range");
  std::size_t col = neighbour.value_or(iops_.rows());
  TRACON_REQUIRE(col < iops_.cols(), "neighbour class out of range");
  TRACON_CHECK_FINITE(iops_(task, col), "predicted IOPS");
  TRACON_DCHECK(iops_(task, col) >= 0.0, "negative predicted IOPS");
  return iops_(task, col);
}

TablePredictor TablePredictor::from_models(
    const std::vector<model::ModelPair>& models,
    const std::vector<monitor::AppProfile>& profiles) {
  TRACON_REQUIRE(!models.empty() && models.size() == profiles.size(),
                 "need one model pair and profile per application");
  const std::size_t n = models.size();
  stats::Matrix rt(n, n + 1), io(n, n + 1);
  for (std::size_t t = 0; t < n; ++t) {
    TRACON_REQUIRE(models[t].runtime != nullptr && models[t].iops != nullptr,
                   "model pair has null model");
    for (std::size_t b = 0; b <= n; ++b) {
      monitor::AppProfile bg =
          b < n ? profiles[b] : monitor::AppProfile::idle();
      rt(t, b) = models[t].runtime->predict_pair(profiles[t], bg);
      io(t, b) = models[t].iops->predict_pair(profiles[t], bg);
      TRACON_CHECK_FINITE(rt(t, b), "model-predicted runtime");
      TRACON_CHECK_FINITE(io(t, b), "model-predicted IOPS");
      TRACON_DCHECK(rt(t, b) >= 0.0 && io(t, b) >= 0.0,
                    "models must clamp predictions at zero");
    }
  }
  return TablePredictor(std::move(rt), std::move(io));
}

ConfidenceWeightedPredictor::ConfidenceWeightedPredictor(
    std::vector<Family> families, ConfidenceConfig cfg)
    : families_(std::move(families)), cfg_(cfg) {
  TRACON_REQUIRE(!families_.empty(), "confidence ensemble needs >= 1 family");
  TRACON_REQUIRE(cfg_.window >= 1, "confidence window must be >= 1");
  TRACON_REQUIRE(cfg_.error_threshold > 0.0,
                 "confidence error threshold must be positive");
  TRACON_REQUIRE(cfg_.default_error >= 0.0,
                 "confidence default error must be >= 0");
  TRACON_REQUIRE(cfg_.epsilon > 0.0, "confidence epsilon must be positive");
  for (const Family& f : families_) {
    TRACON_REQUIRE(f.predictor != nullptr, "family predictor must be non-null");
    TRACON_REQUIRE(!f.name.empty(), "family name must be non-empty");
    TRACON_REQUIRE(f.predictor->num_apps() == families_[0].predictor->num_apps(),
                   "confidence families disagree on the application set");
  }
  runtime_windows_.assign(families_.size(),
                          obs::WindowedAccuracy(cfg_.window));
  iops_windows_.assign(families_.size(), obs::WindowedAccuracy(cfg_.window));
  runtime_weights_.assign(families_.size(), 0.0);
  iops_weights_.assign(families_.size(), 0.0);
}

std::size_t ConfidenceWeightedPredictor::num_apps() const {
  return families_[0].predictor->num_apps();
}

double ConfidenceWeightedPredictor::predict_runtime(
    std::size_t task, const std::optional<std::size_t>& neighbour) const {
  refresh();
  double blended = 0.0;
  for (std::size_t f = 0; f < families_.size(); ++f) {
    if (runtime_weights_[f] <= 0.0) continue;
    blended +=
        runtime_weights_[f] * families_[f].predictor->predict_runtime(
                                  task, neighbour);
  }
  TRACON_CHECK_FINITE(blended, "blended predicted runtime");
  return blended;
}

double ConfidenceWeightedPredictor::predict_iops(
    std::size_t task, const std::optional<std::size_t>& neighbour) const {
  refresh();
  double blended = 0.0;
  for (std::size_t f = 0; f < families_.size(); ++f) {
    if (iops_weights_[f] <= 0.0) continue;
    blended +=
        iops_weights_[f] * families_[f].predictor->predict_iops(task,
                                                                neighbour);
  }
  TRACON_CHECK_FINITE(blended, "blended predicted IOPS");
  return blended;
}

void ConfidenceWeightedPredictor::begin_round(double now_s) const {
  (void)now_s;
  refresh();
  if (metrics_ == nullptr) return;
  if (weight_gauges_.empty()) {
    for (const Family& family : families_) {
      const std::string prefix = "sched.confidence." + family.name;
      weight_gauges_.push_back(&metrics_->gauge(prefix + ".runtime_weight"));
      weight_gauges_.push_back(&metrics_->gauge(prefix + ".iops_weight"));
    }
  }
  // Weight gauges are stamped per round, not per prediction, so the
  // exported value is the blend the round's decisions actually used.
  for (std::size_t f = 0; f < families_.size(); ++f) {
    weight_gauges_[2 * f]->set(runtime_weights_[f]);
    weight_gauges_[2 * f + 1]->set(iops_weights_[f]);
  }
}

void ConfidenceWeightedPredictor::on_completion(
    std::size_t app, const std::optional<std::size_t>& neighbour,
    double actual_runtime_s, double actual_iops) {
  for (std::size_t f = 0; f < families_.size(); ++f) {
    const Predictor& p = *families_[f].predictor;
    runtime_windows_[f].record(p.predict_runtime(app, neighbour),
                               actual_runtime_s);
    iops_windows_[f].record(p.predict_iops(app, neighbour), actual_iops);
  }
  stale_ = true;
  ++epoch_;
}

const std::string& ConfidenceWeightedPredictor::family_name(
    std::size_t family) const {
  TRACON_REQUIRE(family < families_.size(), "family index out of range");
  return families_[family].name;
}

const Predictor& ConfidenceWeightedPredictor::family_predictor(
    std::size_t family) const {
  TRACON_REQUIRE(family < families_.size(), "family index out of range");
  return *families_[family].predictor;
}

const obs::WindowedAccuracy& ConfidenceWeightedPredictor::runtime_window(
    std::size_t family) const {
  TRACON_REQUIRE(family < runtime_windows_.size(),
                 "family index out of range");
  return runtime_windows_[family];
}

const obs::WindowedAccuracy& ConfidenceWeightedPredictor::iops_window(
    std::size_t family) const {
  TRACON_REQUIRE(family < iops_windows_.size(), "family index out of range");
  return iops_windows_[family];
}

double ConfidenceWeightedPredictor::runtime_weight(std::size_t family) const {
  TRACON_REQUIRE(family < families_.size(), "family index out of range");
  refresh();
  return runtime_weights_[family];
}

double ConfidenceWeightedPredictor::iops_weight(std::size_t family) const {
  TRACON_REQUIRE(family < families_.size(), "family index out of range");
  refresh();
  return iops_weights_[family];
}

std::vector<double> ConfidenceWeightedPredictor::channel_weights(
    const std::vector<obs::WindowedAccuracy>& windows) const {
  const std::size_t n = families_.size();
  std::vector<double> weights(n, 0.0);
  if (!cfg_.adapt) {
    // Static blend: the A/B baseline ignores the windows entirely.
    for (double& w : weights) w = 1.0 / static_cast<double>(n);
    return weights;
  }
  std::vector<double> errors(n, cfg_.default_error);
  std::vector<bool> qualified(n, true);
  for (std::size_t f = 0; f < n; ++f) {
    if (windows[f].size() < cfg_.min_samples) continue;
    errors[f] = windows[f].mean_abs_error();
    // Only a warmed-up window can disqualify its family: kicking a
    // family out on one or two unlucky samples would thrash the blend.
    qualified[f] = errors[f] <= cfg_.error_threshold;
  }
  bool any_qualified = false;
  for (std::size_t f = 0; f < n; ++f) any_qualified |= qualified[f];
  if (!any_qualified) {
    // Every family is over the threshold: fall back to the single
    // best-performing one (first wins ties, deterministically).
    std::size_t best = 0;
    double best_err = std::numeric_limits<double>::infinity();
    for (std::size_t f = 0; f < n; ++f) {
      if (errors[f] < best_err) {
        best_err = errors[f];
        best = f;
      }
    }
    qualified[best] = true;
  }
  double sum = 0.0;
  for (std::size_t f = 0; f < n; ++f) {
    if (!qualified[f]) continue;
    weights[f] = 1.0 / (cfg_.epsilon + errors[f]);
    sum += weights[f];
  }
  TRACON_ASSERT(sum > 0.0, "confidence weights sum to zero");
  for (double& w : weights) w /= sum;
  return weights;
}

void ConfidenceWeightedPredictor::refresh() const {
  if (!stale_) return;
  runtime_weights_ = channel_weights(runtime_windows_);
  iops_weights_ = channel_weights(iops_windows_);
  stale_ = false;
}

}  // namespace tracon::sched
