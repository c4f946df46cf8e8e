// Online model adaptation (Section 3.1, Fig 7).
//
// TRACON keeps the prediction model under observation at runtime: every
// completed task yields an (observed features, actual response) pair.
// The adaptive wrapper tracks relative prediction errors with a drift
// detector, maintains a sliding training window in which new data
// gradually replaces old, and rebuilds the model every
// `rebuild_interval` new observations (the paper rebuilds per 160) or
// immediately on detected drift.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/factory.hpp"
#include "monitor/drift.hpp"
#include "obs/accuracy.hpp"
#include "obs/telemetry.hpp"

namespace tracon::model {

struct AdaptiveConfig {
  ModelKind kind = ModelKind::kNonlinear;
  std::size_t rebuild_interval = 160;  ///< new points per rebuild
  std::size_t window_size = 500;       ///< sliding training window
  bool drift_triggered_rebuild = true;
  monitor::DriftConfig drift;
};

class AdaptiveModel {
 public:
  /// Trains the initial model on `initial` (e.g., 500 profiling points).
  AdaptiveModel(TrainingSet initial, Response response,
                AdaptiveConfig cfg = {});

  double predict(std::span<const double> features) const;

  /// Feeds one runtime observation. Returns the relative error of the
  /// pre-update prediction. May trigger a rebuild.
  double observe(const Observation& obs);

  const InterferenceModel& current() const { return *model_; }
  std::size_t rebuild_count() const { return rebuilds_; }
  /// Model epoch for memoization layers (sched::CandidateIndex): a
  /// retrain is exactly the event after which cached predictions made
  /// through this model must be invalidated, so the epoch IS the
  /// rebuild counter. Predictor adapters over an AdaptiveModel forward
  /// this from Predictor::model_epoch().
  std::uint64_t model_epoch() const {
    return static_cast<std::uint64_t>(rebuilds_);
  }
  std::size_t observations_since_rebuild() const { return fresh_; }
  Response response() const { return response_; }

  /// Relative errors in observation order (for Fig 7 style plots).
  const std::vector<double>& error_history() const { return errors_; }

  /// Attaches (or detaches, with nullptr) telemetry sinks. While
  /// attached, every observation feeds per-family accuracy histograms
  /// and rebuilds/drift detections emit counters plus kModelRetrain /
  /// kModelDrift trace events timestamped with the observation ordinal
  /// (the adaptive loop's own virtual clock).
  void set_telemetry(obs::Telemetry* telemetry);

 private:
  void rebuild();

  AdaptiveConfig cfg_;
  Response response_;
  TrainingSet window_;
  std::unique_ptr<InterferenceModel> model_;
  monitor::DriftDetector drift_;
  std::size_t fresh_ = 0;
  std::size_t rebuilds_ = 0;
  std::vector<double> errors_;
  obs::Telemetry* telemetry_ = nullptr;
  std::string metric_prefix_;  ///< "model.<family>" while attached
  std::optional<obs::AccuracyTracker> accuracy_;
};

}  // namespace tracon::model
