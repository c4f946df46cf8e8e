// TRACON facade: the full profile -> model -> schedule pipeline in one
// object. This is the library's main entry point; see examples/ for
// usage and README.md for the architecture overview.
//
//   tracon::core::Tracon system;                    // paper testbed
//   system.register_applications(apps);             // profile + measure
//   system.train(model::ModelKind::kNonlinear);     // fit NLM per app
//   auto sched = system.make_scheduler(
//       core::SchedulerKind::kMibs, sched::Objective::kRuntime, 8);
//   auto outcome = sim::run_dynamic(system.perf_table(), *sched, cfg);
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "model/factory.hpp"
#include "model/profiler.hpp"
#include "sched/mios.hpp"
#include "sched/predictor.hpp"
#include "sched/scheduler.hpp"
#include "sim/perf_table.hpp"
#include "virt/host_config.hpp"
#include "workload/synthetic.hpp"

namespace tracon::core {

enum class SchedulerKind { kFifo, kMios, kMibs, kMix };

std::string scheduler_kind_name(SchedulerKind kind);

struct TraconConfig {
  virt::HostConfig host = virt::HostConfig::paper_testbed();
  workload::SyntheticConfig synthetic;
  std::uint64_t seed = 42;
};

class Tracon {
 public:
  explicit Tracon(TraconConfig cfg = {});

  /// Profiles the applications (solo + pairwise ground truth) and
  /// gathers each one's interference training set against the synthetic
  /// workload generator. Must be called before train().
  void register_applications(const std::vector<virt::AppBehavior>& apps);

  /// Trains per-application interference models of the given kind and
  /// builds the prediction table the schedulers consult.
  void train(model::ModelKind kind);

  /// Trains a standalone prediction table of the given kind from the
  /// registered training sets WITHOUT touching the active models — the
  /// building block for multi-family ensembles (each confidence-weighted
  /// family is one such table). Requires register_applications(). For
  /// the kind train() last fitted it returns a copy of the active table
  /// (bit-identical to a refit) without training again.
  sched::TablePredictor train_predictor(model::ModelKind kind) const;

  bool trained() const { return predictor_.has_value(); }
  std::size_t num_apps() const { return apps_.size(); }
  const std::vector<virt::AppBehavior>& applications() const { return apps_; }

  model::Profiler& profiler() { return profiler_; }
  const sim::PerfTable& perf_table() const;
  const sched::TablePredictor& predictor() const;
  const model::TrainingSet& training_set(std::size_t app) const;
  const model::ModelPair& models(std::size_t app) const;
  model::ModelKind model_kind() const { return kind_; }

  /// Creates a scheduler bound to this system's predictor. `queue_limit`
  /// applies to MIBS/MIX (the paper's subscript, e.g. MIBS_8). The
  /// placement policy controls beneficial-join admission (disable it for
  /// fixed-batch static allocation, where every task must be placed).
  /// `predictor_override` substitutes another predictor (e.g. a
  /// shard's sched::ConfidenceWeightedPredictor) — the caller keeps
  /// ownership and must outlive the scheduler.
  std::unique_ptr<sched::Scheduler> make_scheduler(
      SchedulerKind kind, sched::Objective objective,
      std::size_t queue_limit = 8, double batch_timeout_s = 60.0,
      sched::PlacementPolicy policy = {},
      const sched::Predictor* predictor_override = nullptr) const;

 private:
  TraconConfig cfg_;
  model::Profiler profiler_;
  std::vector<virt::AppBehavior> apps_;
  std::vector<virt::AppBehavior> synthetic_;
  std::vector<model::TrainingSet> training_sets_;
  std::optional<sim::PerfTable> perf_table_;
  std::vector<model::ModelPair> models_;
  std::optional<sched::TablePredictor> predictor_;
  model::ModelKind kind_ = model::ModelKind::kNonlinear;
};

}  // namespace tracon::core
