#include "core/tracon.hpp"

#include <span>

#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
#include "sched/mix.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace tracon::core {

std::string scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo: return "FIFO";
    case SchedulerKind::kMios: return "MIOS";
    case SchedulerKind::kMibs: return "MIBS";
    case SchedulerKind::kMix: return "MIX";
  }
  return "unknown";
}

Tracon::Tracon(TraconConfig cfg)
    : cfg_(cfg),
      profiler_(virt::HostSimulator(cfg.host), cfg.seed),
      synthetic_(workload::synthetic_workloads(cfg.synthetic)) {
  TRACON_REQUIRE(cfg.host.num_cores > 0, "host must have at least one core");
}

void Tracon::register_applications(
    const std::vector<virt::AppBehavior>& apps, std::size_t threads) {
  TRACON_REQUIRE(!apps.empty(), "need at least one application");
  apps_ = apps;
  // One batch of host runs: each app next to every app (the perf
  // table's ground truth), then next to every synthetic background (its
  // training set).
  std::vector<virt::AppBehavior> backgrounds = apps_;
  backgrounds.insert(backgrounds.end(), synthetic_.begin(), synthetic_.end());
  const std::vector<virt::PairMeasurement> measured =
      profiler_.measure_all(apps_, backgrounds, threads);
  const std::size_t n = apps_.size();
  const std::size_t stride = backgrounds.size();
  training_sets_.clear();
  training_sets_.reserve(n);
  for (std::size_t a = 0; a < n; ++a) {
    training_sets_.push_back(profiler_.training_set(
        apps_[a], synthetic_,
        std::span(measured).subspan(a * stride + n, synthetic_.size())));
  }
  perf_table_ = sim::PerfTable::build(profiler_, apps_, measured, stride);
  models_.clear();
  predictor_.reset();
}

std::vector<model::ModelPair> Tracon::fit(model::ModelKind kind,
                                          std::size_t threads) const {
  TRACON_REQUIRE(!apps_.empty(), "register applications before training");
  std::vector<model::ModelPair> models(apps_.size());
  // Item 2a fits app a's runtime model, item 2a + 1 its IOPS model.
  parallel_for(threads, 2 * models.size(), [&](std::size_t i) {
    const model::TrainingSet& data = training_sets_[i / 2];
    if (i % 2 == 0) {
      models[i / 2].runtime =
          model::train_model(kind, data, model::Response::kRuntime);
    } else {
      models[i / 2].iops =
          model::train_model(kind, data, model::Response::kIops);
    }
  });
  return models;
}

sched::TablePredictor Tracon::table_of(
    const std::vector<model::ModelPair>& models) const {
  std::vector<monitor::AppProfile> profiles;
  profiles.reserve(apps_.size());
  for (std::size_t a = 0; a < apps_.size(); ++a)
    profiles.push_back(perf_table_->profile(a));
  return sched::TablePredictor::from_models(models, profiles);
}

void Tracon::train(model::ModelKind kind, std::size_t threads) {
  models_ = fit(kind, threads);
  kind_ = kind;
  predictor_ = table_of(models_);
}

sched::TablePredictor Tracon::train_predictor(model::ModelKind kind,
                                              std::size_t threads) const {
  // train() already fitted this family on the same training sets, and
  // fitting is deterministic: its table is the one a refit would build.
  if (predictor_.has_value() && kind == kind_) return *predictor_;
  return table_of(fit(kind, threads));
}

const sim::PerfTable& Tracon::perf_table() const {
  TRACON_REQUIRE(perf_table_.has_value(),
                 "register applications before using the perf table");
  return *perf_table_;
}

const sched::TablePredictor& Tracon::predictor() const {
  TRACON_REQUIRE(predictor_.has_value(), "train before using the predictor");
  return *predictor_;
}

const model::TrainingSet& Tracon::training_set(std::size_t app) const {
  TRACON_REQUIRE(app < training_sets_.size(), "app index out of range");
  return training_sets_[app];
}

const model::ModelPair& Tracon::models(std::size_t app) const {
  TRACON_REQUIRE(app < models_.size(), "app index out of range (trained?)");
  return models_[app];
}

std::unique_ptr<sched::Scheduler> Tracon::make_scheduler(
    SchedulerKind kind, sched::Objective objective, std::size_t queue_limit,
    double batch_timeout_s, sched::PlacementPolicy policy,
    const sched::Predictor* predictor_override) const {
  if (kind == SchedulerKind::kFifo)
    return std::make_unique<sched::FifoScheduler>(cfg_.seed + 1);
  const sched::Predictor& pred =
      predictor_override != nullptr ? *predictor_override : predictor();
  switch (kind) {
    case SchedulerKind::kMios: {
      // MIOS dispatches every task immediately to its best VM
      // (Algorithm 1) — it has no admission control, which is why the
      // paper finds it the weakest of the three TRACON schedulers.
      sched::PlacementPolicy mios_policy = policy;
      mios_policy.beneficial_joins_only = false;
      return std::make_unique<sched::MiosScheduler>(pred, objective,
                                                    mios_policy);
    }
    case SchedulerKind::kMibs:
      return std::make_unique<sched::MibsScheduler>(
          pred, objective, queue_limit, batch_timeout_s, policy);
    case SchedulerKind::kMix:
      return std::make_unique<sched::MixScheduler>(
          pred, objective, queue_limit, batch_timeout_s, policy);
    case SchedulerKind::kFifo: break;
  }
  throw std::invalid_argument("unknown scheduler kind");
}

}  // namespace tracon::core
