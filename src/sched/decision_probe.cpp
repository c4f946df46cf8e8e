#include "sched/decision_probe.hpp"

#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace tracon::sched {

void score_candidates(const Predictor& predictor, std::size_t app,
                      const ClusterCounts& cluster, Objective objective,
                      bool include_empty,
                      std::vector<std::optional<std::size_t>>* slots,
                      std::vector<double>* scores) {
  TRACON_REQUIRE(slots != nullptr && scores != nullptr,
                 "score_candidates needs output vectors");
  slots->clear();
  cluster.append_candidates(include_empty, slots);
  scores->clear();
  for (const std::optional<std::size_t>& slot : *slots) {
    scores->push_back(objective == Objective::kRuntime
                          ? predictor.predict_runtime(app, slot)
                          : predictor.predict_iops(app, slot));
  }
}

double winning_margin(std::span<const double> scores, std::size_t chosen,
                      Objective objective) {
  bool have_other = false;
  double best_other = 0.0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (i == chosen) continue;
    const bool better =
        !have_other || (objective == Objective::kRuntime
                            ? scores[i] < best_other
                            : scores[i] > best_other);
    if (better) best_other = scores[i];
    have_other = true;
  }
  if (!have_other) return 0.0;
  return objective == Objective::kRuntime ? best_other - scores[chosen]
                                          : scores[chosen] - best_other;
}

void record_decisions(obs::Telemetry* telemetry,
                      std::string_view scheduler_name, double now_s,
                      std::span<const QueuedTask> queue,
                      const ClusterCounts& cluster,
                      std::span<const Placement> placements,
                      const Predictor& predictor, Objective objective) {
  if (telemetry == nullptr || !telemetry->decisions.enabled()) return;
  if (placements.empty()) return;

  const auto* ensemble =
      dynamic_cast<const ConfidenceWeightedPredictor*>(&predictor);

  // One scratch event serves every placement of the round: its
  // strings and family and weight lists are set once, and its
  // candidate list is refilled in place, keeping each candidate's
  // by-family capacity.
  obs::DecisionEvent event;
  event.time_s = now_s;
  event.scheduler = std::string(scheduler_name);
  event.objective = objective == Objective::kRuntime ? "runtime" : "iops";
  if (ensemble != nullptr) {
    for (std::size_t f = 0; f < ensemble->num_families(); ++f) {
      event.families.push_back(ensemble->family_name(f));
      event.weights.push_back(objective == Objective::kRuntime
                                  ? ensemble->runtime_weight(f)
                                  : ensemble->iops_weight(f));
    }
  } else {
    event.families.emplace_back("model");
    event.weights.push_back(1.0);
  }

  // Replay the round: each placement's candidate set is enumerated
  // against the cluster state *after* the placements before it, which
  // is exactly what the scheduler scanned when committing it.
  ClusterCounts state = cluster;
  std::vector<std::optional<std::size_t>> slots;
  std::vector<double> scores;
  for (const Placement& p : placements) {
    TRACON_REQUIRE(p.queue_pos < queue.size(),
                   "placement addresses a task outside the queue snapshot");
    const QueuedTask& task = queue[p.queue_pos];

    score_candidates(predictor, task.app, state, objective, true, &slots,
                     &scores);

    event.task = task.id;
    event.app = task.app;
    event.candidates.resize(slots.size());
    std::size_t chosen = slots.size();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      obs::DecisionCandidate& candidate = event.candidates[i];
      candidate.neighbour = slots[i];
      candidate.score = scores[i];
      candidate.by_family.clear();
      if (ensemble != nullptr) {
        for (std::size_t f = 0; f < ensemble->num_families(); ++f) {
          const Predictor& member = ensemble->family_predictor(f);
          candidate.by_family.push_back(
              objective == Objective::kRuntime
                  ? member.predict_runtime(task.app, slots[i])
                  : member.predict_iops(task.app, slots[i]));
        }
      } else {
        candidate.by_family.push_back(scores[i]);
      }
      if (slots[i] == p.neighbour) chosen = i;
    }
    TRACON_REQUIRE(chosen < slots.size(),
                   "committed placement's slot missing from candidate scan");
    event.chosen = chosen;
    event.margin = winning_margin(scores, chosen, objective);
    event.predicted_runtime_s =
        predictor.predict_runtime(task.app, p.neighbour);
    event.predicted_iops = predictor.predict_iops(task.app, p.neighbour);

    telemetry->decisions.record_decision(event);
    state.place(task.app, p.neighbour);
  }
}

}  // namespace tracon::sched
