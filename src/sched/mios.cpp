#include "sched/mios.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "sched/decision_probe.hpp"
#include "util/error.hpp"

namespace tracon::sched {

std::string objective_name(Objective o) {
  return o == Objective::kRuntime ? "RT" : "IO";
}

namespace {

/// `objective`'s prediction for `app` next to `neighbour`.
double predict(const Predictor& predictor, Objective objective,
               std::size_t app, const std::optional<std::size_t>& neighbour) {
  return objective == Objective::kRuntime
             ? predictor.predict_runtime(app, neighbour)
             : predictor.predict_iops(app, neighbour);
}

}  // namespace

JoinTest join_test(Objective objective, double t_solo, double t_pair,
                   double n_solo, double n_pair) {
  if (objective == Objective::kRuntime) {
    // Progress rates relative to solo execution, per the model.
    if (t_pair <= 0.0 || n_pair <= 0.0)
      return {-std::numeric_limits<double>::infinity(), 1.0};
    double gained = t_solo / t_pair;      // the joiner's progress rate
    double lost = 1.0 - n_solo / n_pair;  // the resident's lost rate
    return {gained - lost, 1.0};
  }
  // IOPS objective: the pair must deliver more aggregate throughput
  // than the resident alone.
  return {t_pair - (n_solo - n_pair), std::max(n_solo, 1e-9)};
}

bool join_beneficial(std::size_t task, std::size_t neighbour,
                     const Predictor& predictor, Objective objective,
                     double margin) {
  return join_test(objective, predict(predictor, objective, task, {}),
                   predict(predictor, objective, task, neighbour),
                   predict(predictor, objective, neighbour, {}),
                   predict(predictor, objective, neighbour, task))
      .beneficial(margin);
}

std::optional<std::optional<std::size_t>> mios_best_slot(
    std::size_t task, const ClusterCounts& cluster,
    const Predictor& predictor, Objective objective,
    const PlacementPolicy& policy, bool exclude_empty,
    const CandidateIndex* index) {
  if (index != nullptr) {
    TRACON_REQUIRE(
        &index->predictor() == &predictor && index->objective() == objective,
        "the candidate index scores a different predictor or objective");
    auto slot = index->best_slot(task, cluster, policy, exclude_empty);
    // The paranoid tier re-derives every indexed answer through the
    // reference scan below.
    if constexpr (kParanoidChecksEnabled) {
      TRACON_DCHECK(slot == mios_best_slot(task, cluster, predictor,
                                           objective, policy, exclude_empty,
                                           nullptr),
                    "the candidate index disagrees with the flat scan");
    }
    return slot;
  }
  // The flat scan: every free slot class in canonical order (empty
  // machine first, then occupied classes ascending), scored through
  // score_candidates; each occupied class faces the beneficial-join
  // rule, and the argmin wins, the first of equal scores.
  std::vector<std::optional<std::size_t>> slots;
  std::vector<double> pred;
  score_candidates(predictor, task, cluster, objective,
                   /*include_empty=*/!exclude_empty, &slots, &pred);
  const double t_solo = policy.beneficial_joins_only
                            ? predict(predictor, objective, task, {})
                            : 0.0;

  std::optional<std::optional<std::size_t>> best;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].has_value() && policy.beneficial_joins_only) {
      const std::size_t a = *slots[i];
      if (!join_test(objective, t_solo, pred[i],
                     predict(predictor, objective, a, {}),
                     predict(predictor, objective, a, task))
               .beneficial(policy.join_margin))
        continue;
    }
    double s = objective == Objective::kRuntime ? pred[i] : -pred[i];
    if (s < best_score) {
      best = slots[i];
      best_score = s;
    }
  }
  if (!best.has_value() && exclude_empty && cluster.has_slot(std::nullopt)) {
    // Last resort: no occupied machine offers a beneficial join.
    best = std::optional<std::size_t>{};
  }
  return best;
}

std::vector<Placement> MiosScheduler::schedule(
    std::span<const QueuedTask> queue, const ClusterCounts& cluster,
    const ScheduleContext& ctx) {
  ClusterCounts state = cluster;
  std::vector<Placement> out;
  double predicted_cost = 0.0;
  for (std::size_t pos = 0; pos < queue.size(); ++pos) {
    if (!state.any_free()) break;
    auto slot = mios_best_slot(queue[pos].app, state, predictor_, objective_,
                               policy_, /*exclude_empty=*/false,
                               candidate_index());
    if (!slot.has_value()) continue;  // no acceptable slot; task waits
    TRACON_DCHECK(state.has_slot(*slot),
                  "MIOS selected an infeasible placement slot");
    predicted_cost += predict(predictor_, objective_, queue[pos].app, *slot);
    state.place(queue[pos].app, *slot);
    out.push_back({pos, *slot});
  }
  record_decisions(*this, ctx.now_s, queue, cluster, out,
                   predictor_, objective_);
  note_round(queue.size(), out.size(), predicted_cost, ctx.now_s);
  return out;
}

}  // namespace tracon::sched
