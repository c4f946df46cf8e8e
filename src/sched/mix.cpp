#include "sched/mix.hpp"

#include <limits>

#include "obs/scope_timer.hpp"
#include "sched/decision_probe.hpp"
#include "util/error.hpp"

namespace tracon::sched {

MixScheduler::MixScheduler(const Predictor& predictor, Objective objective,
                           std::size_t queue_limit, double batch_timeout_s,
                           PlacementPolicy policy)
    : predictor_(predictor),
      objective_(objective),
      queue_limit_(queue_limit),
      batch_timeout_s_(batch_timeout_s),
      policy_(policy),
      index_(predictor, objective) {
  TRACON_REQUIRE(queue_limit_ >= 1, "queue limit must be >= 1");
  TRACON_REQUIRE(batch_timeout_s_ >= 0.0, "batch timeout must be >= 0");
  set_candidate_index(&index_);
}

std::string MixScheduler::name() const {
  return "MIX" + std::to_string(queue_limit_) + "-" +
         objective_name(objective_);
}

std::vector<Placement> MixScheduler::schedule(
    std::span<const QueuedTask> queue, const ClusterCounts& cluster,
    const ScheduleContext& ctx) {
  if (!batch_due(queue, cluster, ctx, queue_limit_, batch_timeout_s_))
    return {};
  TRACON_PROF_SCOPE("sched.mix.schedule");
  // Adaptive predictors (the confidence-weighted ensemble) re-derive
  // their blend weights once here, so every rotation in this round is
  // scored under the same weights.
  predictor_.begin_round(ctx.now_s);

  // Every task in the batch window gets a turn as the head
  // (Algorithm 3); the assignment with the best predicted total wins.
  std::size_t window = std::min(queue.size(), queue_limit_);
  std::span<const QueuedTask> batch = queue.first(window);
  std::vector<Placement> best_placements;
  double best_cost = 0.0;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> order(window);
  for (std::size_t head = 0; head < window; ++head) {
    order[0] = head;
    std::size_t w = 1;
    for (std::size_t i = 0; i < window; ++i)
      if (i != head) order[w++] = i;

    BatchOutcome outcome = mibs_batch(batch, order, cluster, predictor_,
                                      objective_, policy_, candidate_index());
    TRACON_DCHECK(outcome.placements.size() <= window,
                  "MIX batch placed more tasks than the window holds");
    if constexpr (kParanoidChecksEnabled) {
      for (const Placement& p : outcome.placements) {
        TRACON_DCHECK(p.queue_pos < window,
                      "MIX placement references a task outside the window");
      }
    }
    if (outcome.placements.empty()) continue;
    // Normalize by placements so rotations that place fewer tasks do not
    // look cheaper on the runtime objective.
    double per_task = objective_ == Objective::kRuntime
                          ? outcome.predicted_runtime
                          : -outcome.predicted_iops;
    double score =
        per_task / static_cast<double>(outcome.placements.size()) -
        // Prefer assignments that place more tasks at equal quality.
        1e-9 * static_cast<double>(outcome.placements.size());
    if (score < best_score) {
      best_score = score;
      best_cost = objective_ == Objective::kRuntime ? outcome.predicted_runtime
                                                    : outcome.predicted_iops;
      best_placements = std::move(outcome.placements);
    }
  }
  record_decisions(telemetry(), name(), ctx.now_s, queue, cluster,
                   best_placements, predictor_, objective_);
  note_round(queue.size(), best_placements.size(), best_cost, ctx.now_s);
  return best_placements;
}

std::optional<double> MixScheduler::next_wakeup(
    std::span<const QueuedTask> queue, const ScheduleContext& ctx) const {
  (void)ctx;
  if (queue.empty() || queue.size() >= queue_limit_) return std::nullopt;
  return queue.front().arrival_s + batch_timeout_s_;
}

}  // namespace tracon::sched
