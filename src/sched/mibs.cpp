#include "sched/mibs.hpp"

#include <algorithm>
#include <limits>

#include "obs/scope_timer.hpp"
#include "sched/decision_probe.hpp"
#include "sched/mios.hpp"
#include "util/error.hpp"

namespace tracon::sched {

BatchOutcome mibs_batch(std::span<const QueuedTask> queue,
                        std::span<const std::size_t> order,
                        const ClusterCounts& cluster,
                        const Predictor& predictor, Objective objective,
                        const PlacementPolicy& policy,
                        const CandidateIndex* index) {
  BatchOutcome out;
  ClusterCounts state = cluster;
  std::vector<std::size_t> pending(order.begin(), order.end());

  auto place = [&](std::size_t pos,
                   const std::optional<std::size_t>& neighbour) {
    TRACON_DCHECK(pos < queue.size(), "placement references a task outside "
                                      "the batch window");
    TRACON_DCHECK(state.has_slot(neighbour),
                  "MIBS selected an infeasible placement slot");
    state.place(queue[pos].app, neighbour);
    out.placements.push_back({pos, neighbour});
    out.predicted_runtime +=
        predictor.predict_runtime(queue[pos].app, neighbour);
    out.predicted_iops += predictor.predict_iops(queue[pos].app, neighbour);
  };

  // Tasks whose every available join fails the beneficial-join policy
  // are skipped (they stay queued for a later batch); `head` walks past
  // them.
  std::size_t head = 0;
  while (head < pending.size() && state.any_free()) {
    // Candidate 1: first (remaining) task of the queue, placed by MIOS.
    std::size_t c1 = pending[head];
    auto slot1 = mios_best_slot(queue[c1].app, state, predictor, objective,
                                policy, /*exclude_empty=*/false, index);
    if (!slot1.has_value()) {
      ++head;
      continue;
    }
    place(c1, *slot1);
    pending.erase(pending.begin() + static_cast<long>(head));
    if (head >= pending.size() || !state.any_free()) continue;

    // Candidate 2: the queued task with the least predicted interference
    // against candidate 1 (the first "Min" of Min-Min), scored exactly
    // as Algorithm 2 writes it: Predict(t_i, t_1, Model); first wins
    // ties.
    std::size_t best_i = head;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t i = head; i < pending.size(); ++i) {
      const std::size_t app = queue[pending[i]].app;
      double s = objective == Objective::kRuntime
                     ? predictor.predict_runtime(app, queue[c1].app)
                     : -predictor.predict_iops(app, queue[c1].app);
      if (s < best_score) {
        best_score = s;
        best_i = i;
      }
    }
    // Runtime objective: when the rest of the batch cannot fit on empty
    // machines anyway, some tasks must share -- candidate 2 co-locates
    // now (with candidate 1 or a predicted-better partner) rather than
    // claim an empty machine a later task would double up on. The IOPS
    // objective instead lets I/O-heavy candidates host machines alone as
    // long as spare machines exist; later tasks join their best hosts,
    // which maximizes aggregate throughput (see DESIGN.md).
    std::size_t c2 = pending[best_i];
    bool must_pair = objective == Objective::kRuntime &&
                     state.empty_machines() < pending.size() - head;
    auto slot2 = mios_best_slot(queue[c2].app, state, predictor, objective,
                                policy, must_pair, index);
    if (slot2.has_value()) {
      place(c2, *slot2);
      pending.erase(pending.begin() + static_cast<long>(best_i));
    }
  }
  return out;
}

MibsScheduler::MibsScheduler(const Predictor& predictor, Objective objective,
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

std::string MibsScheduler::name() const {
  return "MIBS" + std::to_string(queue_limit_) + "-" +
         objective_name(objective_);
}

bool batch_due(std::span<const QueuedTask> queue, const ClusterCounts& cluster,
               const ScheduleContext& ctx, std::size_t queue_limit,
               double batch_timeout_s) {
  if (queue.empty()) return false;
  if (queue.size() >= queue_limit) return true;
  if (ctx.now_s - queue.front().arrival_s >= batch_timeout_s) return true;
  return cluster.empty_machines() >= queue.size();
}

std::vector<Placement> MibsScheduler::schedule(
    std::span<const QueuedTask> queue, const ClusterCounts& cluster,
    const ScheduleContext& ctx) {
  if (!batch_due(queue, cluster, ctx, queue_limit_, batch_timeout_s_))
    return {};
  TRACON_PROF_SCOPE("sched.mibs.schedule");

  // The batch window is the queue the paper parameterizes (MIBS_8 holds
  // eight tasks); later arrivals wait for the next round.
  std::size_t window = std::min(queue.size(), queue_limit_);
  std::vector<std::size_t> order(window);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  BatchOutcome outcome = mibs_batch(queue.first(window), order, cluster,
                                    predictor_, objective_, policy_,
                                    candidate_index());
  record_decisions(*this, ctx.now_s, queue, cluster,
                   outcome.placements, predictor_, objective_);
  note_round(queue.size(), outcome.placements.size(),
             objective_ == Objective::kRuntime ? outcome.predicted_runtime
                                               : outcome.predicted_iops,
             ctx.now_s);
  return std::move(outcome.placements);
}

std::optional<double> MibsScheduler::next_wakeup(
    std::span<const QueuedTask> queue, const ScheduleContext& ctx) const {
  (void)ctx;
  if (queue.empty() || queue.size() >= queue_limit_) return std::nullopt;
  return queue.front().arrival_s + batch_timeout_s_;
}

}  // namespace tracon::sched
