// Minimum Interference miXed scheduler (MIX), Algorithm 3.
//
// MIX gives every queued task a chance to be the batch head: it runs
// MIBS hypothetically for each rotation of the queue, keeps the
// assignment with the best predicted objective total, and executes that
// one. Highest potential quality, highest scheduling overhead —
// O(queue^2) MIBS evaluations per batch.
#pragma once

#include "sched/mibs.hpp"

namespace tracon::sched {

class MixScheduler final : public Scheduler {
 public:
  /// Builds the scheduler's candidate index over `predictor` and
  /// `objective`; `predictor` must outlive the scheduler.
  MixScheduler(const Predictor& predictor, Objective objective,
               std::size_t queue_limit = 8, double batch_timeout_s = 60.0,
               PlacementPolicy policy = {});
  /// The base's index pointer targets this object's own member.
  MixScheduler(const MixScheduler&) = delete;
  MixScheduler& operator=(const MixScheduler&) = delete;

  std::string name() const override;

  std::vector<Placement> schedule(std::span<const QueuedTask> queue,
                                  const ClusterCounts& cluster,
                                  const ScheduleContext& ctx) override;

  std::optional<double> next_wakeup(std::span<const QueuedTask> queue,
                                    const ScheduleContext& ctx) const override;

  std::size_t queue_limit() const { return queue_limit_; }

 private:
  const Predictor& predictor_;
  Objective objective_;
  std::size_t queue_limit_;
  double batch_timeout_s_;
  PlacementPolicy policy_;
  CandidateIndex index_;
};

}  // namespace tracon::sched
