// Minimum Interference Batch Scheduler (MIBS), Algorithm 2.
//
// Based on the Min-Min heuristic: take the first queued task, place it
// with MIOS, then pick the queued task with the least predicted
// interference against it (the two "Min"s) and place that one too;
// repeat until the queue or the cluster is exhausted. The batch is
// processed when the queue reaches its configured length; a timeout
// guards against starvation at low arrival rates (the paper notes that
// at low lambda every scheduler finds idle machines; see DESIGN.md).
#pragma once

#include "sched/mios.hpp"
#include "sched/predictor.hpp"
#include "sched/scheduler.hpp"

namespace tracon::sched {

/// Outcome of one batch round, including the predicted objective totals
/// MIX uses to compare candidate assignments.
struct BatchOutcome {
  std::vector<Placement> placements;
  double predicted_runtime = 0.0;  ///< sum of predicted runtimes
  double predicted_iops = 0.0;     ///< sum of predicted IOPS
};

/// Runs Algorithm 2 over the queue snapshot in the given order.
/// `order` holds queue positions; placements refer to those positions.
/// A non-null `index` answers the per-task slot scans through its
/// sorted candidate lists (bit-identical; see candidate_index.hpp).
BatchOutcome mibs_batch(std::span<const QueuedTask> queue,
                        std::span<const std::size_t> order,
                        const ClusterCounts& cluster,
                        const Predictor& predictor, Objective objective,
                        const PlacementPolicy& policy = {},
                        const CandidateIndex* index = nullptr);

/// Batch trigger shared by MIBS and MIX: process when the queue reached
/// the configured length, when the head task has waited out the timeout,
/// or when every queued task could take its own empty machine (waiting
/// for a fuller batch cannot improve pairing then — this is what keeps
/// the batch schedulers on par with MIOS at low arrival rates, as the
/// paper observes in Fig 9).
bool batch_due(std::span<const QueuedTask> queue, const ClusterCounts& cluster,
               const ScheduleContext& ctx, std::size_t queue_limit,
               double batch_timeout_s);

class MibsScheduler final : public Scheduler {
 public:
  /// Builds the scheduler's candidate index over `predictor` and
  /// `objective`; `predictor` must outlive the scheduler.
  MibsScheduler(const Predictor& predictor, Objective objective,
                std::size_t queue_limit = 8, double batch_timeout_s = 60.0,
                PlacementPolicy policy = {});
  /// The base's index pointer targets this object's own member.
  MibsScheduler(const MibsScheduler&) = delete;
  MibsScheduler& operator=(const MibsScheduler&) = delete;

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
