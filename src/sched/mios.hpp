// Minimum Interference Online Scheduler (MIOS), Algorithm 1.
//
// When a task arrives, MIOS predicts its performance on every available
// VM class and dispatches it immediately to the best one (minimum
// completion time heuristic). Lowest scheduling overhead of the three
// TRACON schedulers.
#pragma once

#include "sched/candidate_index.hpp"
#include "sched/predictor.hpp"
#include "sched/scheduler.hpp"

namespace tracon::sched {

/// True when placing `task` next to a running app of class `neighbour`
/// is predicted to add net progress: the task's own predicted speed
/// minus the slowdown inflicted on the neighbour must exceed the margin.
/// join_test over the four predictions the rule reads.
bool join_beneficial(std::size_t task, std::size_t neighbour,
                     const Predictor& predictor, Objective objective,
                     double margin);

/// Core of Algorithm 1, shared with MIBS/MIX: the best available slot
/// class for `task` under `objective`, or nullopt when no placement is
/// allowed (cluster full, or every join fails the beneficial-join
/// policy). Ties break toward the idle neighbour, then the lowest
/// class. With `exclude_empty`, empty machines are only used as a last
/// resort — MIBS uses this for candidate 2 when the batch cannot fit on
/// empty machines anyway, so that the chosen partner actually
/// co-locates. A non-null `index` answers through its sorted candidate
/// lists (bit-identical placements; see candidate_index.hpp) and must
/// be built over `predictor` for `objective`. nullptr selects the flat
/// candidate scan, the reference implementation.
std::optional<std::optional<std::size_t>> mios_best_slot(
    std::size_t task, const ClusterCounts& cluster,
    const Predictor& predictor, Objective objective,
    const PlacementPolicy& policy = {}, bool exclude_empty = false,
    const CandidateIndex* index = nullptr);

class MiosScheduler final : public Scheduler {
 public:
  /// Builds the scheduler's candidate index over `predictor` and
  /// `objective`; `predictor` must outlive the scheduler.
  MiosScheduler(const Predictor& predictor, Objective objective,
                PlacementPolicy policy = {})
      : predictor_(predictor),
        objective_(objective),
        policy_(policy),
        index_(predictor, objective) {
    set_candidate_index(&index_);
  }
  /// The base's index pointer targets this object's own member.
  MiosScheduler(const MiosScheduler&) = delete;
  MiosScheduler& operator=(const MiosScheduler&) = delete;

  std::string name() const override {
    return "MIOS-" + objective_name(objective_);
  }
  bool online() const override { return true; }

  /// Dispatches every queued task it can place, in arrival order.
  std::vector<Placement> schedule(std::span<const QueuedTask> queue,
                                  const ClusterCounts& cluster,
                                  const ScheduleContext& ctx) override;

 private:
  const Predictor& predictor_;
  Objective objective_;
  PlacementPolicy policy_;
  CandidateIndex index_;
};

}  // namespace tracon::sched
