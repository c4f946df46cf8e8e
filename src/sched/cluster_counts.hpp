// Class-level view of the cluster that the schedulers operate on.
//
// With two VMs per physical machine (the paper's configuration) and a
// pairwise interference model, a task's predicted performance on a VM
// depends only on WHICH APPLICATION occupies the machine's other VM —
// not on which concrete machine it is. Schedulers therefore reason over
// occupancy classes: machines with both VMs idle, and machines whose
// other VM runs application `a`. This keeps every scheduling decision
// O(#applications) instead of O(#machines), which is what lets the
// simulation scale to the paper's 10,000-machine experiment, and makes
// hypothetical copies (needed by MIX) a cheap value copy.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace tracon::sched {

/// A placement decision: put the task next to a neighbour of class
/// `neighbour` (nullopt = onto an empty machine).
struct Placement {
  std::size_t queue_pos = 0;                ///< index into the queue snapshot
  std::optional<std::size_t> neighbour;     ///< app class or empty machine
};

class ClusterCounts {
 public:
  ClusterCounts() = default;
  /// `num_apps` distinct application classes, `empty_machines` machines
  /// with both VMs idle.
  ClusterCounts(std::size_t num_apps, std::size_t empty_machines);

  std::size_t num_apps() const { return half_busy_.size(); }
  std::size_t empty_machines() const { return empty_; }
  std::size_t half_busy(std::size_t app) const;

  /// Total free VM slots (2 per empty machine, 1 per half-busy machine).
  std::size_t free_slots() const;
  bool any_free() const { return free_slots() > 0; }

  /// True when a slot of the given class is available.
  bool has_slot(const std::optional<std::size_t>& neighbour) const;

  /// Appends every available slot class in the schedulers' canonical
  /// scan order — the empty-machine slot first (when `include_empty`
  /// and one exists), then each app class with a half-busy machine in
  /// ascending class order. This is the enumeration the flat scan
  /// scores (sched::score_candidates); keeping it here keeps the
  /// candidate order (and thus tie-breaking) in one place.
  void append_candidates(bool include_empty,
                         std::vector<std::optional<std::size_t>>* out) const;

  /// Applies a placement: occupying an empty machine turns it half-busy
  /// (running `task`); occupying a half-busy machine consumes it.
  /// Throws std::invalid_argument when no such slot exists.
  void place(std::size_t task, const std::optional<std::size_t>& neighbour);

  /// Reverse bookkeeping, used by the cluster simulator on completions:
  /// a task of class `app` departed; its machine either becomes empty
  /// (neighbour slot idle) or half-busy running `neighbour`.
  void depart(std::size_t app, const std::optional<std::size_t>& neighbour);

 private:
  std::size_t empty_ = 0;
  std::vector<std::size_t> half_busy_;
};

}  // namespace tracon::sched
