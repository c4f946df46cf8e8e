// Candidate index: one sorted candidate list per task, in place of the
// schedulers' flat candidate scan.
//
// ClusterCounts::append_candidates enumerates every free slot class per
// decision, and the flat scan in mios_best_slot re-scores all of them.
// CandidateIndex precomputes, for one objective and once per model
// epoch, each task's n + 1 candidate slots — the empty machine and
// every app class — in one block sorted by (score, canonical rank),
// together with the beneficial-join quantities. A lookup walks the
// task's block to the first entry the live ClusterCounts has a slot
// for and the policy admits, which is EXACTLY the flat scan's
// argmin with first-wins ties in canonical order, so placements are
// byte-identical to the reference path (property-tested across
// schedulers and seeds, and re-checked per decision in paranoid
// builds).
//
// Cost: a decision touches the entries ahead of its answer instead of
// re-predicting every candidate; with every class live that is the
// first entry or two. The index rebuilds its blocks in place when the
// predictor's model epoch advances. Every TRACON scheduler owns one
// over the predictor it scores with (the static table, or a shard's
// own confidence ensemble) and the objective it optimizes, so a
// rebuild — a mutation on a read — never crosses a shard's worker.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sched/cluster_counts.hpp"
#include "sched/predictor.hpp"
#include "sched/scheduler.hpp"

namespace tracon::sched {

class CandidateIndex {
 public:
  /// Indexes placements of `objective` under `predictor`, which is not
  /// owned and must outlive the index.
  CandidateIndex(const Predictor& predictor, Objective objective);

  const Predictor& predictor() const { return predictor_; }
  Objective objective() const { return objective_; }

  /// Indexed equivalent of the mios_best_slot scan: best available slot
  /// class for `task`, or nullopt when no placement is allowed.
  /// Bit-identical to the flat scan, including tie-breaking and the
  /// empty-machine last resort under `exclude_empty`.
  std::optional<std::optional<std::size_t>> best_slot(
      std::size_t task, const ClusterCounts& cluster,
      const PlacementPolicy& policy, bool exclude_empty) const;

  /// Number of epoch-driven rebuilds since construction (0 for an
  /// immutable TablePredictor).
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  /// One precomputed candidate: `rank` is the canonical scan position
  /// (0 = empty machine, a+1 = class a); `join` is the beneficial-join
  /// test of joining class a, unused for the empty machine.
  struct Entry {
    double score = 0.0;
    JoinTest join;
    std::uint32_t rank = 0;
  };

  void sync_epoch() const;
  void rebuild() const;

  const Predictor& predictor_;
  Objective objective_;
  /// One block of num_apps + 1 entries per task, sorted ascending by
  /// (score, rank). Sized once; a rebuild rewrites it in place.
  mutable std::vector<Entry> entries_;
  mutable std::uint64_t epoch_ = 0;
  mutable std::uint64_t rebuilds_ = 0;
};

}  // namespace tracon::sched
