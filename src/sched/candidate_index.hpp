// Candidate shortlist index: sublinear replacement for the schedulers'
// flat candidate scan.
//
// ClusterCounts::append_candidates enumerates every occupied class per
// decision, and mios_best_slot re-scores all of them. This module
// promotes that flat scan to an index in two steps:
//
//  1. ClassClustering groups the application classes by interference
//     profile — each class's predicted runtime/IOPS rows and columns,
//     standardized per column — with deterministic farthest-point
//     k-means (nearest-centroid assignment, the k-NN matching step of
//     WMM).
//  2. CandidateIndex precomputes, for one objective and once per (task,
//     model epoch), each cluster's candidate classes sorted by (score,
//     canonical rank), together with the beneficial-join quantities.
//     A lookup walks the clusters the live ClusterCounts reports
//     non-empty (cluster representatives first), refines inside each
//     by taking its first available entry, and picks the lexicographic
//     minimum — which is EXACTLY the argmin-with-first-wins-ties of
//     the flat scan, so placements are byte-identical to the exact
//     path (property-tested across schedulers and seeds). Exactness
//     holds for any clustering; the clustering only decides how many
//     entries a lookup touches.
//
// Cost: a decision touches O(active clusters + probed entries) instead
// of O(num_apps); with per-cluster availability maintained by
// ClusterCounts in O(1) per place/depart, exhausted clusters cost
// nothing. The index rebuilds its lists in place when the predictor's
// model epoch advances. Every TRACON scheduler owns one over the
// predictor it scores with (the static table, or a shard's own
// confidence ensemble) and the objective it optimizes, so a rebuild —
// a mutation on a read — never crosses a shard's worker.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sched/cluster_counts.hpp"
#include "sched/predictor.hpp"
#include "sched/scheduler.hpp"

namespace tracon::sched {

/// Interference-profile clustering of the application classes.
class ClassClustering {
 public:
  /// Builds the clustering from the predictor's pairwise tables.
  /// `num_clusters` 0 = auto (~sqrt of the class count).
  static ClassClustering build(const Predictor& predictor,
                               std::size_t num_clusters = 0);

  std::size_t num_apps() const { return cluster_of_.size(); }
  std::size_t num_clusters() const { return num_clusters_; }
  const std::vector<std::size_t>& cluster_of() const { return cluster_of_; }

 private:
  std::vector<std::size_t> cluster_of_;
  std::size_t num_clusters_ = 0;
};

class CandidateIndex {
 public:
  /// Indexes placements of `objective` under `predictor`, which is not
  /// owned and must outlive the index.
  CandidateIndex(const Predictor& predictor, Objective objective,
                 std::size_t num_clusters = 0);

  const ClassClustering& clustering() const { return clustering_; }
  const Predictor& predictor() const { return predictor_; }
  Objective objective() const { return objective_; }

  /// Attaches this index's clustering to a ClusterCounts instance
  /// (required before best_slot can consult it).
  void attach(ClusterCounts* counts) const;

  /// Indexed equivalent of the mios_best_slot scan: best available slot
  /// class for `task`, or nullopt when no placement is allowed.
  /// Requires `cluster` to be clustered with a mapping of this index's
  /// shape. Bit-identical to the exact scan, including tie-breaking and
  /// the empty-machine last resort under `exclude_empty`.
  std::optional<std::optional<std::size_t>> best_slot(
      std::size_t task, const ClusterCounts& cluster,
      const PlacementPolicy& policy, bool exclude_empty) const;

  /// Number of epoch-driven rebuilds since construction (0 for an
  /// immutable TablePredictor).
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  /// One precomputed candidate: `rank` is the canonical scan position
  /// (0 = empty machine, a+1 = class a); the beneficial-join test at
  /// margin m is `join_lhs > m * join_scale` (scale 1 for the runtime
  /// objective), matching the exact path's arithmetic bit for bit.
  struct Entry {
    double score = 0.0;
    double join_lhs = 0.0;
    double join_scale = 1.0;
    std::uint32_t rank = 0;
  };

  void sync_epoch() const;
  void rebuild() const;

  const Predictor& predictor_;
  Objective objective_;
  ClassClustering clustering_;
  /// Position of class a inside a task's block: classes grouped by
  /// cluster, ascending within each.
  std::vector<std::uint32_t> slot_of_;
  /// Cluster c occupies [cluster_start_[c], cluster_start_[c + 1]) of
  /// every task's block; the empty-machine pseudo-cluster (index
  /// num_clusters) is the block's last entry.
  std::vector<std::uint32_t> cluster_start_;
  /// One block of num_apps + 1 entries per task, each cluster's range
  /// sorted ascending by (score, rank). Sized once; a rebuild rewrites
  /// it in place.
  mutable std::vector<Entry> entries_;
  mutable std::uint64_t epoch_ = 0;
  mutable std::uint64_t rebuilds_ = 0;
};

}  // namespace tracon::sched
