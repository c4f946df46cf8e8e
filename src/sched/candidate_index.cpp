#include "sched/candidate_index.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace tracon::sched {

CandidateIndex::CandidateIndex(const Predictor& predictor,
                               Objective objective)
    : predictor_(predictor), objective_(objective) {
  const std::size_t n = predictor.num_apps();
  TRACON_REQUIRE(n > 0, "the candidate index needs at least one app class");
  TRACON_REQUIRE(n < std::numeric_limits<std::uint32_t>::max(),
                 "too many application classes for the candidate index");
  entries_.resize(n * (n + 1));
  epoch_ = predictor_.model_epoch();
  rebuild();
}

void CandidateIndex::sync_epoch() const {
  const std::uint64_t e = predictor_.model_epoch();
  if (e == epoch_) return;
  epoch_ = e;
  ++rebuilds_;
  rebuild();
}

void CandidateIndex::rebuild() const {
  const std::size_t n = predictor_.num_apps();
  const std::size_t row = n + 1;
  const bool runtime = objective_ == Objective::kRuntime;
  // The objective's whole table for the epoch, task-major with the idle
  // neighbour last in each row.
  std::vector<double> p(n * row);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t b = 0; b < row; ++b) {
      const std::optional<std::size_t> neighbour =
          b < n ? std::optional<std::size_t>{b} : std::nullopt;
      p[t * row + b] = runtime ? predictor_.predict_runtime(t, neighbour)
                               : predictor_.predict_iops(t, neighbour);
    }
  }

  for (std::size_t t = 0; t < n; ++t) {
    Entry* block = &entries_[t * row];
    const double t_solo = p[t * row + n];
    // The IOPS objective maximizes, so its score is the negated
    // prediction.
    block[0] = {runtime ? t_solo : -t_solo, JoinTest{}, 0};
    for (std::size_t a = 0; a < n; ++a) {
      const double t_pair = p[t * row + a];  // the task next to a
      block[a + 1] = {runtime ? t_pair : -t_pair,
                      join_test(objective_, t_solo, t_pair,
                                /*n_solo=*/p[a * row + n],
                                /*n_pair=*/p[a * row + t]),
                      static_cast<std::uint32_t>(a + 1)};
    }
    std::sort(block, block + row, [](const Entry& x, const Entry& y) {
      return x.score < y.score || (x.score == y.score && x.rank < y.rank);
    });
  }
}

std::optional<std::optional<std::size_t>> CandidateIndex::best_slot(
    std::size_t task, const ClusterCounts& cluster,
    const PlacementPolicy& policy, bool exclude_empty) const {
  using Slot = std::optional<std::optional<std::size_t>>;
  sync_epoch();
  const std::size_t n = predictor_.num_apps();
  TRACON_REQUIRE(task < n, "task class out of range");
  TRACON_REQUIRE(cluster.num_apps() == n,
                 "the cluster view and the candidate index disagree on "
                 "the application set");
  // The block is sorted by (score, rank), so its first available and
  // admissible entry is the flat scan's argmin with first-wins ties in
  // canonical order.
  const Entry* const block = &entries_[task * (n + 1)];
  for (const Entry* e = block; e != block + n + 1; ++e) {
    if (e->rank == 0) {
      if (exclude_empty || cluster.empty_machines() == 0) continue;
      return Slot{std::in_place};
    }
    const std::size_t neighbour = e->rank - 1;
    if (cluster.half_busy(neighbour) == 0) continue;
    if (policy.beneficial_joins_only &&
        !e->join.beneficial(policy.join_margin))
      continue;
    return Slot{std::in_place, neighbour};
  }
  // Last resort: no occupied machine offers a beneficial join.
  if (exclude_empty && cluster.has_slot(std::nullopt))
    return Slot{std::in_place};
  return std::nullopt;
}

}  // namespace tracon::sched
