#include "sched/cluster_counts.hpp"

#include "util/error.hpp"

namespace tracon::sched {

ClusterCounts::ClusterCounts(std::size_t num_apps, std::size_t empty_machines)
    : empty_(empty_machines), half_busy_(num_apps, 0) {
  TRACON_REQUIRE(num_apps > 0, "cluster needs at least one app class");
}

std::size_t ClusterCounts::half_busy(std::size_t app) const {
  TRACON_REQUIRE(app < half_busy_.size(), "app class out of range");
  return half_busy_[app];
}

std::size_t ClusterCounts::free_slots() const {
  std::size_t s = 2 * empty_;
  for (std::size_t c : half_busy_) s += c;
  return s;
}

bool ClusterCounts::has_slot(
    const std::optional<std::size_t>& neighbour) const {
  if (!neighbour.has_value()) return empty_ > 0;
  return half_busy(*neighbour) > 0;
}

void ClusterCounts::append_candidates(
    bool include_empty, std::vector<std::optional<std::size_t>>* out) const {
  TRACON_REQUIRE(out != nullptr, "candidate output vector must be non-null");
  if (include_empty && empty_ > 0) out->push_back(std::nullopt);
  for (std::size_t a = 0; a < half_busy_.size(); ++a)
    if (half_busy_[a] > 0) out->push_back(a);
}

void ClusterCounts::place(std::size_t task,
                          const std::optional<std::size_t>& neighbour) {
  TRACON_REQUIRE(task < half_busy_.size(), "task class out of range");
  TRACON_REQUIRE(has_slot(neighbour), "no slot of the requested class");
  if (!neighbour.has_value()) {
    --empty_;
    ++half_busy_[task];  // machine now half-busy running `task`
  } else {
    --half_busy_[*neighbour];  // machine now full
  }
}

void ClusterCounts::depart(std::size_t app,
                           const std::optional<std::size_t>& neighbour) {
  TRACON_REQUIRE(app < half_busy_.size(), "app class out of range");
  if (!neighbour.has_value()) {
    // The departing task was alone on its machine.
    TRACON_REQUIRE(half_busy_[app] > 0, "no half-busy machine to vacate");
    --half_busy_[app];
    ++empty_;
  } else {
    // Its machine keeps running the neighbour and becomes half-busy.
    TRACON_REQUIRE(*neighbour < half_busy_.size(),
                   "neighbour class out of range");
    ++half_busy_[*neighbour];
  }
}

}  // namespace tracon::sched
