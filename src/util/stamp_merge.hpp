// K-way merge of record streams that are each already ordered by a
// stamp (a virtual time): the sharded runner's one merge routine for
// per-shard record streams.
//
// The merged order is (stamp, part, record): exactly the order that
// concatenating the parts in part order and stable-sorting on the stamp
// produces, reached without copying or sorting a record. A heap holds
// each part's next stamp; the part on top keeps emitting for as long as
// its records stay ahead of every other part's, so a run of records
// costs one heap operation, not one per record.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace tracon {

/// Visits every record of `sizes.size()` parts in (stamp, part, record)
/// order. `sizes[p]` is part p's record count, `stamp(p, i)` the stamp
/// of its record i, which must not decrease with i (checked in paranoid
/// builds), and `visit(p, i)` is called once per record.
template <typename Stamp, typename Visit>
void merge_by_stamp(const std::vector<std::size_t>& sizes, Stamp&& stamp,
                    Visit&& visit) {
  if constexpr (kParanoidChecksEnabled) {
    for (std::size_t p = 0; p < sizes.size(); ++p)
      for (std::size_t i = 1; i < sizes[p]; ++i)
        TRACON_DCHECK(!(stamp(p, i) < stamp(p, i - 1)),
                      "a merged part must be ordered by its stamp");
  }
  struct Head {
    double stamp;
    std::size_t part;
  };
  // True when `a` comes after `b`: makes the std heap a min-heap on
  // (stamp, part).
  auto after = [](const Head& a, const Head& b) {
    return b.stamp < a.stamp || (!(a.stamp < b.stamp) && b.part < a.part);
  };
  std::vector<Head> heap;
  heap.reserve(sizes.size());
  for (std::size_t p = 0; p < sizes.size(); ++p)
    if (sizes[p] > 0) heap.push_back({stamp(p, std::size_t{0}), p});
  std::make_heap(heap.begin(), heap.end(), after);
  std::vector<std::size_t> next(sizes.size(), 0);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const std::size_t p = heap.back().part;
    heap.pop_back();
    std::size_t i = next[p];
    for (;;) {
      visit(p, i);
      if (++i == sizes[p]) break;
      const Head head{stamp(p, i), p};
      if (!heap.empty() && after(head, heap.front())) {
        heap.push_back(head);
        std::push_heap(heap.begin(), heap.end(), after);
        break;
      }
    }
    next[p] = i;
  }
}

}  // namespace tracon
