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
//
// Stamp windows cut that order into pieces that merge independently.
// Window j holds each part's records with stamp in [b_j, b_{j+1}),
// found by a binary search per part. A window's records all precede the
// next window's, and equal stamps never straddle a cut, so merging each
// window's ranges and concatenating the windows in order is the merged
// order of the whole parts: the merged-log writers format windows on a
// worker pool (obs::write_merged) and write the same bytes as one
// serial merge.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/error.hpp"

namespace tracon {

/// The records [begin, end) of one part.
struct PartRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Visits every record of `ranges.size()` parts' ranges in (stamp, part,
/// record) order. `stamp(p, i)` is the stamp of part p's record i, which
/// must not decrease with i (checked over each range in paranoid
/// builds), and `visit(p, i)` is called once per record.
template <typename Stamp, typename Visit>
void merge_by_stamp(const std::vector<PartRange>& ranges, Stamp&& stamp,
                    Visit&& visit) {
  if constexpr (kParanoidChecksEnabled) {
    for (std::size_t p = 0; p < ranges.size(); ++p)
      for (std::size_t i = ranges[p].begin + 1; i < ranges[p].end; ++i)
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
  heap.reserve(ranges.size());
  std::vector<std::size_t> next(ranges.size(), 0);
  for (std::size_t p = 0; p < ranges.size(); ++p) {
    next[p] = ranges[p].begin;
    if (ranges[p].begin < ranges[p].end)
      heap.push_back({stamp(p, ranges[p].begin), p});
  }
  std::make_heap(heap.begin(), heap.end(), after);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const std::size_t p = heap.back().part;
    heap.pop_back();
    std::size_t i = next[p];
    for (;;) {
      visit(p, i);
      if (++i == ranges[p].end) break;
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

/// The cuts b_1 < ... < b_k that split the merged order of parts of
/// `sizes[p]` records into k + 1 stamp windows of about `records`
/// records each. Every part offers every `stride`-th stamp, stride =
/// max(1, records / parts), and every (records / stride)-th of those
/// offers, in stamp order, becomes a cut: the parts' offers interleave,
/// so the cuts follow the merged order even when the parts run in step
/// (each part's own every `records`-th stamp would bunch the cuts
/// together). A window holds at most records + parts * stride records
/// (about twice `records`), plus those that share its lower cut's
/// stamp. Checks in paranoid builds that every part is ordered by its
/// stamp.
template <typename Stamp>
std::vector<double> stamp_cuts(const std::vector<std::size_t>& sizes,
                               Stamp&& stamp, std::size_t records) {
  TRACON_REQUIRE(records > 0, "a stamp window needs at least one record");
  if constexpr (kParanoidChecksEnabled) {
    for (std::size_t p = 0; p < sizes.size(); ++p)
      for (std::size_t i = 1; i < sizes[p]; ++i)
        TRACON_DCHECK(!(stamp(p, i) < stamp(p, i - 1)),
                      "a merged part must be ordered by its stamp");
  }
  const std::size_t parts = std::max<std::size_t>(1, sizes.size());
  const std::size_t stride = std::max<std::size_t>(1, records / parts);
  std::vector<double> offers;
  for (std::size_t p = 0; p < sizes.size(); ++p)
    for (std::size_t i = stride; i < sizes[p]; i += stride)
      offers.push_back(stamp(p, i));
  std::sort(offers.begin(), offers.end());
  const std::size_t every = std::max<std::size_t>(1, records / stride);
  std::vector<double> cuts;
  for (std::size_t k = every - 1; k < offers.size(); k += every)
    if (cuts.empty() || cuts.back() < offers[k]) cuts.push_back(offers[k]);
  return cuts;
}

/// Window `w` (0 ..= cuts.size()) of `cuts`: each part's records with
/// stamp in [cuts[w - 1], cuts[w]), the first window unbounded below and
/// the last above.
template <typename Stamp>
std::vector<PartRange> stamp_window(const std::vector<std::size_t>& sizes,
                                    Stamp&& stamp,
                                    const std::vector<double>& cuts,
                                    std::size_t w) {
  // The first record of part p at or after stamp `cut`.
  auto first_at = [&](std::size_t p, double cut) {
    std::size_t lo = 0;
    std::size_t hi = sizes[p];
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (stamp(p, mid) < cut) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  std::vector<PartRange> ranges(sizes.size());
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    ranges[p].begin = w == 0 ? 0 : first_at(p, cuts[w - 1]);
    ranges[p].end = w == cuts.size() ? sizes[p] : first_at(p, cuts[w]);
  }
  return ranges;
}

}  // namespace tracon
