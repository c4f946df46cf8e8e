// The completion heap orders every completion of every run. This
// drives it through random operation sequences beside a std::set of
// (time, slot) pairs, whose order is the heap's contract: earliest
// time first, ties to the lower slot id.
#include "sim/completion_heap.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace tracon::sim {
namespace {

constexpr std::size_t kSlots = 40;

/// A heap and its reference, checked against each other after every
/// operation.
class CheckedHeap {
 public:
  CheckedHeap() : heap_(kSlots), time_(kSlots) {}

  void update(std::size_t id, double time) {
    if (present_(id)) ref_.erase({time_[id], id});
    ref_.insert({time, id});
    time_[id] = time;
    heap_.update(id, time);
    check();
  }

  void remove(std::size_t id) {
    ref_.erase({time_[id], id});
    heap_.remove(id);
    check();
  }

  void pop() {
    ref_.erase(ref_.begin());
    heap_.pop();
    check();
  }

  bool contains(std::size_t id) const { return present_(id); }
  double time(std::size_t id) const { return time_[id]; }
  std::size_t size() const { return ref_.size(); }

 private:
  bool present_(std::size_t id) const {
    return ref_.count({time_[id], id}) > 0;
  }

  void check() const {
    ASSERT_EQ(heap_.size(), ref_.size());
    ASSERT_EQ(heap_.empty(), ref_.empty());
    if (!ref_.empty()) {
      EXPECT_EQ(heap_.top().time, ref_.begin()->first);
      EXPECT_EQ(heap_.top().id, ref_.begin()->second);
    }
    for (std::size_t id = 0; id < kSlots; ++id)
      ASSERT_EQ(heap_.contains(id), present_(id)) << "slot " << id;
  }

  CompletionHeap heap_;
  std::set<std::pair<double, std::size_t>> ref_;
  std::vector<double> time_;  ///< each present slot's time
};

TEST(CompletionHeap, EqualTimesPopTheLowerSlotFirst) {
  CompletionHeap heap(kSlots);
  for (std::size_t id : {7u, 2u, 30u, 5u}) heap.update(id, 1.5);
  heap.update(9, 1.0);
  std::vector<std::size_t> order;
  while (!heap.empty()) {
    order.push_back(heap.top().id);
    heap.pop();
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{9, 2, 5, 7, 30}));
}

TEST(CompletionHeap, RandomOperationsMatchAnOrderedSet) {
  enum Op { kInsert, kEarlier, kLater, kSame, kRemovePresent, kRemoveAbsent,
            kPop, kNumOps };
  std::array<std::size_t, kNumOps> seen{};
  std::mt19937_64 rng(29);
  auto uniform = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Half-second steps over a short range, so times tie often.
  auto step = [&](std::size_t most) {
    return 0.5 * static_cast<double>(1 + uniform(most));
  };
  CheckedHeap heap;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4000; ++i) {
      const std::size_t id = uniform(kSlots);
      switch (uniform(4)) {
        case 0:
        case 1:
          if (!heap.contains(id)) {
            ++seen[kInsert];
            heap.update(id, step(24));
            break;
          }
          switch (uniform(3)) {
            case 0:
              ++seen[kEarlier];
              heap.update(id, heap.time(id) - step(4));
              break;
            case 1:
              ++seen[kLater];
              heap.update(id, heap.time(id) + step(4));
              break;
            default:
              ++seen[kSame];
              heap.update(id, heap.time(id));
          }
          break;
        case 2:
          ++seen[heap.contains(id) ? kRemovePresent : kRemoveAbsent];
          heap.remove(id);
          break;
        default:
          if (heap.size() > 0) {
            ++seen[kPop];
            heap.pop();
          }
      }
      if (HasFatalFailure()) return;
    }
    // Drain to empty; the next round refills it.
    while (heap.size() > 0) heap.pop();
  }
  for (std::size_t op = 0; op < kNumOps; ++op)
    EXPECT_GT(seen[op], 100u) << "operation " << op;
}

}  // namespace
}  // namespace tracon::sim
