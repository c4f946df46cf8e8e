// FIFO baseline scheduler (Section 3.2): tasks are allocated to virtual
// machines in first-in first-out order, oblivious to interference. The
// target VM among the free ones is drawn uniformly (seeded), modelling a
// next-available allocation on a homogeneous cluster.
#pragma once

#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace tracon::sched {

class FifoScheduler final : public Scheduler {
 public:
  explicit FifoScheduler(std::uint64_t seed = 1) : rng_(seed) {}

  std::string name() const override { return "FIFO"; }
  bool online() const override { return true; }

  std::vector<Placement> schedule(std::span<const QueuedTask> queue,
                                  const ClusterCounts& cluster,
                                  const ScheduleContext& ctx) override;

 private:
  Rng rng_;
  ClusterCounts state_;  ///< a placing round's view, reused across rounds
};

}  // namespace tracon::sched
