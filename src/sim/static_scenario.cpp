#include "sim/static_scenario.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "util/error.hpp"

namespace tracon::sim {

namespace {

/// Realized runtime and average IOPS of a task that ran paired with a
/// neighbour until `paired_for` seconds, then alone.
struct Realized {
  double runtime;
  double avg_iops;
};

/// Dynamics of one machine holding tasks `a` and `b` from t=0.
void realize_pair(const PerfTable& t, std::size_t a, std::size_t b,
                  Realized& ra, Realized& rb) {
  double ta = t.runtime(a, b);  // a's completion if b persisted
  double tb = t.runtime(b, a);
  // The faster task completes fully paired.
  if (ta > tb) {
    realize_pair(t, b, a, rb, ra);
    return;
  }
  ra.runtime = ta;
  ra.avg_iops = t.iops(a, b);
  // b ran paired for ta seconds, then solo for the remaining work.
  double paired_fraction = ta / tb;
  double solo_tail = (1.0 - paired_fraction) * t.solo_runtime(b);
  rb.runtime = ta + solo_tail;
  rb.avg_iops = (t.iops(b, a) * ta + t.solo_iops(b) * solo_tail) /
                rb.runtime;
}

}  // namespace

StaticOutcome run_static(const PerfTable& table, sched::Scheduler& scheduler,
                         std::span<const std::size_t> task_apps,
                         std::size_t machines) {
  TRACON_REQUIRE(machines > 0, "need at least one machine");
  TRACON_REQUIRE(task_apps.size() <= 2 * machines,
                 "more tasks than VM slots");
  const std::size_t n = table.num_apps();

  std::vector<sched::QueuedTask> queue;
  queue.reserve(task_apps.size());
  for (std::size_t app : task_apps) {
    TRACON_REQUIRE(app < n, "task app index out of range");
    queue.push_back({app, 0.0});
  }

  // Let the scheduler place the whole batch; loop until it makes no
  // further progress (a batch scheduler may need several rounds).
  sched::ClusterCounts counts(n, machines);
  // Concrete machine assignment mirrors the class-level decisions.
  struct Machine {
    std::optional<std::size_t> a, b;
  };
  std::vector<Machine> fleet(machines);
  std::vector<std::size_t> empty_stack;   // machine ids with both slots free
  std::vector<std::vector<std::size_t>> half_stack(n);
  for (std::size_t m = 0; m < machines; ++m)
    empty_stack.push_back(machines - 1 - m);

  sched::ScheduleContext ctx;
  ctx.now_s = 1e9;  // static batches are "overdue": timeouts always fire

  std::vector<char> placed(queue.size(), 0);
  bool progressed = true;
  while (progressed) {
    // Compact view of still-waiting tasks.
    std::vector<sched::QueuedTask> waiting;
    std::vector<std::size_t> waiting_pos;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      if (!placed[i]) {
        waiting.push_back(queue[i]);
        waiting_pos.push_back(i);
      }
    }
    if (waiting.empty() || !counts.any_free()) break;

    auto placements = scheduler.schedule(waiting, counts, ctx);
    progressed = !placements.empty();
    for (const auto& p : placements) {
      TRACON_ASSERT(p.queue_pos < waiting.size(), "bad placement position");
      std::size_t orig = waiting_pos[p.queue_pos];
      TRACON_ASSERT(!placed[orig], "double placement");
      std::size_t app = queue[orig].app;
      counts.place(app, p.neighbour);
      placed[orig] = 1;
      if (!p.neighbour.has_value()) {
        TRACON_ASSERT(!empty_stack.empty(), "no empty machine available");
        std::size_t m = empty_stack.back();
        empty_stack.pop_back();
        fleet[m].a = app;
        half_stack[app].push_back(m);
      } else {
        auto& stack = half_stack[*p.neighbour];
        TRACON_ASSERT(!stack.empty(), "no half-busy machine of that class");
        std::size_t m = stack.back();
        stack.pop_back();
        fleet[m].b = app;
      }
    }
  }

  StaticOutcome out;
  out.tasks = task_apps.size();
  for (std::size_t i = 0; i < queue.size(); ++i)
    if (!placed[i]) ++out.unplaced;

  for (const Machine& m : fleet) {
    if (m.a.has_value() && m.b.has_value()) {
      Realized ra{}, rb{};
      realize_pair(table, *m.a, *m.b, ra, rb);
      out.total_runtime += ra.runtime + rb.runtime;
      out.total_iops += ra.avg_iops + rb.avg_iops;
    } else if (m.a.has_value()) {
      out.total_runtime += table.solo_runtime(*m.a);
      out.total_iops += table.solo_iops(*m.a);
    }
  }
  return out;
}

}  // namespace tracon::sim
