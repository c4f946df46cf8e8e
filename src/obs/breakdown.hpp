// Latency accounting: decomposes every task's end-to-end latency into
// wait + solo runtime + interference penalty + migration overhead from
// the span log, using the per-kind arithmetic fixed in span_log.hpp —
// the four components tile [enqueue, complete] exactly (within
// floating-point rounding; breakdown() enforces 1e-9). On top of the
// per-task rows it aggregates overall, per app class, and per
// completion-time window, and extracts the makespan critical path: the
// chain of task spans and host busy intervals that bounds the last
// completion.
//
// Everything here is a pure function of the parsed SpanDoc: maps
// iterate in key order and ties break on task id, so the same log
// always yields the same report — `tracon breakdown --json` is
// byte-deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/span_log.hpp"

namespace tracon::obs {

/// Where one task's seconds went. end_to_end() is the span chain's
/// extent; the four components sum to it by construction.
struct TaskBreakdown {
  std::uint64_t task = 0;
  std::size_t app = 0;
  double enqueue_s = 0.0;   ///< first span's start (arrival acceptance)
  double complete_s = 0.0;  ///< last span's end
  bool completed = false;   ///< has a `completed` marker
  double wait_s = 0.0;
  double solo_s = 0.0;
  double interference_s = 0.0;
  double migration_s = 0.0;
  double solo_runtime_s = 0.0;  ///< reference, from the completed marker
  /// Machine of the first running span (where the task was placed).
  std::size_t machine = SpanEvent::kNoMachine;
  /// Start of the first non-queued span; equals complete_s for tasks
  /// that never left the queue.
  double start_s = 0.0;

  double end_to_end_s() const { return complete_s - enqueue_s; }
};

/// Component sums over a set of tasks.
struct BreakdownCell {
  std::uint64_t tasks = 0;
  double wait_s = 0.0;
  double solo_s = 0.0;
  double interference_s = 0.0;
  double migration_s = 0.0;

  double end_to_end_s() const {
    return wait_s + solo_s + interference_s + migration_s;
  }
};

struct BreakdownReport {
  /// Per-task rows for *completed* tasks, task id ascending.
  std::vector<TaskBreakdown> rows;
  /// Tasks with spans but no completed marker (still queued/running at
  /// the horizon); excluded from all aggregates.
  std::uint64_t incomplete = 0;
  BreakdownCell total;
  std::map<std::size_t, BreakdownCell> by_app;
  /// Completion-time windows (index -> cell), window i covering
  /// [i * window_s, (i+1) * window_s). Empty when window_s == 0.
  std::map<std::uint64_t, BreakdownCell> by_window;
  double window_s = 0.0;
};

/// Builds the report. `window_s > 0` adds the per-window aggregation.
/// Throws std::invalid_argument when a task's spans do not form a
/// contiguous chain (a gap, an overlap, or a span after the completed
/// marker), or when a completed task's four components miss its
/// end-to-end latency by more than 1e-9.
BreakdownReport breakdown(const SpanDoc& doc, double window_s = 0.0);

/// One link of the makespan critical path.
struct CriticalPathEntry {
  std::uint64_t task = 0;
  std::size_t app = 0;
  std::size_t machine = SpanEvent::kNoMachine;
  double enqueue_s = 0.0;
  double start_s = 0.0;
  double complete_s = 0.0;
  double wait_s = 0.0;
};

/// Walks back from the last completion: while the current task waited
/// in queue, the chain continues from the task on its placement
/// machine whose completion most recently preceded the placement (the
/// busy interval that held the slot). Stops at an arrival-bound task
/// (zero wait) or when no predecessor exists. Entries are returned in
/// chronological order, the makespan-defining task last.
std::vector<CriticalPathEntry> critical_path(const SpanDoc& doc);

}  // namespace tracon::obs
