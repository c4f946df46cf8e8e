#include "obs/breakdown.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/error.hpp"

namespace tracon::obs {

namespace {

// Folds one span into the per-kind component split documented in
// span_log.hpp. Each span's contributions sum to its duration exactly
// (up to floating-point rounding), which is what makes the per-task
// components tile the end-to-end latency.
void fold_span(const SpanEvent& e, TaskBreakdown* row) {
  const double d = e.t1_s - e.t0_s;
  switch (e.kind) {
    case SpanEvent::Kind::kQueued:
      row->wait_s += d;
      break;
    case SpanEvent::Kind::kRunning:
      row->solo_s += d * e.factor;
      row->interference_s += d * (1.0 - e.factor);
      break;
    case SpanEvent::Kind::kMigrationCopy:
      row->solo_s += d * e.factor * e.copy_factor;
      row->interference_s += d * (1.0 - e.factor);
      row->migration_s += d * e.factor * (1.0 - e.copy_factor);
      break;
    case SpanEvent::Kind::kMigrationFreeze:
      row->migration_s += d;
      break;
    case SpanEvent::Kind::kCompleted:
      row->completed = true;
      row->solo_runtime_s = e.solo_runtime_s;
      break;
  }
}

void fold_cell(const TaskBreakdown& row, BreakdownCell* cell) {
  cell->tasks += 1;
  cell->wait_s += row.wait_s;
  cell->solo_s += row.solo_s;
  cell->interference_s += row.interference_s;
  cell->migration_s += row.migration_s;
}

}  // namespace

BreakdownReport breakdown(const SpanDoc& doc, double window_s) {
  // Group spans per task. A sharded log is merged on span start, a
  // 1-shard log is in record order, and either way each task's spans
  // are in chronological order, which the grouping keeps.
  std::map<std::uint64_t, std::vector<const SpanEvent*>> by_task;
  for (const SpanEvent& e : doc.events) by_task[e.task].push_back(&e);

  BreakdownReport report;
  report.window_s = window_s;
  for (const auto& [task, spans] : by_task) {
    TaskBreakdown row;
    row.task = task;
    row.app = spans.front()->app;
    row.enqueue_s = spans.front()->t0_s;
    row.complete_s = spans.back()->t1_s;
    row.start_s = row.complete_s;
    double cursor = row.enqueue_s;
    for (const SpanEvent* e : spans) {
      if (row.completed) {
        throw std::invalid_argument("span log task " + std::to_string(task) +
                                    " has a span after its completed marker");
      }
      if (e->t0_s != cursor) {
        throw std::invalid_argument("span log task " + std::to_string(task) +
                                    " spans do not tile (gap or overlap)");
      }
      cursor = e->t1_s;
      if (e->kind != SpanEvent::Kind::kQueued &&
          e->kind != SpanEvent::Kind::kCompleted &&
          row.machine == SpanEvent::kNoMachine) {
        row.machine = e->machine;
        row.start_s = e->t0_s;
      }
      fold_span(*e, &row);
    }
    if (!row.completed) {
      report.incomplete += 1;
      continue;
    }
    const double accounted =
        row.wait_s + row.solo_s + row.interference_s + row.migration_s;
    if (std::abs(accounted - row.end_to_end_s()) > 1e-9) {
      throw std::invalid_argument(
          "span log task " + std::to_string(task) +
          " components do not sum to its end-to-end latency within 1e-9");
    }
    fold_cell(row, &report.total);
    fold_cell(row, &report.by_app[row.app]);
    if (window_s > 0.0) {
      const double window = row.complete_s / window_s;
      // 0x1p64 is the first index a uint64_t cannot hold.
      TRACON_REQUIRE(window >= 0.0 && window < 0x1p64,
                     "breakdown window index must fit in uint64_t; the "
                     "window is too small for this run");
      fold_cell(row, &report.by_window[static_cast<std::uint64_t>(window)]);
    }
    report.rows.push_back(row);
  }
  return report;
}

std::vector<CriticalPathEntry> critical_path(const SpanDoc& doc) {
  const BreakdownReport report = breakdown(doc);
  if (report.rows.empty()) return {};

  // The makespan-defining task: latest completion, lowest id on ties.
  const TaskBreakdown* cur = &report.rows.front();
  for (const TaskBreakdown& row : report.rows) {
    if (row.complete_s > cur->complete_s) cur = &row;
  }

  std::vector<CriticalPathEntry> path;
  for (std::size_t guard = 0; guard <= report.rows.size(); ++guard) {
    path.push_back({cur->task, cur->app, cur->machine, cur->enqueue_s,
                    cur->start_s, cur->complete_s, cur->wait_s});
    if (cur->wait_s <= 0.0 || cur->machine == SpanEvent::kNoMachine) break;
    // The task waited: the slot it got was held until shortly before
    // its placement. Chain through the latest completion on the same
    // machine that precedes the placement.
    const TaskBreakdown* pred = nullptr;
    for (const TaskBreakdown& row : report.rows) {
      if (row.machine != cur->machine || row.task == cur->task) continue;
      if (row.complete_s > cur->start_s) continue;
      if (pred == nullptr || row.complete_s > pred->complete_s) pred = &row;
    }
    if (pred == nullptr) break;
    cur = pred;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace tracon::obs
