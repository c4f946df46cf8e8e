// Typed simulation event tracing with virtual-clock timestamps.
//
// The tracer records plain-old-data events (no allocation per event
// beyond vector growth) and exports four machine-readable views:
//   - Chrome trace_event JSON, loadable in chrome://tracing and
//     Perfetto (task lifetimes become duration slices per machine,
//     control-plane events become instants);
//   - one JSON object per line (JSONL) for ad-hoc scripting;
//   - the per-task event log, as CSV or as `tracon.task_events` JSONL:
//     the stream filtered to its four kTask* kinds.
//
// Timestamps are SIMULATED seconds — never wall clock — so two runs
// with the same seed export byte-identical traces. The tracer is
// disabled by default; a disabled tracer's record() is a branch and a
// return, with zero allocations (tested in test_tracer.cpp).
//
// The sharded runner moves each shard's events into the caller's tracer
// as a part (append_part), as it does the decision and span logs'
// records; every writer merges the parts once, on (time, shard), in
// stamp windows (util/stamp_merge.hpp) that the run's worker pool
// formats through obs::JsonlBuffer and obs::write_merged writes in
// window order. An event's text depends on that event alone (the Chrome
// trace's ",\n" separator opens each event; the header and footer are
// written around the events), so the bytes do not depend on the worker
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace tracon::obs {

enum class TraceEventKind : std::uint8_t {
  kTaskArrival,    ///< app; count = queue length after enqueue
  kTaskDropped,    ///< app; queue was at capacity
  kTaskPlaced,     ///< app, machine; value = predicted runtime (if probed)
  kTaskCompleted,  ///< app, machine; value = realized runtime, value2 = IOPS
  kVmStart,        ///< machine left the empty state
  kVmStop,         ///< machine returned to the empty state
  kSchedDecision,  ///< count = queue length, value = predicted cost of the
                   ///< chosen placements, value2 = number placed
  kModelRetrain,   ///< count = training-window size
  kModelDrift,     ///< count = drift kind (1 mean shift, 2 variance surge)
};

/// Dotted snake_case event name ("sim.task.arrival", "sched.decision").
std::string_view trace_event_kind_name(TraceEventKind kind);

struct TraceEvent {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  double time_s = 0.0;  ///< virtual clock
  TraceEventKind kind = TraceEventKind::kTaskArrival;
  std::size_t app = kNone;      ///< application class, when applicable
  std::size_t machine = kNone;  ///< machine index, when applicable
  std::size_t count = 0;        ///< kind-specific cardinality
  double value = 0.0;           ///< kind-specific payload (see kind docs)
  double value2 = 0.0;
};

class EventTracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Caps the number of recorded events; records past the cap are
  /// counted in dropped() instead of stored. Long instrumented runs
  /// (e.g. the bench sidecar) use this to bound trace-file size. A
  /// capped tracer takes no merge parts. Default: no cap.
  void set_max_events(std::size_t n) { max_events_ = n; }
  std::size_t dropped() const { return dropped_; }

  /// Appends `ev` when enabled; a no-op (no allocation) otherwise.
  void record(const TraceEvent& ev) {
    if (!enabled_) return;
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(ev);
  }

  /// Moves `shard`'s events in as the next part of the merge that the
  /// writers run: on (time, part) order, with the part's machine ids
  /// shifted by `machine_base`. Parts go in shard order, each ordered by
  /// time (checked in paranoid builds), before this tracer records
  /// anything itself; what it records afterwards is written after the
  /// merged parts.
  void append_part(EventTracer&& shard, std::size_t machine_base);

  /// Every event in write order, machine ids shifted.
  std::vector<TraceEvent> events() const;
  std::size_t capacity() const { return events_.capacity(); }
  void clear() {
    events_.clear();
    parts_.clear();
    dropped_ = 0;
  }

  // Each writer formats its events on up to `threads` workers
  // (obs::write_merged); the bytes do not depend on `threads`.

  /// Chrome trace_event format: {"traceEvents": [...]}. Task lifetimes
  /// export as "X" duration slices (pid 0 = hosts, tid = machine);
  /// control-plane events as "i" instants (pid 1).
  void write_chrome_json(std::ostream& os, std::size_t threads = 1) const;

  /// One JSON object per line, in events() order.
  void write_jsonl(std::ostream& os, std::size_t threads = 1) const;

  /// The per-task event log: the kTask* events in events() order, every
  /// other kind dropped, each named arrived/dropped/placed/completed.
  /// CSV with header `time_s,event,app,machine` (machine empty when the
  /// event has none; time_s at 6 significant digits, as a default
  /// std::ostream prints it). Requires that no event was dropped at the
  /// cap.
  void write_task_events_csv(std::ostream& os, std::size_t threads = 1) const;

  /// The same log as JSONL: a schema-version header line ({"schema":
  /// "tracon.task_events", "version": N, "events": count} — the header
  /// shape of the replay arrival-trace format) followed by one
  /// {"time_s", "event", "app"[, "machine"]} object per line. Requires
  /// that no event was dropped at the cap.
  void write_task_events_jsonl(std::ostream& os,
                               std::size_t threads = 1) const;

 private:
  struct Part {
    std::vector<TraceEvent> events;
    std::size_t machine_base = 0;
  };

  /// Part `part`'s event `i`, its machine id shifted; part ==
  /// parts_.size() names this tracer's own event `i`.
  TraceEvent event(std::size_t part, std::size_t i) const;

  /// Writes every event, in events() order, through format(out, event).
  template <typename Format>
  void write_events(std::ostream& os, std::size_t threads,
                    Format&& format) const;

  static constexpr std::size_t kNoCap = static_cast<std::size_t>(-1);

  bool enabled_ = false;
  std::size_t max_events_ = kNoCap;
  std::size_t dropped_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<Part> parts_;
};

}  // namespace tracon::obs
