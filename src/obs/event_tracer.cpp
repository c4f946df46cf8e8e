#include "obs/event_tracer.hpp"

#include <algorithm>
#include <utility>

#include "obs/jsonl.hpp"
#include "util/error.hpp"
#include "util/stamp_merge.hpp"

namespace tracon::obs {

std::string_view trace_event_kind_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kTaskArrival: return "sim.task.arrival";
    case TraceEventKind::kTaskDropped: return "sim.task.dropped";
    case TraceEventKind::kTaskPlaced: return "sim.task.placed";
    case TraceEventKind::kTaskCompleted: return "sim.task.completed";
    case TraceEventKind::kVmStart: return "sim.vm.start";
    case TraceEventKind::kVmStop: return "sim.vm.stop";
    case TraceEventKind::kSchedDecision: return "sched.decision";
    case TraceEventKind::kModelRetrain: return "model.retrain";
    case TraceEventKind::kModelDrift: return "model.drift";
  }
  return "unknown";
}

namespace {

/// Significant digits of the Chrome trace's and the trace JSONL's
/// doubles ("%.10g"), and of the task-event CSV's times (a default
/// std::ostream's "%g").
constexpr int kTraceDigits = 10;
constexpr int kCsvDigits = 6;

bool machine_scoped(const TraceEvent& ev) {
  return ev.machine != TraceEvent::kNone;
}

/// The fields both JSON exports close an event with:
/// `["app": A, ]["machine": M, ]"count": C, "value": V, "value2": W}`.
void write_payload(JsonlBuffer& out, const TraceEvent& ev) {
  if (ev.app != TraceEvent::kNone)
    out.raw("\"app\": ").integer(ev.app).raw(", ");
  if (machine_scoped(ev))
    out.raw("\"machine\": ").integer(ev.machine).raw(", ");
  out.raw("\"count\": ")
      .integer(ev.count)
      .raw(", \"value\": ")
      .number(ev.value, kTraceDigits)
      .raw(", \"value2\": ")
      .number(ev.value2, kTraceDigits)
      .raw("}");
}

/// The task-event log's name for a kTask* kind; nullptr for every kind
/// the log drops.
const char* task_event_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kTaskArrival: return "arrived";
    case TraceEventKind::kTaskDropped: return "dropped";
    case TraceEventKind::kTaskPlaced: return "placed";
    case TraceEventKind::kTaskCompleted: return "completed";
    default: return nullptr;
  }
}

void require_complete(const EventTracer& tracer) {
  TRACON_REQUIRE(tracer.dropped() == 0,
                 "a capped tracer dropped events; its task-event log "
                 "would be incomplete");
}

}  // namespace

void EventTracer::append_part(EventTracer&& shard, std::size_t machine_base) {
  TRACON_REQUIRE(events_.empty(),
                 "a tracer takes its merge parts before recording");
  TRACON_REQUIRE(shard.parts_.empty(),
                 "a merge part must hold its own events only");
  TRACON_REQUIRE(max_events_ == kNoCap, "a capped tracer takes no parts");
  parts_.push_back({std::move(shard.events_), machine_base});
}

TraceEvent EventTracer::event(std::size_t part, std::size_t i) const {
  if (part == parts_.size()) return events_[i];
  TraceEvent ev = parts_[part].events[i];
  if (machine_scoped(ev)) ev.machine += parts_[part].machine_base;
  return ev;
}

template <typename Format>
void EventTracer::write_events(std::ostream& os, std::size_t threads,
                               Format&& format) const {
  std::vector<std::size_t> sizes;
  for (const Part& p : parts_) sizes.push_back(p.events.size());
  write_merged(
      os, threads, sizes, events_.size(),
      [&](std::size_t p, std::size_t i) { return parts_[p].events[i].time_s; },
      [&](JsonlBuffer& out, std::size_t p, std::size_t i) {
        format(out, event(p, i));
      });
}

std::vector<TraceEvent> EventTracer::events() const {
  std::vector<PartRange> whole;
  std::size_t n = events_.size();
  for (const Part& p : parts_) {
    whole.push_back({0, p.events.size()});
    n += p.events.size();
  }
  std::vector<TraceEvent> out;
  out.reserve(n);
  merge_by_stamp(
      whole,
      [&](std::size_t p, std::size_t i) { return parts_[p].events[i].time_s; },
      [&](std::size_t p, std::size_t i) { out.push_back(event(p, i)); });
  out.insert(out.end(), events_.begin(), events_.end());
  return out;
}

void EventTracer::write_chrome_json(std::ostream& os,
                                    std::size_t threads) const {
  // pid 0 hosts the per-machine timelines; pid 1 the control plane
  // (queue, scheduler, model) so Perfetto groups them separately.
  JsonlBuffer header(os);
  header.raw("{\"traceEvents\": [\n"
             "  {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, "
             "\"name\": \"process_name\", \"args\": {\"name\": \"hosts\"}},\n"
             "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
             "\"name\": \"process_name\", \"args\": {\"name\": \"control\"}}");
  header.flush();
  // Each event opens with the separator that ends the line before it,
  // so its text does not depend on its position.
  write_events(os, threads, [](JsonlBuffer& out, const TraceEvent& ev) {
    out.raw(",").end_line();
    if (ev.kind == TraceEventKind::kTaskCompleted && machine_scoped(ev)) {
      // The completed task becomes a duration slice covering its whole
      // residence on the machine (value = realized runtime in seconds).
      out.raw("  {\"ph\": \"X\", \"name\": \"app_")
          .integer(ev.app)
          .raw("\", \"cat\": \"task\", \"ts\": ")
          .number((ev.time_s - ev.value) * 1e6, kTraceDigits)
          .raw(", \"dur\": ")
          .number(ev.value * 1e6, kTraceDigits)
          .raw(", \"pid\": 0, \"tid\": ")
          .integer(ev.machine);
    } else {
      out.raw("  {\"ph\": \"i\", \"s\": \"t\", \"name\": \"")
          .raw(trace_event_kind_name(ev.kind))
          .raw("\", \"cat\": \"sim\", \"ts\": ")
          .number(ev.time_s * 1e6, kTraceDigits)
          .raw(machine_scoped(ev) ? ", \"pid\": 0, \"tid\": "
                                  : ", \"pid\": 1, \"tid\": ")
          .integer(machine_scoped(ev) ? ev.machine : 0);
    }
    out.raw(", \"args\": {");
    write_payload(out, ev);
    out.raw("}");
  });
  JsonlBuffer footer(os);
  footer.raw("\n], \"displayTimeUnit\": \"ms\"}").end_line();
  footer.flush();
}

void EventTracer::write_jsonl(std::ostream& os, std::size_t threads) const {
  write_events(os, threads, [](JsonlBuffer& out, const TraceEvent& ev) {
    out.raw("{\"time_s\": ")
        .number(ev.time_s, kTraceDigits)
        .raw(", \"kind\": \"")
        .raw(trace_event_kind_name(ev.kind))
        .raw("\", ");
    write_payload(out, ev);
    out.end_line();
  });
}

void EventTracer::write_task_events_csv(std::ostream& os,
                                        std::size_t threads) const {
  require_complete(*this);
  JsonlBuffer header(os);
  header.raw("time_s,event,app,machine").end_line();
  header.flush();
  write_events(os, threads, [](JsonlBuffer& out, const TraceEvent& ev) {
    const char* name = task_event_name(ev.kind);
    if (name == nullptr) return;
    out.number(ev.time_s, kCsvDigits)
        .raw(",")
        .raw(name)
        .raw(",")
        .integer(ev.app)
        .raw(",");
    if (machine_scoped(ev)) out.integer(ev.machine);
    out.end_line();
  });
}

void EventTracer::write_task_events_jsonl(std::ostream& os,
                                          std::size_t threads) const {
  require_complete(*this);
  // A count does not depend on order: no merge.
  const auto is_task = [](const TraceEvent& ev) {
    return task_event_name(ev.kind) != nullptr;
  };
  std::size_t count = static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(), is_task));
  for (const Part& p : parts_) {
    count += static_cast<std::size_t>(
        std::count_if(p.events.begin(), p.events.end(), is_task));
  }
  JsonlBuffer header(os);
  header.raw("{\"schema\": \"tracon.task_events\", \"version\": ")
      .integer(kJsonlSchemaVersion)
      .raw(", \"events\": ")
      .integer(count)
      .raw("}")
      .end_line();
  header.flush();
  write_events(os, threads, [](JsonlBuffer& out, const TraceEvent& ev) {
    const char* name = task_event_name(ev.kind);
    if (name == nullptr) return;
    out.raw("{\"time_s\": ")
        .number(ev.time_s)
        .raw(", \"event\": \"")
        .raw(name)
        .raw("\", \"app\": ")
        .integer(ev.app);
    if (machine_scoped(ev)) out.raw(", \"machine\": ").integer(ev.machine);
    out.raw("}").end_line();
  });
}

}  // namespace tracon::obs
