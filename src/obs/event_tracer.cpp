#include "obs/event_tracer.hpp"

#include <ostream>

#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace tracon::obs {

std::string trace_event_kind_name(TraceEventKind kind) {
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

/// pid 0 hosts the per-machine timelines; pid 1 the control plane
/// (queue, scheduler, model) so Perfetto groups them separately.
constexpr int kHostsPid = 0;
constexpr int kControlPid = 1;

bool machine_scoped(const TraceEvent& ev) {
  return ev.machine != TraceEvent::kNone;
}

void write_args_json(std::ostream& os, const TraceEvent& ev) {
  os << "{";
  bool first = true;
  auto field = [&](const char* key, const std::string& value) {
    os << (first ? "" : ", ") << "\"" << key << "\": " << value;
    first = false;
  };
  if (ev.app != TraceEvent::kNone) field("app", std::to_string(ev.app));
  if (ev.machine != TraceEvent::kNone) {
    field("machine", std::to_string(ev.machine));
  }
  field("count", std::to_string(ev.count));
  field("value", format_double(ev.value));
  field("value2", format_double(ev.value2));
  os << "}";
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

void EventTracer::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  os << "  {\"ph\": \"M\", \"pid\": " << kHostsPid
     << ", \"tid\": 0, \"name\": \"process_name\", "
        "\"args\": {\"name\": \"hosts\"}},\n";
  os << "  {\"ph\": \"M\", \"pid\": " << kControlPid
     << ", \"tid\": 0, \"name\": \"process_name\", "
        "\"args\": {\"name\": \"control\"}}";
  for (const TraceEvent& ev : events_) {
    os << ",\n  {";
    if (ev.kind == TraceEventKind::kTaskCompleted &&
        ev.machine != TraceEvent::kNone) {
      // The completed task becomes a duration slice covering its whole
      // residence on the machine (value = realized runtime in seconds).
      double start_us = (ev.time_s - ev.value) * 1e6;
      os << "\"ph\": \"X\", \"name\": \"app_" << ev.app << "\", "
         << "\"cat\": \"task\", \"ts\": " << format_double(start_us)
         << ", \"dur\": " << format_double(ev.value * 1e6)
         << ", \"pid\": " << kHostsPid << ", \"tid\": " << ev.machine;
    } else {
      int pid = machine_scoped(ev) ? kHostsPid : kControlPid;
      std::size_t tid = machine_scoped(ev) ? ev.machine : 0;
      os << "\"ph\": \"i\", \"s\": \"t\", \"name\": \""
         << trace_event_kind_name(ev.kind) << "\", \"cat\": \"sim\", "
         << "\"ts\": " << format_double(ev.time_s * 1e6)
         << ", \"pid\": " << pid << ", \"tid\": " << tid;
    }
    os << ", \"args\": ";
    write_args_json(os, ev);
    os << "}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void EventTracer::write_jsonl(std::ostream& os) const {
  for (const TraceEvent& ev : events_) {
    os << "{\"time_s\": " << format_double(ev.time_s) << ", \"kind\": \""
       << trace_event_kind_name(ev.kind) << "\"";
    if (ev.app != TraceEvent::kNone) os << ", \"app\": " << ev.app;
    if (ev.machine != TraceEvent::kNone) {
      os << ", \"machine\": " << ev.machine;
    }
    os << ", \"count\": " << ev.count
       << ", \"value\": " << format_double(ev.value)
       << ", \"value2\": " << format_double(ev.value2) << "}\n";
  }
}

void EventTracer::write_task_events_csv(std::ostream& os) const {
  require_complete(*this);
  os << "time_s,event,app,machine\n";
  for (const TraceEvent& ev : events_) {
    const char* name = task_event_name(ev.kind);
    if (name == nullptr) continue;
    os << ev.time_s << ',' << name << ',' << ev.app << ',';
    if (ev.machine != TraceEvent::kNone) os << ev.machine;
    os << '\n';
  }
}

void EventTracer::write_task_events_jsonl(std::ostream& os) const {
  require_complete(*this);
  std::size_t count = 0;
  for (const TraceEvent& ev : events_)
    if (task_event_name(ev.kind) != nullptr) ++count;
  os << JsonLineWriter()
            .field("schema", "tracon.task_events")
            .field("version", kJsonlSchemaVersion)
            .field("events", count)
            .str()
     << '\n';
  for (const TraceEvent& ev : events_) {
    const char* name = task_event_name(ev.kind);
    if (name == nullptr) continue;
    JsonLineWriter line;
    line.field("time_s", ev.time_s).field("event", name).field("app", ev.app);
    if (ev.machine != TraceEvent::kNone) line.field("machine", ev.machine);
    os << line.str() << '\n';
  }
}

}  // namespace tracon::obs
