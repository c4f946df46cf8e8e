// The per-task event log (`--trace` CSV, `--events-jsonl` JSONL): the
// EventTracer's stream projected onto its four kTask* kinds, and the
// dynamic scenario that records it.
#include "obs/event_tracer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "drain.hpp"
#include "obs/telemetry.hpp"
#include "sched/fifo.hpp"
#include "sim/dynamic_scenario.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::sim {
namespace {

using obs::EventTracer;
using obs::TraceEvent;
using obs::TraceEventKind;

TraceEvent event(double time_s, TraceEventKind kind, std::size_t app,
                 std::size_t machine = TraceEvent::kNone) {
  TraceEvent ev;
  ev.time_s = time_s;
  ev.kind = kind;
  ev.app = app;
  ev.machine = machine;
  return ev;
}

EventTracer enabled_tracer() {
  EventTracer t;
  t.set_enabled(true);
  return t;
}

std::size_t count(const EventTracer& t, TraceEventKind kind) {
  std::size_t n = 0;
  for (const TraceEvent& e : t.events())
    if (e.kind == kind) ++n;
  return n;
}

std::string csv(const EventTracer& t) {
  std::ostringstream os;
  t.write_task_events_csv(os);
  return os.str();
}

std::string jsonl(const EventTracer& t) {
  std::ostringstream os;
  t.write_task_events_jsonl(os);
  return os.str();
}

TEST(TraceRecorder, RecordsAndCounts) {
  EventTracer t = enabled_tracer();
  t.record(event(1.0, TraceEventKind::kTaskArrival, 3));
  t.record(event(1.5, TraceEventKind::kVmStart, 3, 7));
  t.record(event(1.5, TraceEventKind::kTaskPlaced, 3, 7));
  t.record(event(9.0, TraceEventKind::kTaskCompleted, 3, 7));
  t.record(event(2.0, TraceEventKind::kTaskDropped, 5));
  EXPECT_EQ(t.events().size(), 5u);
  EXPECT_EQ(count(t, TraceEventKind::kTaskArrival), 1u);
  EXPECT_EQ(count(t, TraceEventKind::kTaskPlaced), 1u);
  EXPECT_EQ(count(t, TraceEventKind::kTaskDropped), 1u);
  // The log holds the four task events, not the VM start.
  EXPECT_NE(jsonl(t).find("\"events\": 4}"), std::string::npos);
  t.clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(csv(t), "time_s,event,app,machine\n");
}

TEST(TraceRecorder, CsvFormat) {
  EventTracer t = enabled_tracer();
  t.record(event(1.5, TraceEventKind::kVmStart, 3, 7));
  t.record(event(1.5, TraceEventKind::kTaskPlaced, 3, 7));
  t.record(event(1.5, TraceEventKind::kSchedDecision, TraceEvent::kNone));
  t.record(event(2.0, TraceEventKind::kTaskDropped, 5));
  EXPECT_EQ(csv(t),
            "time_s,event,app,machine\n"
            "1.5,placed,3,7\n"
            "2,dropped,5,\n");
}

TEST(TraceRecorder, KindNames) {
  EventTracer t = enabled_tracer();
  t.record(event(1.0, TraceEventKind::kTaskArrival, 0));
  t.record(event(2.0, TraceEventKind::kTaskCompleted, 1, 2));
  EXPECT_EQ(csv(t),
            "time_s,event,app,machine\n"
            "1,arrived,0,\n"
            "2,completed,1,2\n");
}

TEST(TraceRecorder, JsonlFormat) {
  EventTracer t = enabled_tracer();
  t.record(event(1.5, TraceEventKind::kVmStart, 3, 7));
  t.record(event(1.5, TraceEventKind::kTaskPlaced, 3, 7));
  t.record(event(1.5, TraceEventKind::kSchedDecision, TraceEvent::kNone));
  t.record(event(2.0, TraceEventKind::kTaskDropped, 5));
  EXPECT_EQ(jsonl(t),
            "{\"schema\": \"tracon.task_events\", \"version\": 2, "
            "\"events\": 2}\n"
            "{\"time_s\": 1.5, \"event\": \"placed\", \"app\": 3, "
            "\"machine\": 7}\n"
            "{\"time_s\": 2, \"event\": \"dropped\", \"app\": 5}\n");
}

TEST(TaskEventLog, CappedTracerRefusesToWriteIt) {
  EventTracer t = enabled_tracer();
  t.set_max_events(1);
  t.record(event(1.0, TraceEventKind::kTaskArrival, 0));
  t.record(event(2.0, TraceEventKind::kTaskArrival, 1));
  ASSERT_EQ(t.dropped(), 1u);
  std::ostringstream os;
  EXPECT_THROW(t.write_task_events_csv(os), std::invalid_argument);
  EXPECT_THROW(t.write_task_events_jsonl(os), std::invalid_argument);
  EXPECT_TRUE(os.str().empty());
  // A cap that dropped nothing leaves the log complete.
  t.clear();
  t.record(event(1.0, TraceEventKind::kTaskArrival, 0));
  EXPECT_EQ(csv(t), "time_s,event,app,machine\n1,arrived,0,\n");
}

class TracedDynamic : public ::testing::Test {
 protected:
  static const PerfTable& table() {
    static PerfTable t = [] {
      model::Profiler prof(
          virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
      // The mix sampler draws over the full 8-benchmark rank scale, so
      // the table must cover all of them.
      return PerfTable::build(prof, workload::paper_benchmarks());
    }();
    return t;
  }
};

TEST_F(TracedDynamic, TraceMatchesOutcomeCounts) {
  obs::Telemetry tel;
  tel.tracer.set_enabled(true);
  DynamicConfig cfg;
  cfg.machines = 4;
  cfg.lambda_per_min = 30.0;
  cfg.duration_s = 1800.0;
  cfg.telemetry = &tel;
  sched::FifoScheduler fifo(9);
  DynamicOutcome o = run_dynamic(table(), fifo, cfg);
  const EventTracer& trace = tel.tracer;

  EXPECT_EQ(count(trace, TraceEventKind::kTaskArrival), o.arrived);
  EXPECT_EQ(count(trace, TraceEventKind::kTaskDropped), o.dropped);
  EXPECT_EQ(count(trace, TraceEventKind::kTaskCompleted), o.completed);
  // Every completion was preceded by a placement.
  EXPECT_GE(count(trace, TraceEventKind::kTaskPlaced),
            count(trace, TraceEventKind::kTaskCompleted));
  // Events are time-ordered (the simulator emits them in event order).
  const std::vector<TraceEvent> events = trace.events();
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].time_s, events[i].time_s);
  // Placements and completions carry machine ids within range.
  for (const auto& e : events) {
    if (e.kind == TraceEventKind::kTaskPlaced ||
        e.kind == TraceEventKind::kTaskCompleted) {
      EXPECT_LT(e.machine, cfg.machines);
    }
  }
  // The log has one row per task event.
  const std::string rows = csv(trace);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(rows.begin(), rows.end(), '\n')),
            1 + o.arrived + o.dropped +
                count(trace, TraceEventKind::kTaskPlaced) + o.completed);
}

TEST_F(TracedDynamic, ExplicitArrivalListHonored) {
  std::vector<Arrival> arrivals = {{10.0, 0}, {20.0, 1}, {30.0, 0}};
  DynamicConfig cfg;
  cfg.machines = 4;
  cfg.duration_s = 600.0;
  sched::FifoScheduler fifo(9);
  DynamicOutcome o = run_dynamic(table(), fifo, cfg, arrivals);
  EXPECT_EQ(o.arrived, 3u);
  EXPECT_EQ(o.completed, 3u);
  EXPECT_EQ(o.dropped, 0u);
}

TEST_F(TracedDynamic, UnsortedArrivalsRejected) {
  std::vector<Arrival> arrivals = {{20.0, 0}, {10.0, 1}};
  DynamicConfig cfg;
  cfg.machines = 2;
  sched::FifoScheduler fifo(9);
  EXPECT_THROW(run_dynamic(table(), fifo, cfg, arrivals),
               std::invalid_argument);
}

TEST_F(TracedDynamic, GeneratedArrivalsSortedAndMixed) {
  PoissonStream stream(120.0, 3600.0, workload::MixKind::kUniform, 1.5, 7);
  const std::vector<Arrival> arrivals = test::drain(stream);
  ASSERT_GT(arrivals.size(), 50u);
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    EXPECT_LE(arrivals[i - 1].time_s, arrivals[i].time_s);
  // Mean inter-arrival ~ 0.5 s at 120/min.
  double span = arrivals.back().time_s - arrivals.front().time_s;
  EXPECT_NEAR(span / static_cast<double>(arrivals.size() - 1), 0.5, 0.1);
}

}  // namespace
}  // namespace tracon::sim
