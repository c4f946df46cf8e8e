// Unit tests for the obs event tracer: recording semantics, disabled
// no-op behaviour, Chrome trace_event JSON validity (parsed back with
// the obs JSON reader), JSONL export, and determinism of both exports.
#include "obs/event_tracer.hpp"

#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"

namespace {

using tracon::obs::EventTracer;
using tracon::obs::JsonValue;
using tracon::obs::parse_json;
using tracon::obs::TraceEvent;
using tracon::obs::TraceEventKind;
using tracon::obs::trace_event_kind_name;

TraceEvent make_event(double time_s, TraceEventKind kind, std::size_t app,
                      std::size_t machine, double value = 0.0,
                      double value2 = 0.0) {
  TraceEvent ev;
  ev.time_s = time_s;
  ev.kind = kind;
  ev.app = app;
  ev.machine = machine;
  ev.value = value;
  ev.value2 = value2;
  return ev;
}

EventTracer sample_tracer() {
  EventTracer t;
  t.set_enabled(true);
  t.record(make_event(0.5, TraceEventKind::kTaskArrival, 2,
                      TraceEvent::kNone));
  t.record(make_event(1.0, TraceEventKind::kVmStart, 2, 3));
  t.record(make_event(1.0, TraceEventKind::kTaskPlaced, 2, 3, 90.0, 0.5));
  t.record(
      make_event(2.0, TraceEventKind::kSchedDecision, TraceEvent::kNone,
                 TraceEvent::kNone, 42.5, 1.0));
  t.record(make_event(101.0, TraceEventKind::kTaskCompleted, 2, 3, 100.0,
                      250.0));
  return t;
}

TEST(Tracer, DisabledByDefaultAndRecordIsZeroAllocNoOp) {
  EventTracer t;
  EXPECT_FALSE(t.enabled());
  for (int i = 0; i < 1000; ++i)
    t.record(make_event(i, TraceEventKind::kTaskArrival, 0, 0));
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.capacity(), 0u);  // no allocation ever happened
}

TEST(Tracer, MaxEventsCapsStorageAndCountsDrops) {
  EventTracer t;
  t.set_enabled(true);
  t.set_max_events(3);
  for (int i = 0; i < 10; ++i)
    t.record(make_event(i, TraceEventKind::kTaskArrival, 0, 0));
  EXPECT_EQ(t.events().size(), 3u);
  EXPECT_EQ(t.dropped(), 7u);
  EXPECT_DOUBLE_EQ(t.events().back().time_s, 2.0);
  t.clear();
  EXPECT_EQ(t.dropped(), 0u);
  t.record(make_event(0.0, TraceEventKind::kTaskArrival, 0, 0));
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Tracer, RecordsInOrderWhileEnabled) {
  EventTracer t = sample_tracer();
  ASSERT_EQ(t.events().size(), 5u);
  for (std::size_t i = 1; i < t.events().size(); ++i)
    EXPECT_LE(t.events()[i - 1].time_s, t.events()[i].time_s);
  t.set_enabled(false);
  t.record(make_event(200.0, TraceEventKind::kTaskArrival, 0, 0));
  EXPECT_EQ(t.events().size(), 5u);
  t.clear();
  EXPECT_TRUE(t.events().empty());
}

TEST(Tracer, KindNamesAreDottedPaths) {
  EXPECT_EQ(trace_event_kind_name(TraceEventKind::kTaskArrival),
            "sim.task.arrival");
  EXPECT_EQ(trace_event_kind_name(TraceEventKind::kSchedDecision),
            "sched.decision");
  EXPECT_EQ(trace_event_kind_name(TraceEventKind::kModelRetrain),
            "model.retrain");
}

TEST(Tracer, ChromeJsonIsValidAndPerfettoShaped) {
  EventTracer t = sample_tracer();
  std::ostringstream os;
  t.write_chrome_json(os);
  JsonValue doc = parse_json(os.str());

  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 2 process_name metadata records + 5 recorded events.
  ASSERT_EQ(events->as_array().size(), 7u);

  std::size_t slices = 0, instants = 0, metadata = 0;
  for (const auto& ev : events->as_array()) {
    ASSERT_NE(ev->find("ph"), nullptr);
    ASSERT_NE(ev->find("pid"), nullptr);
    ASSERT_NE(ev->find("tid"), nullptr);
    ASSERT_NE(ev->find("name"), nullptr);
    const std::string& ph = ev->find("ph")->as_string();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_NE(ev->find("ts"), nullptr);
    if (ph == "X") {
      ++slices;
      // The completed task covers [completion - runtime, completion].
      EXPECT_DOUBLE_EQ(ev->find("ts")->as_number(), 1.0 * 1e6);
      EXPECT_DOUBLE_EQ(ev->find("dur")->as_number(), 100.0 * 1e6);
      EXPECT_DOUBLE_EQ(ev->find("tid")->as_number(), 3.0);
    } else {
      EXPECT_EQ(ph, "i");
      ++instants;
    }
  }
  EXPECT_EQ(metadata, 2u);
  EXPECT_EQ(slices, 1u);
  EXPECT_EQ(instants, 4u);
}

TEST(Tracer, JsonlHasOneValidObjectPerLine) {
  EventTracer t = sample_tracer();
  std::ostringstream os;
  t.write_jsonl(os);
  std::istringstream in(os.str());
  std::string line;
  std::vector<std::string> kinds;
  while (std::getline(in, line)) {
    JsonValue obj = parse_json(line);
    ASSERT_NE(obj.find("time_s"), nullptr);
    ASSERT_NE(obj.find("kind"), nullptr);
    kinds.push_back(obj.find("kind")->as_string());
  }
  ASSERT_EQ(kinds.size(), 5u);
  EXPECT_EQ(kinds.front(), "sim.task.arrival");
  EXPECT_EQ(kinds.back(), "sim.task.completed");
}

TEST(Tracer, ExportsAreDeterministic) {
  auto build = [] {
    EventTracer t = sample_tracer();
    std::ostringstream chrome, jsonl;
    t.write_chrome_json(chrome);
    t.write_jsonl(jsonl);
    return chrome.str() + "\x01" + jsonl.str();
  };
  EXPECT_EQ(build(), build());
}

TEST(EventTracer, PartsMergeOnTimeThenShardWithMachinesShifted) {
  // Shard 0 owns machines 0-2; shard 1 starts at machine 3. Both place
  // at t=5 and complete at t=10, so equal stamps meet across shards, and
  // shard 0's arrival and placement share a stamp within it.
  const std::size_t none = TraceEvent::kNone;
  EventTracer s0;
  s0.set_enabled(true);
  s0.record(make_event(5.0, TraceEventKind::kTaskArrival, 0, none));
  s0.record(make_event(5.0, TraceEventKind::kTaskPlaced, 0, 1, 90.0));
  s0.record(make_event(10.0, TraceEventKind::kTaskCompleted, 0, 1, 5.0));
  EventTracer s1;
  s1.set_enabled(true);
  s1.record(make_event(5.0, TraceEventKind::kTaskPlaced, 2, 0, 80.0));
  s1.record(make_event(7.0, TraceEventKind::kSchedDecision, none, none));
  s1.record(make_event(10.0, TraceEventKind::kTaskCompleted, 2, 0, 5.0));

  EventTracer merged;
  merged.append_part(std::move(s0), 0);
  merged.append_part(std::move(s1), 3);
  // What the tracer records itself is written after the merged parts.
  merged.set_enabled(true);
  merged.record(make_event(1.0, TraceEventKind::kModelRetrain, none, none));

  using Row = std::tuple<double, TraceEventKind, std::size_t>;
  const std::vector<Row> expected = {
      {5.0, TraceEventKind::kTaskArrival, none},
      {5.0, TraceEventKind::kTaskPlaced, 1},
      {5.0, TraceEventKind::kTaskPlaced, 3},
      {7.0, TraceEventKind::kSchedDecision, none},
      {10.0, TraceEventKind::kTaskCompleted, 1},
      {10.0, TraceEventKind::kTaskCompleted, 3},
      {1.0, TraceEventKind::kModelRetrain, none}};
  const std::vector<TraceEvent> events = merged.events();
  ASSERT_EQ(events.size(), expected.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(Row(events[i].time_s, events[i].kind, events[i].machine),
              expected[i]);

  // Every writer visits that stream.
  std::ostringstream jsonl;
  merged.write_jsonl(jsonl);
  std::istringstream in(jsonl.str());
  std::size_t n = 0;
  for (std::string line; std::getline(in, line); ++n) {
    ASSERT_LT(n, expected.size());
    const auto& [time_s, kind, machine] = expected[n];
    const JsonValue obj = parse_json(line);
    EXPECT_DOUBLE_EQ(obj.find("time_s")->as_number(), time_s);
    EXPECT_EQ(obj.find("kind")->as_string(), trace_event_kind_name(kind));
    const JsonValue* m = obj.find("machine");
    EXPECT_EQ(m == nullptr ? none : static_cast<std::size_t>(m->as_number()),
              machine);
  }
  EXPECT_EQ(n, expected.size());
  std::ostringstream csv;
  merged.write_task_events_csv(csv);
  EXPECT_EQ(csv.str(),
            "time_s,event,app,machine\n5,arrived,0,\n5,placed,0,1\n"
            "5,placed,2,3\n10,completed,0,1\n10,completed,2,3\n");
}

TEST(EventTracer, PartsGoInBeforeRecordsAndOnlyIntoAnUncappedTracer) {
  EventTracer recorded;
  recorded.set_enabled(true);
  recorded.record(make_event(0.0, TraceEventKind::kTaskArrival, 0, 0));
  EXPECT_THROW(recorded.append_part(EventTracer(), 0), std::invalid_argument);

  EventTracer nested;
  nested.append_part(EventTracer(), 0);
  EventTracer outer;
  EXPECT_THROW(outer.append_part(std::move(nested), 0),
               std::invalid_argument);

  EventTracer capped;
  capped.set_max_events(10);
  EXPECT_THROW(capped.append_part(EventTracer(), 0), std::invalid_argument);
}

}  // namespace
