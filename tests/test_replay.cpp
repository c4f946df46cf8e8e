// The record/replay loop: JSONL arrival traces round-trip
// byte-for-byte, TraceArrivalSource reproduces the recorded stream
// under any scheduler, and RecordingArrivalSource tees a live stream
// as it is pulled, however it is pulled.
#include "replay/arrival_trace.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "drain.hpp"
#include "sched/fifo.hpp"
#include "sim/dynamic_scenario.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::replay {
namespace {

ArrivalTraceHeader small_header() {
  ArrivalTraceHeader h;
  h.seed = 11;
  h.host = "paper";
  h.model = "nlm";
  h.mix = "medium";
  h.lambda_per_min = 30.0;
  h.duration_s = 600.0;
  h.machines = 4;
  h.queue_capacity = 8;
  h.num_apps = 8;
  return h;
}

ArrivalTrace small_trace() {
  ArrivalTrace t;
  t.header = small_header();
  t.arrivals = {{0.25, 2, 114.5}, {3.5, 0, 80.0}, {3.5, 7, 42.125}};
  return t;
}

TEST(ArrivalTrace, RoundTripsByteIdentically) {
  std::ostringstream first;
  write_arrival_trace(first, small_trace());

  std::istringstream in(first.str());
  ArrivalTrace loaded = load_arrival_trace(in);
  std::ostringstream second;
  write_arrival_trace(second, loaded);

  EXPECT_EQ(first.str(), second.str());
}

TEST(ArrivalTrace, RoundTripPreservesEveryField) {
  std::ostringstream os;
  write_arrival_trace(os, small_trace());
  std::istringstream in(os.str());
  ArrivalTrace t = load_arrival_trace(in);

  EXPECT_EQ(t.header.seed, 11u);
  EXPECT_EQ(t.header.host, "paper");
  EXPECT_EQ(t.header.model, "nlm");
  EXPECT_EQ(t.header.mix, "medium");
  EXPECT_DOUBLE_EQ(t.header.lambda_per_min, 30.0);
  EXPECT_DOUBLE_EQ(t.header.duration_s, 600.0);
  EXPECT_EQ(t.header.machines, 4u);
  EXPECT_EQ(t.header.queue_capacity, 8u);
  EXPECT_EQ(t.header.num_apps, 8u);
  ASSERT_EQ(t.arrivals.size(), 3u);
  EXPECT_DOUBLE_EQ(t.arrivals[0].time_s, 0.25);
  EXPECT_EQ(t.arrivals[0].app, 2u);
  EXPECT_DOUBLE_EQ(t.arrivals[0].demand_s, 114.5);
  EXPECT_DOUBLE_EQ(t.arrivals[2].demand_s, 42.125);
}

TEST(ArrivalTrace, TraceWriterCounts) {
  std::ostringstream os;
  TraceWriter w(os, small_header());
  EXPECT_EQ(w.written(), 0u);
  w.write({1.0, 0, 10.0});
  w.write({2.0, 1, 20.0});
  EXPECT_EQ(w.written(), 2u);
}

TEST(ArrivalTrace, LoadRejectsMissingHeader) {
  std::istringstream in(R"({"time_s": 1.0, "app": 0, "demand_s": 5.0})");
  EXPECT_THROW(load_arrival_trace(in), std::invalid_argument);
}

TEST(ArrivalTrace, LoadRejectsWrongSchema) {
  std::istringstream in(R"({"schema": "tracon.task_events", "version": 1})");
  EXPECT_THROW(load_arrival_trace(in), std::invalid_argument);
}

TEST(ArrivalTrace, LoadRejectsFutureVersion) {
  ArrivalTrace t = small_trace();
  t.header.version = 99;
  std::ostringstream os;
  write_arrival_trace(os, t);
  std::istringstream in(os.str());
  EXPECT_THROW(load_arrival_trace(in), std::invalid_argument);
}

TEST(ArrivalTrace, LoadRejectsUnsortedTimes) {
  ArrivalTrace t = small_trace();
  t.arrivals = {{5.0, 0, 1.0}, {1.0, 1, 1.0}};
  std::ostringstream os;
  write_arrival_trace(os, t);
  std::istringstream in(os.str());
  EXPECT_THROW(load_arrival_trace(in), std::invalid_argument);
}

TEST(ArrivalTrace, LoadRejectsAppOutOfRange) {
  ArrivalTrace t = small_trace();
  t.arrivals = {{1.0, t.header.num_apps, 1.0}};
  std::ostringstream os;
  write_arrival_trace(os, t);
  std::istringstream in(os.str());
  EXPECT_THROW(load_arrival_trace(in), std::invalid_argument);
}

TEST(ArrivalTrace, LoadRejectsGarbageRecordLine) {
  std::ostringstream os;
  write_arrival_trace(os, small_trace());
  std::istringstream in(os.str() + "not json\n");
  EXPECT_THROW(load_arrival_trace(in), std::invalid_argument);
}

TEST(TraceArrivalSource, ReplaysRecordedStreamExactly) {
  ArrivalTrace t = small_trace();
  TraceArrivalSource source(t);
  std::vector<sim::Arrival> out = test::drain(source);
  ASSERT_EQ(out.size(), t.arrivals.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i].time_s, t.arrivals[i].time_s);
    EXPECT_EQ(out[i].app, t.arrivals[i].app);
  }
}

TEST(TraceArrivalSource, ValidatesDemands) {
  TraceArrivalSource source(small_trace());
  std::vector<double> demands(8, 0.0);
  demands[2] = 114.5;
  demands[0] = 80.0;
  demands[7] = 42.125;
  EXPECT_TRUE(source.validate_demands(demands));
  demands[0] = 81.0;
  EXPECT_FALSE(source.validate_demands(demands));
}

std::vector<double> ten_per_class() {
  std::vector<double> demands(8);
  for (std::size_t a = 0; a < demands.size(); ++a)
    demands[a] = 10.0 * static_cast<double>(a + 1);
  return demands;
}

TEST(RecordingArrivalSource, TeesInnerStreamIntoWriter) {
  sim::PoissonStream poisson(30.0, 600.0, workload::MixKind::kMedium, 1.5,
                             11);
  std::vector<sim::Arrival> direct = test::drain(poisson);

  std::ostringstream os;
  TraceWriter writer(os, small_header());
  sim::PoissonStream poisson2(30.0, 600.0, workload::MixKind::kMedium, 1.5,
                              11);
  const std::vector<double> demands = ten_per_class();
  RecordingArrivalSource recording(poisson2, writer, demands);
  std::vector<sim::Arrival> teed = test::drain(recording);

  ASSERT_EQ(teed.size(), direct.size());
  EXPECT_EQ(writer.written(), direct.size());

  std::istringstream in(os.str());
  ArrivalTrace loaded = load_arrival_trace(in);
  ASSERT_EQ(loaded.arrivals.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.arrivals[i].time_s, direct[i].time_s);
    EXPECT_EQ(loaded.arrivals[i].app, direct[i].app);
    EXPECT_DOUBLE_EQ(loaded.arrivals[i].demand_s, demands[direct[i].app]);
  }
}

TEST(RecordingArrivalSource, AnyChunkingGivesTheSameArrivalsAndBytes) {
  // The reference: the Poisson stream one arrival at a time, and the
  // trace of it written whole.
  const std::vector<double> demands = ten_per_class();
  sim::PoissonStream one(120.0, 900.0, workload::MixKind::kHeavy, 1.5, 13);
  ArrivalTrace want;
  want.header = small_header();
  while (std::optional<sim::Arrival> a = one.next())
    want.arrivals.push_back({a->time_s, a->app, demands[a->app]});
  ASSERT_GT(want.arrivals.size(), 1000u);
  std::ostringstream want_bytes;
  write_arrival_trace(want_bytes, want);

  // Records `inner` through a tee pulled `chunk` arrivals at a time.
  auto record = [&](sim::ArrivalSource& inner, std::size_t chunk,
                    const std::string& what) {
    std::ostringstream os;
    TraceWriter writer(os, want.header);
    RecordingArrivalSource recording(inner, writer, demands);
    const std::vector<sim::Arrival> got = test::drain(recording, chunk);
    ASSERT_EQ(got.size(), want.arrivals.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].time_s, want.arrivals[i].time_s) << what << " " << i;
      EXPECT_EQ(got[i].app, want.arrivals[i].app) << what << " " << i;
    }
    EXPECT_EQ(os.str(), want_bytes.str()) << what;
  };
  for (std::size_t chunk : {1u, 7u, 4096u}) {
    const std::string at = " in chunks of " + std::to_string(chunk);
    sim::PoissonStream poisson(120.0, 900.0, workload::MixKind::kHeavy, 1.5,
                               13);
    record(poisson, chunk, "the live stream" + at);
    TraceArrivalSource replayed(want);
    record(replayed, chunk, "the replayed trace" + at);
  }
}

class ReplayedDynamic : public ::testing::Test {
 protected:
  static const sim::PerfTable& table() {
    static sim::PerfTable t = [] {
      model::Profiler prof(
          virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
      return sim::PerfTable::build(prof, workload::paper_benchmarks());
    }();
    return t;
  }
};

TEST_F(ReplayedDynamic, ReplayMatchesLiveRunUnderSameScheduler) {
  sim::DynamicConfig cfg;
  cfg.machines = 4;
  cfg.lambda_per_min = 20.0;
  cfg.duration_s = 1200.0;
  cfg.seed = 17;

  // Live run, recording the stream.
  ArrivalTraceHeader header = small_header();
  header.seed = cfg.seed;
  header.machines = cfg.machines;
  header.lambda_per_min = cfg.lambda_per_min;
  header.duration_s = cfg.duration_s;
  std::ostringstream trace_os;
  TraceWriter writer(trace_os, header);
  sim::PoissonStream poisson(cfg.lambda_per_min, cfg.duration_s, cfg.mix,
                             cfg.mix_stddev, cfg.seed);
  std::vector<double> demands;
  for (std::size_t a = 0; a < table().num_apps(); ++a)
    demands.push_back(table().solo_runtime(a));
  RecordingArrivalSource recording(poisson, writer, demands);
  cfg.arrival_source = &recording;
  sched::FifoScheduler live_fifo(9);
  sim::DynamicOutcome live = sim::run_dynamic(table(), live_fifo, cfg);
  EXPECT_EQ(writer.written(), live.arrived);

  // Replay through cfg.arrival_source.
  std::istringstream trace_in(trace_os.str());
  TraceArrivalSource source(load_arrival_trace(trace_in));
  EXPECT_TRUE(source.validate_demands(demands));
  cfg.arrival_source = &source;
  sched::FifoScheduler replay_fifo(9);
  sim::DynamicOutcome replayed = sim::run_dynamic(table(), replay_fifo, cfg);

  EXPECT_EQ(replayed.arrived, live.arrived);
  EXPECT_EQ(replayed.dropped, live.dropped);
  EXPECT_EQ(replayed.completed, live.completed);
  EXPECT_DOUBLE_EQ(replayed.total_runtime, live.total_runtime);
  EXPECT_DOUBLE_EQ(replayed.mean_wait_s, live.mean_wait_s);
}

TEST_F(ReplayedDynamic, ArrivalsBeforeTimeZeroAreRefused) {
  ArrivalTrace t = small_trace();
  t.arrivals.front().time_s = -500.0;
  std::ostringstream os;
  write_arrival_trace(os, t);
  std::istringstream in(os.str());
  try {
    load_arrival_trace(in);
    FAIL() << "a trace arriving at t = -500 loaded";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("arrival trace line 2: "),
              std::string::npos)
        << e.what();
  }
  // The engine refuses them too, whatever source hands them over.
  TraceArrivalSource source(t);
  sim::DynamicConfig cfg;
  cfg.machines = 4;
  cfg.duration_s = 600.0;
  cfg.arrival_source = &source;
  sched::FifoScheduler fifo(9);
  EXPECT_THROW(sim::run_dynamic(table(), fifo, cfg), std::invalid_argument);
}

TEST_F(ReplayedDynamic, AppClassMissingFromThePerfTableIsRefused) {
  // A trace recorded against nine app classes, replayed against eight.
  ArrivalTrace t = small_trace();
  t.header.num_apps = table().num_apps() + 1;
  t.arrivals.push_back({4.0, table().num_apps(), 1.0});
  TraceArrivalSource source(t);
  sim::DynamicConfig cfg;
  cfg.machines = 4;
  cfg.duration_s = 600.0;
  cfg.arrival_source = &source;
  sched::FifoScheduler fifo(9);
  try {
    sim::run_dynamic(table(), fifo, cfg);
    FAIL() << "a trace naming app class 8 ran";
  } catch (const std::invalid_argument& e) {
    // The engine refuses it as it is fed, before any scheduler sees it.
    EXPECT_NE(std::string(e.what()).find("not in the perf table"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace tracon::replay
