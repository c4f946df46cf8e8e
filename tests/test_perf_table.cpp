#include "sim/perf_table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "golden.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::sim {
namespace {

PerfTable small_table() {
  model::Profiler prof(
      virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
  std::vector<virt::AppBehavior> apps = {
      *workload::benchmark_by_name("email"),
      *workload::benchmark_by_name("video"),
      *workload::benchmark_by_name("blastn")};
  return PerfTable::build(prof, apps);
}

TEST(PerfTable, NamesAndShapes) {
  PerfTable t = small_table();
  EXPECT_EQ(t.num_apps(), 3u);
  EXPECT_EQ(t.app_name(0), "email");
  EXPECT_EQ(t.app_name(1), "video");
  EXPECT_THROW(t.app_name(3), std::invalid_argument);
}

TEST(PerfTable, SoloEqualsIdleNeighbour) {
  PerfTable t = small_table();
  for (std::size_t a = 0; a < t.num_apps(); ++a) {
    EXPECT_EQ(t.runtime(a, std::nullopt), t.solo_runtime(a));
    EXPECT_EQ(t.iops(a, std::nullopt), t.solo_iops(a));
    EXPECT_NEAR(t.speed(a, std::nullopt), 1.0, 1e-12);
  }
}

TEST(PerfTable, InterferenceSlowsHeavyPairs) {
  PerfTable t = small_table();
  // video (1) against blastn (2): strong mutual I/O interference.
  EXPECT_GT(t.runtime(1, std::optional<std::size_t>(2)),
            1.5 * t.solo_runtime(1));
  EXPECT_LT(t.speed(1, std::optional<std::size_t>(2)), 0.7);
  // email (0) barely suffers from video.
  EXPECT_LT(t.runtime(0, std::optional<std::size_t>(1)),
            1.4 * t.solo_runtime(0));
}

TEST(PerfTable, SpeedsPositive) {
  PerfTable t = small_table();
  for (std::size_t a = 0; a < t.num_apps(); ++a)
    for (std::size_t b = 0; b < t.num_apps(); ++b)
      EXPECT_GT(t.speed(a, std::optional<std::size_t>(b)), 0.0);
}

TEST(PerfTable, ProfilesPopulated) {
  PerfTable t = small_table();
  EXPECT_GT(t.profile(1).reads_per_s, 100.0);  // video reads a lot
  EXPECT_GT(t.profile(0).writes_per_s, 1.0);
}

TEST(PerfTable, OraclePredictorMirrorsTable) {
  PerfTable t = small_table();
  sched::TablePredictor oracle = t.oracle_predictor();
  EXPECT_EQ(oracle.num_apps(), 3u);
  EXPECT_EQ(oracle.predict_runtime(1, std::optional<std::size_t>(2)),
            t.runtime(1, std::optional<std::size_t>(2)));
  EXPECT_EQ(oracle.predict_iops(2, std::nullopt), t.solo_iops(2));
}

TEST(PerfTable, CsvRoundTrip) {
  PerfTable t = small_table();
  std::stringstream ss;
  t.save_csv(ss);
  PerfTable loaded = PerfTable::load_csv(ss);
  ASSERT_EQ(loaded.num_apps(), t.num_apps());
  for (std::size_t a = 0; a < t.num_apps(); ++a) {
    EXPECT_EQ(loaded.app_name(a), t.app_name(a));
    EXPECT_DOUBLE_EQ(loaded.solo_runtime(a), t.solo_runtime(a));
    EXPECT_DOUBLE_EQ(loaded.profile(a).reads_per_s,
                     t.profile(a).reads_per_s);
    for (std::size_t b = 0; b < t.num_apps(); ++b) {
      auto nb = std::optional<std::size_t>(b);
      EXPECT_DOUBLE_EQ(loaded.runtime(a, nb), t.runtime(a, nb));
      EXPECT_DOUBLE_EQ(loaded.iops(a, nb), t.iops(a, nb));
    }
  }
}

// The paper testbed's ground-truth table (seed 42, the eight
// benchmarks), pinned byte for byte at save_csv's 17 significant
// digits. Every cell is one host simulation, so a change to the host
// model's arithmetic, its noise stream or the profiler's run seeds
// shows up here before it reaches any scheduling result.
TEST(PerfTable, PaperTestbedMatchesGolden) {
  model::Profiler prof(
      virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
  PerfTable t = PerfTable::build(prof, workload::paper_benchmarks());
  std::ostringstream os;
  t.save_csv(os);
  golden::expect_matches("perf_table_paper.csv", os.str());
}

TEST(PerfTable, LoadRejectsMalformedCsv) {
  std::stringstream not_ours("hello,world\n");
  EXPECT_THROW(PerfTable::load_csv(not_ours), std::invalid_argument);
  std::stringstream empty;
  EXPECT_THROW(PerfTable::load_csv(empty), std::invalid_argument);
  // Missing cells: header claims 2 apps but only app rows follow.
  std::stringstream truncated(
      "tracon-perftable,v1,2\napp,a,0,0,1,1\napp,b,0,0,1,1\n");
  EXPECT_THROW(PerfTable::load_csv(truncated), std::invalid_argument);
}

TEST(PerfTable, EmptyAppListThrows) {
  model::Profiler prof(
      virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
  EXPECT_THROW(PerfTable::build(prof, {}), std::invalid_argument);
}

}  // namespace
}  // namespace tracon::sim
