#include "virt/host_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "golden.hpp"
#include "obs/scope_timer.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::virt {
namespace {

HostConfig quiet_config() {
  HostConfig cfg = HostConfig::paper_testbed();
  cfg.noise_sigma = 0.0;
  return cfg;
}

AppBehavior simple_app(double runtime = 50.0) {
  AppBehavior a;
  a.name = "simple";
  a.solo_runtime_s = runtime;
  a.cpu_util = 0.3;
  a.read_iops = 100;
  a.write_iops = 20;
  a.request_kb = 64;
  a.sequentiality = 0.8;
  return a;
}

TEST(HostSim, SoloRunsAtNominalRuntime) {
  HostSimulator sim(quiet_config());
  VmRunStats s = sim.solo(simple_app(50.0));
  EXPECT_TRUE(s.completed);
  EXPECT_NEAR(s.runtime_s, 50.0, 0.5);
  EXPECT_NEAR(s.reads_per_s, 100.0, 2.0);
  EXPECT_NEAR(s.writes_per_s, 20.0, 1.0);
  EXPECT_NEAR(s.avg_domu_cpu, 0.3, 0.01);
  EXPECT_GT(s.avg_dom0_cpu, 0.0);
}

TEST(HostSim, NoiseIsDeterministicPerSeed) {
  HostConfig cfg = HostConfig::paper_testbed();  // noisy
  HostSimulator sim(cfg);
  VmRunStats a = sim.solo(simple_app(), 5);
  VmRunStats b = sim.solo(simple_app(), 5);
  VmRunStats c = sim.solo(simple_app(), 6);
  EXPECT_EQ(a.runtime_s, b.runtime_s);
  EXPECT_NE(a.runtime_s, c.runtime_s);
}

TEST(HostSim, InterferenceExtendsRuntime) {
  HostSimulator sim(quiet_config());
  AppBehavior app = simple_app();
  double solo = sim.solo(app).runtime_s;
  AppBehavior heavy;
  heavy.name = "heavy";
  heavy.solo_runtime_s = 30.0;
  heavy.cpu_util = 0.4;
  heavy.read_iops = 300;
  heavy.write_iops = 100;
  heavy.sequentiality = 0.9;
  PairMeasurement pm = sim.measure_pair(app, heavy);
  EXPECT_GT(pm.runtime_s, solo);
  EXPECT_LT(pm.iops, 121.0);
}

TEST(HostSim, RecurringBackgroundKeepsRunning) {
  // Foreground outlives many background iterations; the run must still
  // terminate with the foreground completed.
  HostSimulator sim(quiet_config());
  AppBehavior fg = simple_app(80.0);
  AppBehavior bg = simple_app(5.0);
  bg.name = "short-bg";
  RunResult r = sim.run({VmWorkload{fg, false}, VmWorkload{bg, true}});
  EXPECT_TRUE(r.vms[0].completed);
  EXPECT_FALSE(r.vms[1].completed);  // recurring: never "done"
  EXPECT_GT(r.vms[1].reads_per_s, 0.0);
}

TEST(HostSim, MonitorSamplesArriveAtCadence) {
  HostConfig cfg = quiet_config();
  cfg.monitor_period_s = 1.0;
  HostSimulator sim(cfg);
  RunOptions opts;
  opts.collect_samples = true;
  RunResult r = sim.run({VmWorkload{simple_app(10.0), false}}, opts);
  // ~10 samples for a 10 s run on a 1 s period.
  ASSERT_GE(r.samples.size(), 9u);
  ASSERT_LE(r.samples.size(), 11u);
  for (std::size_t i = 1; i < r.samples.size(); ++i)
    EXPECT_NEAR(r.samples[i].time_s - r.samples[i - 1].time_s, 1.0, 0.01);
  EXPECT_NEAR(r.samples[3].reads_per_s, 100.0, 5.0);
}

TEST(HostSim, MaxTimeCapsRun) {
  HostSimulator sim(quiet_config());
  RunOptions opts;
  opts.max_time_s = 5.0;
  RunResult r = sim.run({VmWorkload{simple_app(100.0), false}}, opts);
  EXPECT_FALSE(r.vms[0].completed);
  EXPECT_LE(r.end_time_s, 5.1);
}

TEST(HostSim, BurstyAppCompletesNearNominal) {
  HostSimulator sim(quiet_config());
  AppBehavior bursty = simple_app(40.0);
  bursty.burstiness = 0.5;
  bursty.burst_period_s = 4.0;
  VmRunStats s = sim.solo(bursty);
  EXPECT_TRUE(s.completed);
  // Bursts average out; mild stretching allowed if peaks saturate.
  EXPECT_NEAR(s.runtime_s, 40.0, 4.0);
}

TEST(HostSim, EmptySlotAllowed) {
  HostSimulator sim(quiet_config());
  RunResult r = sim.run({VmWorkload{simple_app(5.0), false}, std::nullopt});
  EXPECT_TRUE(r.vms[0].completed);
  EXPECT_FALSE(r.vms[1].present);
}

TEST(HostSim, InvalidInputsThrow) {
  HostSimulator sim(quiet_config());
  EXPECT_THROW(sim.run({}), std::invalid_argument);
  AppBehavior zero;
  zero.cpu_util = 0.0;
  EXPECT_THROW(sim.run({VmWorkload{zero, false}}), std::invalid_argument);
  RunOptions opts;
  opts.max_time_s = -1.0;
  EXPECT_THROW(sim.run({VmWorkload{simple_app(), false}}, opts),
               std::invalid_argument);
}

// A sampled run of two bursty apps (compile against a recurring dedup,
// measurement noise on), pinned byte for byte: every monitor sample,
// then each VM's run stats, at 17 significant digits.
TEST(HostSim, SampledBurstyPairMatchesGolden) {
  HostSimulator sim(HostConfig::paper_testbed());
  RunOptions opts;
  opts.collect_samples = true;
  opts.noise_seed = 7;
  RunResult r =
      sim.run({VmWorkload{*workload::benchmark_by_name("compile"), false},
               VmWorkload{*workload::benchmark_by_name("dedup"), true}},
              opts);
  std::ostringstream os;
  os.precision(17);
  os << "time_s,vm,reads_per_s,writes_per_s,domu_cpu,dom0_cpu\n";
  for (const MonitorSample& s : r.samples)
    os << s.time_s << ',' << s.vm << ',' << s.reads_per_s << ','
       << s.writes_per_s << ',' << s.domu_cpu << ',' << s.dom0_cpu << "\n";
  os << "vm,present,completed,runtime_s,reads_per_s,writes_per_s,iops,"
        "avg_domu_cpu,avg_dom0_cpu\n";
  for (std::size_t v = 0; v < r.vms.size(); ++v) {
    const VmRunStats& s = r.vms[v];
    os << v << ',' << s.present << ',' << s.completed << ',' << s.runtime_s
       << ',' << s.reads_per_s << ',' << s.writes_per_s << ',' << s.iops
       << ',' << s.avg_domu_cpu << ',' << s.avg_dom0_cpu << "\n";
  }
  os << "end_time_s," << r.end_time_s << "\n";
  golden::expect_matches("host_sim_bursty_pair.csv", os.str());
}

// A run solves the host's operating point once per distinct demand
// vector, not once per step. Two bursty apps present at most 2 x 2
// burst-phase combinations, however many steps the measurement takes.
TEST(HostSim, BurstyPairSolvesEachOperatingPointOnce) {
  obs::ProfRegistry& prof = obs::ProfRegistry::global();
  prof.reset();
  prof.set_enabled(true);
  HostSimulator sim(HostConfig::paper_testbed());
  PairMeasurement pm =
      sim.measure_pair(*workload::benchmark_by_name("compile"),
                       *workload::benchmark_by_name("dedup"));
  prof.set_enabled(false);
  EXPECT_GT(pm.runtime_s, 0.0);
  EXPECT_EQ(prof.scope("virt.host_sim.run").calls, 1u);
  const std::uint64_t solves = prof.scope("virt.solve_speeds").calls;
  EXPECT_GE(solves, 1u);
  EXPECT_LE(solves, 4u);
}

// The Table 1 calibration invariants that the rest of the evaluation
// rests on (qualitative shape, generous tolerances).
TEST(HostSimCalibration, Table1Shape) {
  HostSimulator sim(quiet_config());
  using workload::calc_app;
  using workload::cpu_high_app;
  using workload::cpu_io_high_app;
  using workload::cpu_io_medium_app;
  using workload::io_high_app;
  using workload::seqread_app;

  double calc_solo = sim.solo(calc_app()).runtime_s;
  double seq_solo = sim.solo(seqread_app()).runtime_s;

  double calc_cpu = sim.measure_pair(calc_app(), cpu_high_app()).runtime_s;
  EXPECT_NEAR(calc_cpu / calc_solo, 2.0, 0.25);  // paper: 1.96

  double seq_cpu = sim.measure_pair(seqread_app(), cpu_high_app()).runtime_s;
  EXPECT_NEAR(seq_cpu / seq_solo, 1.0, 0.15);  // paper: 1.03

  double seq_io = sim.measure_pair(seqread_app(), io_high_app()).runtime_s;
  EXPECT_GT(seq_io / seq_solo, 6.0);  // paper: 10.23

  double seq_med =
      sim.measure_pair(seqread_app(), cpu_io_medium_app()).runtime_s;
  EXPECT_LT(seq_med / seq_solo, 4.0);  // paper: 1.78

  double seq_hi =
      sim.measure_pair(seqread_app(), cpu_io_high_app()).runtime_s;
  EXPECT_GT(seq_hi, seq_io);  // CPU&IO-high is the worst case (16.11)
}

}  // namespace
}  // namespace tracon::virt
