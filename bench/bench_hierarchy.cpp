// Hierarchical management (Section 3's manager tree): does splitting
// the cluster across leaf managers preserve TRACON's scheduling gains,
// and what does partitioning cost relative to one flat cluster of the
// same total size?
//
// 64 machines total, heavy mix, lambda = 120/min: flat (1x64) vs
// 2x32, 4x16, 8x8 under round-robin routing of one root stream (the
// sharded engine with one shard per manager), each with MIBS_8 per
// manager, normalized to the flat FIFO baseline.
#include "bench_common.hpp"
#include "sim/shard_scenario.hpp"

using namespace tracon;

int main() {
  bench::print_header("Hierarchy",
                      "manager-tree partitioning at fixed total capacity");
  core::Tracon sys = bench::make_system();
  sys.train(model::ModelKind::kNonlinear);

  sim::DynamicConfig flat;
  flat.machines = 64;
  flat.lambda_per_min = 120.0;
  flat.duration_s = 18'000.0;
  flat.mix = workload::MixKind::kHeavy;
  auto fifo = sys.make_scheduler(core::SchedulerKind::kFifo,
                                 sched::Objective::kRuntime);
  auto base = sim::run_dynamic(sys.perf_table(), *fifo, flat);
  auto mibs = sys.make_scheduler(core::SchedulerKind::kMibs,
                                 sched::Objective::kRuntime, 8);
  auto flat_smart = sim::run_dynamic(sys.perf_table(), *mibs, flat);

  TableWriter out({"layout", "completed", "normalized vs flat FIFO",
                   "imbalance"});
  out.add_row({"flat FIFO (1x64)", std::to_string(base.completed),
               fmt(1.0, 3), "-"});
  out.add_row({"flat MIBS_8 (1x64)", std::to_string(flat_smart.completed),
               fmt(static_cast<double>(flat_smart.completed) /
                       static_cast<double>(base.completed),
                   3),
               "-"});
  for (std::size_t managers : {2UL, 4UL, 8UL}) {
    sim::ShardedConfig cfg;
    cfg.machines = flat.machines;
    cfg.shards = managers;
    cfg.routing = sim::Routing::kRoundRobin;
    cfg.lambda_per_min = flat.lambda_per_min;
    cfg.duration_s = flat.duration_s;
    cfg.mix = flat.mix;
    auto o = sim::run_dynamic_sharded(
        sys.perf_table(),
        [&](std::size_t) {
          return sys.make_scheduler(core::SchedulerKind::kMibs,
                                    sched::Objective::kRuntime, 8);
        },
        cfg);
    out.add_row({"MIBS_8 " + std::to_string(managers) + "x" +
                     std::to_string(64 / managers),
                 std::to_string(o.total.completed),
                 fmt(static_cast<double>(o.total.completed) /
                         static_cast<double>(base.completed),
                     3),
                 fmt(o.completion_imbalance(), 3)});
  }
  out.print(std::cout);
  std::printf(
      "\nexpected: partitioning preserves most of the interference-aware\n"
      "gain (each leaf still pairs within its shard); deeper splits cost\n"
      "a little pooling efficiency — the price of the paper's scalable\n"
      "manager tree.\n");
  return 0;
}
