// Live rebalancing under a workload mix shift (DESIGN.md §6h).
//
// An interference-blind FIFO scheduler places tasks at random, so
// co-location quality is whatever the dice said — and halfway through
// the run the arrival mix shifts from light to heavy I/O, making the
// early placements stale even where they were lucky. The A/B:
//
//   rebalance   --rebalance on: a migrate::Rebalancer watches realized
//               per-(app, co-runner) slowdowns and moves running tasks
//               when the predicted gain beats the migration cost
//   static      placements are final (the paper's baseline behaviour)
//
// Both runs record a decision log; the post-shift mean realized
// slowdown comes from its outcome records (runtime / solo), so the
// numbers printed here are exactly what `tracon attribution` would
// compute. The comparison is rendered with the same report machinery
// as `tracon report A B`.
//
// Flags:
//   --store DIR    run store directory (default runs-rebalance-ab)
//   --hours H      horizon (default 2; the shift happens at H/2)
//   --json         emit the report as JSON instead of text
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "migrate/rebalancer.hpp"
#include "model/profiler.hpp"
#include "obs/decision_log.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "runstore/report.hpp"
#include "runstore/runstore.hpp"
#include "sched/fifo.hpp"
#include "sim/arrival_source.hpp"
#include "sim/dynamic_scenario.hpp"
#include "util/cli.hpp"
#include "workload/benchmarks.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace tracon;

struct AbRun {
  std::string id;
  std::size_t completed = 0;
  std::size_t migrations = 0;
  double post_shift_slowdown = 0.0;  ///< mean realized, t >= shift
};

AbRun run_once(const sim::PerfTable& table,
               const sched::TablePredictor& oracle, bool rebalance,
               double hours, runstore::RunStore& store) {
  obs::Telemetry tel;
  tel.tracer.set_enabled(false);
  tel.decisions.set_enabled(true);

  sim::DynamicConfig cfg;
  cfg.machines = 16;
  cfg.lambda_per_min = 9.0;
  cfg.duration_s = hours * 3600.0;
  cfg.seed = 5;
  cfg.telemetry = &tel;
  cfg.accuracy_probe = &oracle;
  cfg.accuracy_family = "oracle";
  const double shift_s = cfg.duration_s / 2.0;
  sim::MixShiftArrivalSource source(cfg.lambda_per_min, cfg.duration_s,
                                    shift_s, workload::MixKind::kLight,
                                    workload::MixKind::kHeavy, 1.5, cfg.seed);
  cfg.arrival_source = &source;

  migrate::RebalanceConfig rcfg;
  rcfg.interval_s = 120.0;
  rcfg.slowdown_threshold = 1.05;
  rcfg.min_cell_samples = 2;
  rcfg.min_benefit_s = 0.5;
  rcfg.max_moves_per_round = 4;
  std::optional<migrate::Rebalancer> reb;
  if (rebalance) {
    reb.emplace(oracle, rcfg);
    cfg.rebalancer = &*reb;
  }

  sched::FifoScheduler fifo(cfg.seed + 1);
  fifo.set_telemetry(&tel);
  tel.metrics.set_fingerprint("scheduler", fifo.name());
  tel.metrics.set_fingerprint("seed", std::to_string(cfg.seed));
  tel.metrics.set_fingerprint("rebalance", rebalance ? "on" : "off");
  sim::DynamicOutcome o = sim::run_dynamic(table, fifo, cfg);

  AbRun result;
  result.completed = o.completed;
  // Post-shift quality, straight from the run's own provenance: every
  // outcome record carries the realized runtime and the solo baseline.
  obs::DecisionDoc doc = obs::parse_decision_log(tel.decisions.str());
  double sum = 0.0;
  std::size_t n = 0;
  for (const obs::DecisionEvent& e : doc.events) {
    if (e.kind == obs::DecisionEvent::Kind::kMigration) ++result.migrations;
    if (e.kind != obs::DecisionEvent::Kind::kOutcome) continue;
    if (e.time_s < shift_s || e.solo_runtime_s <= 0.0) continue;
    sum += e.runtime_s / e.solo_runtime_s;
    ++n;
  }
  result.post_shift_slowdown = n == 0 ? 0.0 : sum / static_cast<double>(n);
  result.id = store.add_run(tel.metrics, fifo.name(),
                            rebalance ? "rebalance-on" : "rebalance-off", "",
                            [&](std::ostream& os) { tel.decisions.write(os); });
  std::printf("%-10s completed=%zu  migrations=%zu  post-shift mean "
              "slowdown=%.3fx\n",
              rebalance ? "rebalance" : "static", result.completed,
              result.migrations, result.post_shift_slowdown);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tracon;

  ArgParser args(argc, argv);
  const double hours = args.get_double("hours", 2.0);
  runstore::RunStore store(args.get("store", "runs-rebalance-ab"));

  model::Profiler prof(virt::HostSimulator(virt::HostConfig::paper_testbed()),
                       42);
  sim::PerfTable table =
      sim::PerfTable::build(prof, workload::paper_benchmarks());
  sched::TablePredictor oracle = table.oracle_predictor();

  std::printf("mix shift light->heavy at %.1f h, horizon %.1f h\n\n",
              hours / 2.0, hours);
  AbRun on = run_once(table, oracle, true, hours, store);
  AbRun off = run_once(table, oracle, false, hours, store);
  std::printf("\nrebalance/static post-shift slowdown: %.3f\n\n",
              off.post_shift_slowdown > 0.0
                  ? on.post_shift_slowdown / off.post_shift_slowdown
                  : 0.0);

  // The same diff the CLI renders for `tracon report <on> <off>`.
  runstore::RunRecord ra = *store.find(on.id);
  runstore::RunRecord rb = *store.find(off.id);
  runstore::RunReport report = runstore::diff_runs(
      runstore::summarize_metrics(obs::parse_json(store.read_metrics(ra))),
      runstore::summarize_metrics(obs::parse_json(store.read_metrics(rb))),
      ra.id + " (rebalance)", rb.id + " (static)");
  if (args.has("json")) {
    runstore::write_report_json(std::cout, report);
  } else {
    runstore::write_report_text(std::cout, report);
  }
  return 0;
}
