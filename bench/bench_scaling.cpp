// Scaling study for the sharded dynamic scenario (DESIGN.md section 7):
//
//   1. cluster sweep — 1024 / 4096 / 10000 machines under MIBS_8 at
//      1 task/machine/min, run at 1/2/4/8 worker threads. Results are
//      byte-identical across thread counts (asserted here via completed
//      counts); only wall-clock changes, so the table reports the
//      parallel speedup of the shard pool.
//   2. large tiers and placement microbench — 10^5 and 10^6 machines
//      through the flat candidate scan and through each scheduler's
//      candidate index, and the per-decision cost of both at 8 and 64
//      app classes.
//   3. decision-log overhead — the 4096-machine run repeated with
//      telemetry attached and decision recording off vs on, measuring
//      what the provenance stream (DESIGN.md section 6g) costs when
//      enabled (it is a no-op when off). The "on" row includes writing
//      the log into a discarding stream, where the shards' logs merge;
//   4. span-log overhead — the same off-vs-on probe for the
//      task-lifecycle span stream (DESIGN.md section 6i), which records
//      a span per co-runner epoch and so writes more events than the
//      decision log.
//
// When TRACON_BENCH_OUT names a directory, a machine-readable summary
// is written to $TRACON_BENCH_OUT/BENCH_scaling.json (CI consumes it;
// bench/run_all.sh exports the variable). Its "host" block stamps the
// rows with the cores, compiler, build type and commit they came from.
#include <chrono>
#include <ostream>
#include <streambuf>

#include "bench_common.hpp"
#include "obs/telemetry.hpp"
#include "sched/candidate_index.hpp"
#include "sim/shard_scenario.hpp"
#include "stats/matrix.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace tracon;

namespace {

const sim::PerfTable& table() {
  static sim::PerfTable t = [] {
    model::Profiler prof(
        virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
    return sim::PerfTable::build(prof, workload::paper_benchmarks());
  }();
  return t;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

const sched::TablePredictor& shared_oracle() {
  static sched::TablePredictor p = table().oracle_predictor();
  return p;
}

struct ScalingRow {
  std::size_t machines = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  double duration_s = 0.0;
  bool indexed = false;
  double wall_s = 0.0;
  double speedup = 0.0;
  double tasks_per_s = 0.0;
  std::size_t completed = 0;
};

/// One full sharded run; wall-clock measured around run_dynamic_sharded
/// only (table construction is shared and excluded). With `indexed`,
/// each shard's scheduler places through its own candidate index — the
/// default path; without, through the flat reference scan.
ScalingRow run_once(std::size_t machines, std::size_t threads,
                    double duration_s = 1'800.0, bool indexed = false) {
  const sched::TablePredictor& oracle = shared_oracle();
  sim::ShardedConfig cfg;
  cfg.machines = machines;
  cfg.lambda_per_min = static_cast<double>(machines);  // 1 task/machine/min
  cfg.duration_s = duration_s;
  cfg.seed = 7;
  cfg.threads = threads;
  auto start = std::chrono::steady_clock::now();
  sim::ShardedOutcome o = sim::run_dynamic_sharded(
      table(),
      [&](std::size_t) -> std::unique_ptr<sched::Scheduler> {
        auto s = std::make_unique<sched::MibsScheduler>(
            oracle, sched::Objective::kRuntime, 8, 60.0);
        if (!indexed) s->set_candidate_index(nullptr);
        return s;
      },
      cfg);
  ScalingRow row;
  row.machines = machines;
  row.shards = o.shards;
  row.threads = o.threads_used;
  row.duration_s = duration_s;
  row.indexed = indexed;
  row.wall_s = seconds_since(start);
  row.tasks_per_s =
      row.wall_s > 0.0 ? static_cast<double>(o.total.completed) / row.wall_s
                       : 0.0;
  row.completed = o.total.completed;
  return row;
}

struct DecisionRow {
  double wall_s = 0.0;
  std::size_t events = 0;  ///< records the log produced
};

/// A stream buffer that drops every byte, so a log's write() is timed
/// without the file system.
class DiscardBuffer final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

enum class Log { kDecisions, kSpans };

/// Log overhead probe: the 4096-machine sweep configuration re-run with
/// telemetry attached, once with `log` off (the gate makes every record
/// call a no-op) and once on. An "on" row also times the log's write()
/// into a discarding stream: that is where the shards' parts merge.
DecisionRow run_log(std::size_t machines, std::size_t threads, Log log,
                    bool on) {
  const sched::TablePredictor& oracle = [] {
    static sched::TablePredictor p = table().oracle_predictor();
    return p;
  }();
  sim::ShardedConfig cfg;
  cfg.machines = machines;
  cfg.lambda_per_min = static_cast<double>(machines);
  cfg.duration_s = 1'800.0;
  cfg.seed = 7;
  cfg.threads = threads;
  obs::Telemetry tel;
  tel.decisions.set_enabled(on && log == Log::kDecisions);
  tel.spans.set_enabled(on && log == Log::kSpans);
  cfg.telemetry = &tel;
  auto start = std::chrono::steady_clock::now();
  sim::run_dynamic_sharded(
      table(),
      [&](std::size_t) {
        return std::make_unique<sched::MibsScheduler>(
            oracle, sched::Objective::kRuntime, 8, 60.0);
      },
      cfg);
  if (on) {
    DiscardBuffer discard;
    std::ostream sink(&discard);
    if (log == Log::kDecisions) {
      tel.decisions.write(sink);
    } else {
      tel.spans.write(sink);
    }
  }
  DecisionRow row;
  row.wall_s = seconds_since(start);
  row.events =
      log == Log::kDecisions ? tel.decisions.size() : tel.spans.size();
  return row;
}

/// Deterministic many-class prediction table. The paper's testbed has
/// only 8 application classes, where the flat candidate scan is already
/// cheap; scaling the class count shows how each path grows with it.
/// Values follow a fixed formula, so the table is identical on every
/// run.
sched::TablePredictor synthetic_table(std::size_t classes) {
  stats::Matrix rt(classes, classes + 1);
  stats::Matrix io(classes, classes + 1);
  for (std::size_t i = 0; i < classes; ++i) {
    for (std::size_t j = 0; j <= classes; ++j) {
      rt(i, j) = 60.0 + 3.0 * static_cast<double>(i) +
                 static_cast<double>((i * 7 + j * 13) % 23);
      io(i, j) = 40.0 + 2.0 * static_cast<double>(i) +
                 static_cast<double>((i * 11 + j * 5) % 19);
    }
  }
  return sched::TablePredictor(rt, io);
}

struct PlacementMicro {
  std::size_t classes = 0;
  double flat_ns = 0.0;
  double indexed_ns = 0.0;
  double speedup = 0.0;
};

/// Per-decision cost of the Algorithm 1 candidate scan over a
/// half-occupied 4096-machine cluster: the flat scan over every class
/// vs the candidate index (identical placements by contract).
PlacementMicro placement_micro(const sched::TablePredictor& pred,
                               int iters) {
  const std::size_t n = pred.num_apps();
  sched::CandidateIndex idx(pred, sched::Objective::kRuntime);
  sched::ClusterCounts counts(n, 4'096);
  for (std::size_t m = 0; m < 2'048; ++m) counts.place(m % n, std::nullopt);
  sched::PlacementPolicy policy;  // strict beneficial-join admission
  PlacementMicro row;
  row.classes = n;
  std::size_t sink = 0;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    auto slot = sched::mios_best_slot(static_cast<std::size_t>(i) % n,
                                      counts, pred,
                                      sched::Objective::kRuntime, policy);
    sink += slot.has_value() ? 1 : 0;
  }
  row.flat_ns = seconds_since(start) * 1e9 / iters;
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    auto slot = sched::mios_best_slot(static_cast<std::size_t>(i) % n,
                                      counts, pred,
                                      sched::Objective::kRuntime, policy,
                                      /*exclude_empty=*/false, &idx);
    sink += slot.has_value() ? 1 : 0;
  }
  row.indexed_ns = seconds_since(start) * 1e9 / iters;
  row.speedup = row.indexed_ns > 0.0 ? row.flat_ns / row.indexed_ns : 0.0;
  if (sink == 0) std::fprintf(stderr, "warn: placement micro placed nothing\n");
  return row;
}

}  // namespace

int main() {
  bench::print_header("Scaling",
                      "sharded dynamic scenario and candidate index");
  std::printf("host threads: %zu (%s, %s, %s)\n\n", hardware_threads(),
              TRACON_COMPILER, TRACON_BUILD_TYPE, TRACON_GIT_DESCRIBE);
  bench::ThroughputReporter throughput("bench_scaling");

  std::vector<ScalingRow> rows;
  TableWriter scaling({"machines", "shards", "threads", "wall_s",
                       "speedup", "tasks_per_s", "completed"});
  for (std::size_t machines : {1'024UL, 4'096UL, 10'000UL}) {
    double base_wall = 0.0;
    std::size_t base_completed = 0;
    for (std::size_t threads : {1UL, 2UL, 4UL, 8UL}) {
      ScalingRow row = run_once(machines, threads);
      if (threads == 1) {
        base_wall = row.wall_s;
        base_completed = row.completed;
      } else if (row.completed != base_completed) {
        // The determinism contract just failed; make it loud.
        std::fprintf(stderr,
                     "ERROR: thread count changed results (%zu machines: "
                     "%zu vs %zu completed)\n",
                     machines, base_completed, row.completed);
        return 1;
      }
      row.speedup = base_wall / row.wall_s;
      rows.push_back(row);
      throughput.add_tasks(row.completed);
      scaling.add_row({std::to_string(row.machines),
                       std::to_string(row.shards),
                       std::to_string(row.threads), fmt(row.wall_s, 2),
                       fmt(row.speedup, 2), fmt(row.tasks_per_s, 0),
                       std::to_string(row.completed)});
    }
  }
  scaling.print(std::cout);

  // Large tiers (DESIGN.md section 7): the same 1 task/machine/min load
  // at 10^5 and 10^6 machines. Each tier first runs the exact candidate
  // scan once, then the indexed path (each shard's scheduler with its
  // own candidate index) at 1 and 4 worker threads; completed counts must
  // agree across all three runs — the byte-identity contract at scale.
  // The 10^6 horizon is shortened to 600 virtual seconds to keep the
  // whole bench minutes-scale; tasks/sec is the headline number.
  std::printf("\nlarge tiers (exact scan vs candidate index):\n");
  struct Tier {
    std::size_t machines;
    double duration_s;
  };
  std::vector<ScalingRow> large_rows;
  TableWriter large({"machines", "shards", "threads", "sim_s", "path",
                     "wall_s", "speedup", "tasks_per_s", "completed"});
  for (Tier tier : {Tier{100'000, 1'800.0}, Tier{1'000'000, 600.0}}) {
    ScalingRow exact = run_once(tier.machines, 1, tier.duration_s, false);
    exact.speedup = 1.0;
    for (std::size_t threads : {0UL, 1UL, 4UL}) {
      ScalingRow row = threads == 0
                           ? exact
                           : run_once(tier.machines, threads,
                                      tier.duration_s, true);
      if (row.completed != exact.completed) {
        std::fprintf(stderr,
                     "ERROR: candidate index changed results (%zu "
                     "machines: %zu vs %zu completed)\n",
                     tier.machines, exact.completed, row.completed);
        return 1;
      }
      row.speedup = exact.wall_s > 0.0 ? exact.wall_s / row.wall_s : 0.0;
      large_rows.push_back(row);
      throughput.add_tasks(row.completed);
      large.add_row({std::to_string(row.machines),
                     std::to_string(row.shards),
                     std::to_string(row.threads), fmt(row.duration_s, 0),
                     row.indexed ? "indexed" : "exact", fmt(row.wall_s, 2),
                     fmt(row.speedup, 2), fmt(row.tasks_per_s, 0),
                     std::to_string(row.completed)});
    }
  }
  large.print(std::cout);

  std::printf("\nplacement microbench "
              "(4096 machines, half occupied, strict admission):\n");
  std::vector<PlacementMicro> placement;
  TableWriter pmicro({"classes", "flat_ns", "indexed_ns", "speedup"});
  placement.push_back(placement_micro(shared_oracle(), 200'000));
  placement.push_back(placement_micro(synthetic_table(64), 50'000));
  for (const PlacementMicro& p : placement)
    pmicro.add_row({std::to_string(p.classes), fmt(p.flat_ns, 1),
                    fmt(p.indexed_ns, 1), fmt(p.speedup, 2)});
  pmicro.print(std::cout);

  const std::size_t dec_machines = 4'096;
  const std::size_t dec_threads = 4;
  std::printf("\ndecision-log overhead (%zu machines, %zu threads):\n",
              dec_machines, dec_threads);
  DecisionRow dec_off =
      run_log(dec_machines, dec_threads, Log::kDecisions, false);
  DecisionRow dec_on =
      run_log(dec_machines, dec_threads, Log::kDecisions, true);
  double dec_overhead_pct =
      dec_off.wall_s > 0.0 ? (dec_on.wall_s / dec_off.wall_s - 1.0) * 100.0
                           : 0.0;
  TableWriter decisions({"recording", "wall_s", "overhead_%", "events"});
  decisions.add_row({"off", fmt(dec_off.wall_s, 2), "0.00",
                     std::to_string(dec_off.events)});
  decisions.add_row({"on", fmt(dec_on.wall_s, 2), fmt(dec_overhead_pct, 2),
                     std::to_string(dec_on.events)});
  decisions.print(std::cout);

  std::printf("\nspan-log overhead (%zu machines, %zu threads):\n",
              dec_machines, dec_threads);
  DecisionRow span_off =
      run_log(dec_machines, dec_threads, Log::kSpans, false);
  DecisionRow span_on =
      run_log(dec_machines, dec_threads, Log::kSpans, true);
  double span_overhead_pct =
      span_off.wall_s > 0.0
          ? (span_on.wall_s / span_off.wall_s - 1.0) * 100.0
          : 0.0;
  TableWriter spans({"recording", "wall_s", "overhead_%", "events"});
  spans.add_row({"off", fmt(span_off.wall_s, 2), "0.00",
                 std::to_string(span_off.events)});
  spans.add_row({"on", fmt(span_on.wall_s, 2), fmt(span_overhead_pct, 2),
                 std::to_string(span_on.events)});
  spans.print(std::cout);

  const char* out_dir = std::getenv("TRACON_BENCH_OUT");
  if (out_dir != nullptr && *out_dir != '\0') {
    std::string path = std::string(out_dir) + "/BENCH_scaling.json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    out << "{\n  \"schema\": \"tracon.bench_scaling\",\n"
        << "  \"host\": {\"cores\": " << hardware_threads()
        << ", \"compiler\": \"" << TRACON_COMPILER
        << "\", \"build_type\": \"" << TRACON_BUILD_TYPE
        << "\", \"commit\": \"" << TRACON_GIT_DESCRIBE << "\"},\n"
        << "  \"scaling\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScalingRow& r = rows[i];
      out << "    {\"machines\": " << r.machines
          << ", \"shards\": " << r.shards << ", \"threads\": " << r.threads
          << ", \"wall_s\": " << fmt(r.wall_s, 4)
          << ", \"speedup\": " << fmt(r.speedup, 3)
          << ", \"tasks_per_sec\": " << fmt(r.tasks_per_s, 1)
          << ", \"completed\": " << r.completed << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"large_tiers\": [\n";
    for (std::size_t i = 0; i < large_rows.size(); ++i) {
      const ScalingRow& r = large_rows[i];
      out << "    {\"machines\": " << r.machines
          << ", \"shards\": " << r.shards << ", \"threads\": " << r.threads
          << ", \"duration_s\": " << fmt(r.duration_s, 1)
          << ", \"path\": \"" << (r.indexed ? "indexed" : "exact")
          << "\", \"wall_s\": " << fmt(r.wall_s, 4)
          << ", \"speedup_vs_exact\": " << fmt(r.speedup, 3)
          << ", \"tasks_per_sec\": " << fmt(r.tasks_per_s, 1)
          << ", \"completed\": " << r.completed << "}"
          << (i + 1 < large_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"placement_microbench\": [\n";
    for (std::size_t i = 0; i < placement.size(); ++i) {
      const PlacementMicro& p = placement[i];
      out << "    {\"classes\": " << p.classes
          << ", \"flat_ns_per_decision\": " << fmt(p.flat_ns, 2)
          << ", \"indexed_ns_per_decision\": " << fmt(p.indexed_ns, 2)
          << ", \"speedup\": " << fmt(p.speedup, 3) << "}"
          << (i + 1 < placement.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"decision_log\": {\"machines\": " << dec_machines
        << ", \"threads\": " << dec_threads
        << ", \"disabled_wall_s\": " << fmt(dec_off.wall_s, 4)
        << ", \"enabled_wall_s\": " << fmt(dec_on.wall_s, 4)
        << ", \"overhead_pct\": " << fmt(dec_overhead_pct, 2)
        << ", \"events\": " << dec_on.events << "},\n"
        << "  \"spans\": {\"machines\": " << dec_machines
        << ", \"threads\": " << dec_threads
        << ", \"disabled_wall_s\": " << fmt(span_off.wall_s, 4)
        << ", \"enabled_wall_s\": " << fmt(span_on.wall_s, 4)
        << ", \"overhead_pct\": " << fmt(span_overhead_pct, 2)
        << ", \"events\": " << span_on.events << "}\n}\n";
    std::printf("\nwrote %s\n", path.c_str());
  }
  return 0;
}
