// tracon — command-line front end to the TRACON library.
//
// Subcommands:
//   tracon table1                reproduce the interference micro-table
//   tracon matrix                pairwise slowdown / IOPS-retention matrix
//   tracon predict               model vs measured for one app pair
//   tracon static                schedule a batch and report Speedup/IOBoost
//   tracon dynamic               Poisson-arrival cluster simulation
//   tracon hierarchy             the paper's manager tree: --managers M
//                                of --machines N each, one root arrival
//                                stream split by --routing rr|random
//   tracon record                dynamic run that also writes an arrival
//                                trace (--out) and stores the run (--store)
//   tracon replay                re-run a recorded trace (--trace) under
//                                any --scheduler; stores the run
//   tracon runs                  list the runs in a run store
//   tracon report A B            A/B diff of two stored runs by id prefix
//                                (counters, latency, model accuracy, and —
//                                when both runs stored a snapshot series —
//                                per-window divergence);
//                                --json for machine-readable output
//   tracon timeline              render a tracon.metrics_series file
//                                (--series FILE) or a stored run's series
//                                (<run-id-prefix> [--store DIR]) as an
//                                aligned per-window table; --json,
//                                --metric SUBSTR to filter columns
//   tracon explain TASK          why one placement happened: the
//                                candidate slots scanned, per-family
//                                predictions, confidence weights, and
//                                margin for task TASK, plus the joined
//                                outcome; reads --decisions FILE or a
//                                stored run (<run-id-prefix> [--store])
//   tracon attribution           decision quality for a whole run:
//                                per-co-location-pair realized-slowdown
//                                heatmap and worst-mispredicts table
//                                (--top N, default 10); --json for
//                                machine-readable output
//   tracon breakdown             latency accounting for a whole run:
//                                every completed task's end-to-end
//                                latency decomposed into wait + solo +
//                                interference + migration, aggregated
//                                per app class (and per window with
//                                --window S); reads --spans FILE or a
//                                stored run (<run-id-prefix> [--store]);
//                                --json for machine-readable output
//   tracon critical-path         the chain of tasks that set the
//                                makespan: walk back from the last
//                                completion through each same-machine
//                                predecessor; same sources as breakdown
//
// Common flags:
//   --host paper|ssd|raid|iscsi  host/storage model   (default paper)
//   --model wmm|lm|nlm|nlm-log   prediction model     (default nlm)
//   --seed N                     RNG seed             (default 42)
//   --csv                        machine-readable output where applicable
//   --prof                       print wall-clock kernel profile to stderr
//
// Run-shape flags (dynamic, record, hierarchy; replay takes
// --machines/--queue):
//   --machines N (>= 1)  --lambda PER_MIN (> 0)  --hours H (> 0)
//   --queue N (>= 1)  --threads N (>= 0)  --shards K (>= 0)
//   These and every other flag of a simulated run (scheduler, snapshot,
//   confidence and rebalancing flags, and their combinations) are
//   checked before the host profiling and model training start; a bad
//   value, or a flag the subcommand does not read (static and
//   hierarchy included), exits 1 with a message naming the flag. When
//   the FIFO baseline completes nothing (a horizon shorter than any
//   task), the summary prints "normalized n/a".
//
// Telemetry flags (dynamic, record, replay):
//   --metrics-out FILE           metrics registry as JSON
//   --metrics-csv FILE           metrics registry as CSV
//   --trace-out FILE             Chrome trace_event JSON (Perfetto-loadable)
//   --trace-jsonl FILE           one trace event per line
//   --events-jsonl FILE          per-task event log (tracon.task_events):
//                                the trace's arrived/dropped/placed/
//                                completed events, each with time_s,
//                                event, app and (placed/completed)
//                                machine
//   --trace FILE                 the same log as CSV (dynamic only)
//   Every sink only records: a run with any set of them simulates the
//   same run as with none. Every export file is opened before the
//   set-up work, so a path that cannot be written, or a regular file
//   two exports name, fails at once.
//
// Sharded execution (DESIGN.md §7): every simulated run goes through
// one engine, sim::run_dynamic_sharded. A `dynamic` run without the
// two flags below is one shard — the flat cluster; `record` and
// `replay` always are.
//   --threads N                  run the set-up's host runs and model
//                                fits, then the shards, on N workers
//                                (0 = all cores; dynamic, hierarchy);
//                                every export is byte-identical for
//                                every N at a fixed seed/shard count
//   --shards K                   machine shards (default with either
//                                flag: auto, one per 128 machines,
//                                clamped to [1, 64]); part of the
//                                simulated system's shape. A run that
//                                resolves to one shard is the flag-free
//                                run, byte for byte.
//   --prof requires --threads 1, so its counts are the serial
//   set-up's.
//
// Snapshot / confidence flags (dynamic, record, replay):
//   --snapshot-interval S        sample a tracon.metrics_series window
//                                every S sim-seconds (record/replay also
//                                store the series alongside the run)
//   --series-out FILE            write the series JSONL (implies
//                                snapshots at the default 600 s interval)
//   --confidence-weighting       schedule with the confidence-weighted
//                                WMM/LM/NLM ensemble instead of the
//                                single --model table (requires
//                                --scheduler mix); one ensemble per
//                                shard, so it works with --threads
//   --accuracy-window N          rolling accuracy window size (default 64)
//
// Decision provenance flags (DESIGN.md §6g):
//   --decisions-out FILE         write the tracon.decision_log JSONL
//                                (dynamic, record, replay; works with
//                                --threads — the merged log is
//                                byte-identical across thread counts;
//                                `dynamic` streams it during the run,
//                                one epoch of records at a time)
//   --decisions                  record the decision log and store it
//                                with the run (record/replay), readable
//                                later via `explain` / `attribution`
//
// Lifecycle span flags (DESIGN.md §6i):
//   --spans-out FILE             write the tracon.spans JSONL (dynamic,
//                                record, replay; works with --threads —
//                                the merged log is byte-identical
//                                across thread counts; `dynamic`
//                                streams it like --decisions-out)
//   --spans                      record the span log and store it with
//                                the run (record/replay), readable
//                                later via `breakdown` / `critical-path`
//                                / `explain`
//
// Live rebalancing flags (dynamic, record, replay; DESIGN.md §6h):
//   --rebalance                  run a migrate::Rebalancer round every
//                                --rebalance-interval sim-seconds
//                                (default 60): tasks in degrading
//                                (app, co-runner) cells move when the
//                                predicted benefit beats the migration
//                                cost by --rebalance-min-benefit s
//   --rebalance-max-moves N      cap migrations per round (default 2)
//   --migration-downtime S       stop-and-copy pause, s (default 0.5)
//   --migration-bandwidth MBPS   copy bandwidth      (default 400)
//   --working-set MB             copied working set  (default 512)
//   --migration-interference F   host slowdown fraction while copying,
//                                in [0,1)            (default 0.25)
//   Works with --threads: rebalancing is per shard, and every export
//   stays byte-identical across thread counts. Migrations appear in
//   the decision log as `migration` records (`explain` shows them).
// All telemetry timestamps are virtual-clock; same-seed runs produce
// byte-identical files (including the snapshot series and decision
// log).
//
// Examples:
//   tracon matrix --host ssd
//   tracon predict --fg video --bg blastn
//   tracon static --machines 16 --mix medium --objective io
//   tracon dynamic --machines 64 --lambda 80 --hours 10
//          [continued] --scheduler mibs --queue 8 --mix heavy
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "core/tracon.hpp"
#include "migrate/rebalancer.hpp"
#include "obs/accuracy.hpp"
#include "obs/attribution.hpp"
#include "obs/breakdown.hpp"
#include "obs/decision_log.hpp"
#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/scope_timer.hpp"
#include "obs/snapshot.hpp"
#include "obs/span_log.hpp"
#include "obs/telemetry.hpp"
#include "replay/arrival_trace.hpp"
#include "runstore/report.hpp"
#include "runstore/runstore.hpp"
#include "sched/fifo.hpp"
#include "sched/predictor.hpp"
#include "sim/arrival_source.hpp"
#include "sim/shard_scenario.hpp"
#include "sim/static_scenario.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "virt/host_sim.hpp"
#include "workload/benchmarks.hpp"
#include "workload/mixes.hpp"

// Injected by tools/CMakeLists.txt from `git describe` at configure
// time; stamps run fingerprints so stored runs record the build.
#ifndef TRACON_GIT_DESCRIBE
#define TRACON_GIT_DESCRIBE "unknown"
#endif

namespace {

using namespace tracon;

virt::HostConfig host_by_name(const std::string& h) {
  if (h == "paper") return virt::HostConfig::paper_testbed();
  if (h == "ssd") return virt::HostConfig::ssd_testbed();
  if (h == "raid") return virt::HostConfig::raid_testbed();
  if (h == "iscsi") return virt::HostConfig::iscsi_testbed();
  throw std::invalid_argument("unknown --host '" + h +
                              "' (paper|ssd|raid|iscsi)");
}

virt::HostConfig host_from(const ArgParser& args) {
  return host_by_name(args.get("host", "paper"));
}

model::ModelKind model_by_name(const std::string& m) {
  if (m == "wmm") return model::ModelKind::kWmm;
  if (m == "lm") return model::ModelKind::kLinear;
  if (m == "nlm") return model::ModelKind::kNonlinear;
  if (m == "nlm-log") return model::ModelKind::kNonlinearLog;
  if (m == "nlm-nodom0") return model::ModelKind::kNonlinearNoDom0;
  throw std::invalid_argument("unknown --model '" + m +
                              "' (wmm|lm|nlm|nlm-log|nlm-nodom0)");
}

workload::MixKind mix_by_name(const std::string& m) {
  if (m == "light") return workload::MixKind::kLight;
  if (m == "medium") return workload::MixKind::kMedium;
  if (m == "heavy") return workload::MixKind::kHeavy;
  if (m == "uniform") return workload::MixKind::kUniform;
  throw std::invalid_argument("unknown --mix '" + m +
                              "' (light|medium|heavy|uniform)");
}

workload::MixKind mix_from(const ArgParser& args) {
  return mix_by_name(args.get("mix", "medium"));
}

/// Reads the run-shape flags of `dynamic`, `record` and `hierarchy`
/// (whose --machines counts per manager, default `machines`) into a
/// sim::ShardedConfig. Callers read them before make_system, so a bad
/// value fails at once with a message naming the flag instead of after
/// the host profiling and model training.
void read_run_shape(const ArgParser& args, sim::ShardedConfig& cfg,
                    std::size_t machines = 64) {
  cfg.machines = args.get_count("machines", machines, 1);
  cfg.lambda_per_min = args.get_positive("lambda", 100.0);
  cfg.duration_s = args.get_positive("hours", 10.0) * 3600.0;
  cfg.mix = mix_from(args);
  cfg.queue_capacity = args.get_count("queue", 8, 1);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
}

/// The summary's normalized-throughput figure: completed / FIFO
/// completed to three decimals, or "n/a" when the FIFO baseline
/// completed nothing (a horizon shorter than any task) and the ratio
/// is undefined.
std::string normalized_text(std::size_t completed, std::size_t fifo) {
  if (fifo == 0) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(completed) / static_cast<double>(fifo));
  return buf;
}

/// Parses the live-rebalancing knobs (DESIGN.md §6h), each checked
/// against the range the rebalancer and the migration cost model
/// accept. Returns true when --rebalance is on; `out` then carries the
/// round interval, the hysteresis margin, and the migration cost
/// model's parameters.
bool rebalance_from(const ArgParser& args, migrate::RebalanceConfig* out) {
  if (!args.has("rebalance")) return false;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  out->interval_s = args.get_positive("rebalance-interval", out->interval_s);
  out->min_benefit_s = args.get_in_range("rebalance-min-benefit",
                                         out->min_benefit_s, 0.0, kInf);
  out->max_moves_per_round =
      args.get_count("rebalance-max-moves", out->max_moves_per_round, 1);
  out->cost.downtime_s = args.get_in_range("migration-downtime",
                                           out->cost.downtime_s, 0.0, kInf);
  out->cost.copy_bandwidth_mbps =
      args.get_positive("migration-bandwidth", out->cost.copy_bandwidth_mbps);
  out->cost.working_set_mb =
      args.get_positive("working-set", out->cost.working_set_mb);
  out->cost.copy_interference = args.get_in_range(
      "migration-interference", out->cost.copy_interference, 0.0, 1.0);
  return true;
}

/// App-class id -> benchmark name, for human-readable decision output.
std::string app_class_name(std::size_t app) {
  const auto& apps = workload::paper_benchmarks();
  if (app < apps.size()) return apps[app].name;
  return "app" + std::to_string(app);
}

std::string neighbour_name(const std::optional<std::size_t>& neighbour) {
  return neighbour.has_value() ? app_class_name(*neighbour)
                               : std::string("empty");
}

/// Span kind -> display / JSON label (matches the serialized kind).
std::string span_state_name(obs::SpanEvent::Kind kind) {
  switch (kind) {
    case obs::SpanEvent::Kind::kQueued: return "queued";
    case obs::SpanEvent::Kind::kRunning: return "running";
    case obs::SpanEvent::Kind::kMigrationFreeze: return "migration_freeze";
    case obs::SpanEvent::Kind::kMigrationCopy: return "migration_copy";
    case obs::SpanEvent::Kind::kCompleted: return "completed";
  }
  return "unknown";
}

/// Profiles the paper benchmarks and, when `train`, fits the --model
/// family: the set-up, its host runs and model fits on `threads`
/// workers (`dynamic` and `hierarchy` pass their resolved --threads).
core::Tracon make_system(const ArgParser& args, bool train,
                         std::size_t threads = 1) {
  core::TraconConfig cfg;
  cfg.host = host_from(args);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  // Parsed before the host profiling so a bad --model fails at once.
  const model::ModelKind kind = train ? model_by_name(args.get("model", "nlm"))
                                      : model::ModelKind::kNonlinear;
  core::Tracon sys(cfg);
  sys.register_applications(workload::paper_benchmarks(), threads);
  if (train) sys.train(kind, threads);
  return sys;
}

void emit(const TableWriter& table, const ArgParser& args) {
  if (args.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

int cmd_table1(const ArgParser& args) {
  virt::HostConfig cfg = host_from(args);
  cfg.noise_sigma = 0.0;
  virt::HostSimulator sim(cfg);
  TableWriter out({"App1\\App2", "cpu-high", "io-high", "cpu-io-med",
                   "cpu-io-high"});
  for (const auto& fg : {workload::calc_app(), workload::seqread_app()}) {
    double solo = sim.solo(fg).runtime_s;
    std::vector<double> row;
    for (const auto& bg :
         {workload::cpu_high_app(), workload::io_high_app(),
          workload::cpu_io_medium_app(), workload::cpu_io_high_app()})
      row.push_back(sim.measure_pair(fg, bg).runtime_s / solo);
    out.add_row_numeric(fg.name, row, 2);
  }
  emit(out, args);
  return 0;
}

int cmd_matrix(const ArgParser& args) {
  core::Tracon sys = make_system(args, false);
  const sim::PerfTable& t = sys.perf_table();
  std::vector<std::string> header = {"slowdown"};
  for (std::size_t b = 0; b < t.num_apps(); ++b)
    header.push_back(t.app_name(b));
  header.push_back("solo_s");
  TableWriter out(header);
  for (std::size_t a = 0; a < t.num_apps(); ++a) {
    std::vector<double> row;
    for (std::size_t b = 0; b < t.num_apps(); ++b)
      row.push_back(t.runtime(a, b) / t.solo_runtime(a));
    row.push_back(t.solo_runtime(a));
    out.add_row_numeric(t.app_name(a), row, 2);
  }
  emit(out, args);
  return 0;
}

int cmd_predict(const ArgParser& args) {
  auto fg = workload::benchmark_by_name(args.get("fg", "video"));
  auto bg = workload::benchmark_by_name(args.get("bg", "blastn"));
  if (!fg || !bg) {
    std::fprintf(stderr, "unknown --fg/--bg benchmark name\n");
    return 2;
  }
  core::Tracon sys = make_system(args, true);
  const sim::PerfTable& t = sys.perf_table();
  std::size_t fi = 0, bi = 0;
  for (std::size_t a = 0; a < t.num_apps(); ++a) {
    if (t.app_name(a) == fg->name) fi = a;
    if (t.app_name(a) == bg->name) bi = a;
  }
  std::printf("%s next to %s (%s, model %s):\n", fg->name.c_str(),
              bg->name.c_str(), args.get("host", "paper").c_str(),
              model::model_kind_name(sys.model_kind()).c_str());
  std::printf("  runtime: predicted %8.1f s   measured %8.1f s   solo %8.1f s\n",
              sys.predictor().predict_runtime(fi, bi), t.runtime(fi, bi),
              t.solo_runtime(fi));
  std::printf("  IOPS:    predicted %8.1f     measured %8.1f     solo %8.1f\n",
              sys.predictor().predict_iops(fi, bi), t.iops(fi, bi),
              t.solo_iops(fi));
  return 0;
}

/// A --scheduler / --objective choice plus the manager queue bound,
/// read and checked before any set-up work; make_scheduler builds it.
struct SchedulerChoice {
  core::SchedulerKind kind = core::SchedulerKind::kMibs;
  sched::Objective objective = sched::Objective::kRuntime;
  std::size_t queue = 8;
};

SchedulerChoice scheduler_choice(const ArgParser& args, std::size_t queue) {
  SchedulerChoice c;
  const std::string s = args.get("scheduler", "mibs");
  if (s == "fifo") c.kind = core::SchedulerKind::kFifo;
  else if (s == "mios") c.kind = core::SchedulerKind::kMios;
  else if (s == "mibs") c.kind = core::SchedulerKind::kMibs;
  else if (s == "mix") c.kind = core::SchedulerKind::kMix;
  else
    throw std::invalid_argument("flag --scheduler must be fifo|mios|mibs|mix, "
                                "got '" + s + "'");
  const std::string o = args.get("objective", "rt");
  if (o == "io") c.objective = sched::Objective::kIops;
  else if (o != "rt")
    throw std::invalid_argument("flag --objective must be rt|io, got '" + o +
                                "'");
  c.queue = queue;
  return c;
}

std::unique_ptr<sched::Scheduler> make_scheduler(
    const core::Tracon& sys, const SchedulerChoice& c, bool static_batch,
    const sched::Predictor* predictor_override = nullptr) {
  sched::PlacementPolicy policy;
  if (static_batch) policy.beneficial_joins_only = false;
  return sys.make_scheduler(c.kind, c.objective, c.queue,
                            static_batch ? 0.0 : 60.0, policy,
                            predictor_override);
}

/// Fails, naming them, on the flags simulating subcommand `cmd` does
/// not read: a misspelt or retired flag would otherwise run a different
/// experiment without a word. Called first, before any set-up work.
void reject_unknown_flags(const ArgParser& args, const std::string& cmd) {
  using Flags = std::vector<std::string>;
  const Flags shape = {"machines", "lambda", "hours", "mix", "queue", "seed"};
  const Flags setup = {"host", "model", "scheduler", "objective"};
  const Flags run = {
      "confidence-weighting", "accuracy-window", "snapshot-interval",
      "series-out", "rebalance", "rebalance-interval",
      "rebalance-min-benefit", "rebalance-max-moves", "migration-downtime",
      "migration-bandwidth", "working-set", "migration-interference",
      "metrics-out", "metrics-csv", "trace-out", "trace-jsonl",
      "decisions-out", "spans-out", "events-jsonl"};
  const Flags store = {"store", "decisions", "spans"};
  std::vector<Flags> groups;
  if (cmd == "dynamic")
    groups = {shape, setup, run, {"threads", "shards", "trace"}};
  else if (cmd == "record")
    groups = {shape, setup, run, store, {"out"}};
  else if (cmd == "replay")
    groups = {setup, run, store, {"trace", "machines", "queue"}};
  else if (cmd == "hierarchy")
    groups = {shape, setup, {"managers", "threads", "routing"}};
  else if (cmd == "static")
    groups = {setup, {"machines", "mix", "queue", "seed"}};
  Flags known = {"prof"};  // main reads it for every subcommand
  for (const Flags& g : groups) known.insert(known.end(), g.begin(), g.end());
  const Flags unknown = args.unknown_flags(known);
  if (unknown.empty()) return;
  std::string names;
  for (const std::string& flag : unknown)
    names += (names.empty() ? "--" : ", --") + flag;
  throw std::invalid_argument(
      std::string(unknown.size() == 1 ? "unknown flag " : "unknown flags ") +
      names + " for tracon " + cmd);
}

/// --prof's ScopeStats accumulation is deliberately unsynchronized
/// (profiling is wall-clock anyway), so it needs a single worker, for
/// the set-up as for the shards.
void check_prof(const ArgParser& args, std::size_t threads) {
  TRACON_REQUIRE(!args.has("prof") || threads == 1,
                 "--prof requires --threads 1: the profiling accumulators "
                 "are not synchronized across workers");
}

int cmd_static(const ArgParser& args) {
  reject_unknown_flags(args, "static");
  const std::size_t machines = args.get_count("machines", 16, 1);
  const workload::MixKind mix = mix_from(args);
  const SchedulerChoice choice =
      scheduler_choice(args, args.get_count("queue", 8, 1));
  core::Tracon sys = make_system(args, true);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)) + 7);
  auto tasks = workload::sample_task_indices(mix, 2 * machines, rng);
  double fifo_rt = 0, fifo_io = 0;
  constexpr int kRepeats = 20;
  for (int r = 0; r < kRepeats; ++r) {
    sched::FifoScheduler fifo(500 + static_cast<unsigned>(r));
    auto o = sim::run_static(sys.perf_table(), fifo, tasks, machines);
    fifo_rt += o.total_runtime / kRepeats;
    fifo_io += o.total_iops / kRepeats;
  }
  auto sched = make_scheduler(sys, choice, true);
  auto o = sim::run_static(sys.perf_table(), *sched, tasks, machines);
  std::printf("%s on %zu machines, %zu %s tasks:\n", sched->name().c_str(),
              machines, tasks.size(), args.get("mix", "medium").c_str());
  std::printf("  total runtime %10.1f s  (FIFO avg %10.1f, Speedup %.3f)\n",
              o.total_runtime, fifo_rt, fifo_rt / o.total_runtime);
  std::printf("  total IOPS    %10.1f    (FIFO avg %10.1f, IOBoost %.3f)\n",
              o.total_iops, fifo_io, o.total_iops / fifo_io);
  if (o.unplaced > 0) std::printf("  unplaced tasks: %zu\n", o.unplaced);
  return 0;
}

/// One export file a run can write: the flag naming it and its noun in
/// messages.
struct ExportKind {
  const char* flag;
  const char* what;
};

/// Every export, in the order a run reports them.
constexpr ExportKind kExports[] = {
    {"metrics-out", "metrics JSON"},  {"metrics-csv", "metrics CSV"},
    {"trace-out", "Chrome trace"},    {"trace-jsonl", "JSONL trace"},
    {"series-out", "metrics series"}, {"decisions-out", "decision log"},
    {"spans-out", "span log"},        {"trace", "task-event CSV"},
    {"events-jsonl", "task-event JSONL"}};
constexpr std::size_t kNumExports = std::size(kExports);

/// One simulated run of `dynamic`, `record` or `replay`: the engine
/// configuration its flags describe, the provenance its fingerprint
/// records, and the sinks it writes.
struct Run {
  sim::ShardedConfig cfg;  ///< sink pointers are wired by simulate()
  SchedulerChoice scheduler;
  /// `record`/`replay`: metrics always on (the run store keeps them),
  /// --decisions/--spans record the logs for the store, and --trace is
  /// not a task-event sink (replay reads its input trace from it).
  bool store = false;
  bool telemetry = false;   ///< record into `tel`
  bool confidence = false;  ///< --confidence-weighting
  std::size_t accuracy_window = 64;
  std::string host = "paper";
  std::string model = "nlm";  ///< CLI token, as --model takes it
  std::string source = "live";
  obs::Telemetry tel;
  /// The export files, in kExports order, each open when its flag names
  /// it (open_exports).
  std::array<std::ofstream, kNumExports> files;

  std::ofstream& file(std::string_view flag) {
    for (std::size_t k = 0; k < kNumExports; ++k)
      if (kExports[k].flag == flag) return files[k];
    throw std::logic_error("no export flag --" + std::string(flag));
  }
};

/// Reads every flag of a run besides its shape (already in run.cfg)
/// and checks their combinations, all before make_system: a bad value
/// fails with a message naming the flag before any set-up work.
void read_run_flags(const ArgParser& args, Run& run) {
  sim::ShardedConfig& cfg = run.cfg;
  run.scheduler = scheduler_choice(args, cfg.queue_capacity);
  run.confidence = args.has("confidence-weighting");
  run.accuracy_window = args.get_count("accuracy-window", 64, 1);
  run.host = args.get("host", run.host);
  run.model = args.get("model", run.model);
  TRACON_REQUIRE(
      !run.confidence || run.scheduler.kind == core::SchedulerKind::kMix,
      "--confidence-weighting requires --scheduler mix");
  check_prof(args, cfg.threads);
  cfg.rebalance = rebalance_from(args, &cfg.rebalance_cfg);
  const bool series = args.has("snapshot-interval") || args.has("series-out");
  if (series)
    cfg.snapshot_interval_s = args.get_positive("snapshot-interval", 600.0);

  obs::Telemetry& tel = run.tel;
  // The task-event log is the tracer's kTask* stream.
  tel.tracer.set_enabled(args.has("trace-out") || args.has("trace-jsonl") ||
                         args.has("events-jsonl") ||
                         (!run.store && args.has("trace")));
  tel.decisions.set_enabled(args.has("decisions-out") ||
                            (run.store && args.has("decisions")));
  tel.spans.set_enabled(args.has("spans-out") ||
                        (run.store && args.has("spans")));
  run.telemetry = run.store || series || run.confidence ||
                  args.has("metrics-out") || args.has("metrics-csv") ||
                  tel.tracer.enabled() || tel.decisions.enabled() ||
                  tel.spans.enabled();
}

/// Whether `args` names export `k` of `run`: `record` and `replay` read
/// --trace as something else.
bool names_export(const ArgParser& args, const Run& run, std::size_t k) {
  return args.has(kExports[k].flag) &&
         !(run.store && std::string_view(kExports[k].flag) == "trace");
}

/// Opens every export file the flags name, before any set-up work, so a
/// path that cannot be written fails at once instead of after the run.
/// Two exports open at once would overwrite each other's bytes, so a
/// regular file named twice is refused too. Returns false after naming
/// each file it cannot open.
bool open_exports(const ArgParser& args, Run& run) {
  bool ok = true;
  for (std::size_t k = 0; k < kNumExports; ++k) {
    if (!names_export(args, run, k)) continue;
    const std::string path = args.get(kExports[k].flag);
    run.files[k].open(path, std::ios::binary);
    if (!run.files[k]) {
      std::fprintf(stderr, "cannot open %s file '%s'\n", kExports[k].what,
                   path.c_str());
      ok = false;
      continue;
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (run.files[j].is_open() && args.get(kExports[j].flag) == path &&
          std::filesystem::is_regular_file(path)) {
        std::fprintf(stderr, "cannot open %s file '%s': --%s writes it\n",
                     kExports[k].what, path.c_str(), kExports[j].flag);
        ok = false;
      }
    }
  }
  return ok;
}

/// Stamps the run-identity block every metrics export carries — enough
/// to tell two stored runs apart and to reproduce either one — and
/// copies it onto the decision and span logs, before the run: the logs
/// write their headers first. The logs never carry the execution shape
/// (DESIGN.md §6g/§6i keep them byte-identical across `--threads N`),
/// and the metrics carry it only for a multi-shard run, after the run.
void stamp_fingerprint(Run& run, const sim::ShardedConfig& cfg,
                       const std::string& scheduler) {
  obs::MetricsRegistry& m = run.tel.metrics;
  m.set_fingerprint("seed", std::to_string(cfg.seed));
  m.set_fingerprint("scheduler", scheduler);
  m.set_fingerprint("machines", std::to_string(cfg.machines));
  m.set_fingerprint("mix", workload::mix_name(cfg.mix));
  m.set_fingerprint("host", run.host);
  m.set_fingerprint("model", run.model);
  m.set_fingerprint("source", run.source);
  m.set_fingerprint("build", TRACON_GIT_DESCRIBE);
  if (run.confidence) m.set_fingerprint("confidence", "on");
  if (cfg.rebalance) {
    m.set_fingerprint("rebalance", "on");
    m.set_fingerprint("rebalance_interval",
                      obs::json_number(cfg.rebalance_cfg.interval_s));
  }
  for (const auto& [key, value] : m.fingerprint()) {
    run.tel.decisions.set_fingerprint(key, value);
    run.tel.spans.set_fingerprint(key, value);
  }
}

/// Runs `run` on the engine and stamps its fingerprint. Builds the
/// per-shard schedulers (each TRACON scheduler places through its own
/// candidate index) and, with --confidence-weighting, one ensemble per
/// shard over WMM/LM/NLM tables trained once, on the run's workers,
/// and shared read-only.
/// `dynamic` streams its decision and span logs into their files as the
/// run goes; `record` and `replay` keep them for the run store.
/// `scheduler` receives the scheduler's display name.
sim::ShardedOutcome simulate(const core::Tracon& sys, Run& run,
                             std::string& scheduler) {
  // A working copy: the pointers it gains below point at `run` and at
  // locals.
  sim::ShardedConfig cfg = run.cfg;
  if (run.telemetry) cfg.telemetry = &run.tel;
  const std::size_t shards = sim::shard_count(cfg);
  if (cfg.rebalance) cfg.rebalance_predictor = &sys.predictor();

  std::vector<sched::TablePredictor> tables;
  std::vector<std::unique_ptr<sched::ConfidenceWeightedPredictor>> ensembles;
  if (run.confidence) {
    const model::ModelKind kinds[] = {model::ModelKind::kWmm,
                                      model::ModelKind::kLinear,
                                      model::ModelKind::kNonlinear};
    std::vector<sched::ConfidenceWeightedPredictor::Family> families;
    tables.reserve(std::size(kinds));
    for (model::ModelKind kind : kinds) {
      tables.push_back(sys.train_predictor(kind, sim::worker_count(cfg)));
      families.push_back(
          {model::model_kind_metric_family(kind), &tables.back()});
    }
    sched::ConfidenceConfig ccfg;
    ccfg.window = run.accuracy_window;
    for (std::size_t i = 0; i < shards; ++i) {
      ensembles.push_back(
          std::make_unique<sched::ConfidenceWeightedPredictor>(families, ccfg));
      cfg.ensembles.push_back(ensembles.back().get());
    }
  } else if (run.telemetry) {
    cfg.accuracy_probe = &sys.predictor();
    cfg.accuracy_family = model::model_kind_name(sys.model_kind());
    cfg.accuracy_window = run.accuracy_window;
  }

  auto build = [&](std::size_t shard) -> std::unique_ptr<sched::Scheduler> {
    if (run.scheduler.kind == core::SchedulerKind::kFifo) {
      // The core factory seeds FIFO at seed + 1; shards split that
      // stream the way the arrival streams split the seed.
      return std::make_unique<sched::FifoScheduler>(
          sim::shard_seed(cfg.seed + 1, shard, shards));
    }
    return make_scheduler(sys, run.scheduler, false,
                          ensembles.empty() ? nullptr : ensembles[shard].get());
  };
  // Shard 0's scheduler comes first: its name is in the fingerprint the
  // logs' headers carry.
  std::unique_ptr<sched::Scheduler> first = build(0);
  scheduler = first->name();
  if (run.telemetry) stamp_fingerprint(run, cfg, scheduler);
  if (!run.store) {
    if (run.file("decisions-out").is_open())
      run.tel.decisions.stream_to(run.file("decisions-out"));
    if (run.file("spans-out").is_open())
      run.tel.spans.stream_to(run.file("spans-out"));
  }
  auto factory = [&](std::size_t shard) {
    return shard == 0 ? std::move(first) : build(shard);
  };
  sim::ShardedOutcome o =
      sim::run_dynamic_sharded(sys.perf_table(), factory, cfg);

  if (run.telemetry && o.shards > 1) {
    run.tel.metrics.set_fingerprint("threads", std::to_string(o.threads_used));
    run.tel.metrics.set_fingerprint("shards", std::to_string(o.shards));
  }
  return o;
}

/// Writes every export file the flags name, with a "written to" line
/// each; a streamed log is in its file already. Returns false when a
/// file cannot be written in full.
bool write_exports(const ArgParser& args, Run& run,
                   const sim::ShardedOutcome& o) {
  const obs::Telemetry& tel = run.tel;
  // The merged logs format on the run's worker pool.
  const std::size_t threads = o.threads_used;
  const std::function<void(std::ostream&)> writers[kNumExports] = {
      [&](std::ostream& f) { tel.metrics.write_json(f); },
      [&](std::ostream& f) { tel.metrics.write_csv(f); },
      [&](std::ostream& f) { tel.tracer.write_chrome_json(f, threads); },
      [&](std::ostream& f) { tel.tracer.write_jsonl(f, threads); },
      [&](std::ostream& f) { f << o.series; },
      [&](std::ostream& f) {
        if (!tel.decisions.streaming()) tel.decisions.write(f, threads);
      },
      [&](std::ostream& f) {
        if (!tel.spans.streaming()) tel.spans.write(f, threads);
      },
      [&](std::ostream& f) { tel.tracer.write_task_events_csv(f, threads); },
      [&](std::ostream& f) {
        tel.tracer.write_task_events_jsonl(f, threads);
      }};
  bool io_ok = true;
  for (std::size_t k = 0; k < kNumExports; ++k) {
    if (!names_export(args, run, k)) continue;
    const std::string path = args.get(kExports[k].flag);
    std::ofstream& f = run.files[k];
    writers[k](f);
    // A full disk may only show once the stream flushes on close.
    if (f) f.close();
    if (!f) {
      std::fprintf(stderr, "cannot write %s file '%s'\n", kExports[k].what,
                   path.c_str());
      io_ok = false;
      continue;
    }
    std::printf("%s written to %s\n", kExports[k].what, path.c_str());
  }
  return io_ok;
}

/// `tracon dynamic`: one engine run. Without --threads/--shards it is
/// the flat system (one shard); either flag shards the cluster
/// (default auto_shard_count) onto a worker pool, and DESIGN.md §7's
/// contract keeps every export byte-identical across thread counts.
int cmd_dynamic(const ArgParser& args) {
  reject_unknown_flags(args, "dynamic");
  Run run;
  sim::ShardedConfig& cfg = run.cfg;
  read_run_shape(args, cfg);
  const bool sharded = args.has("threads") || args.has("shards");
  cfg.threads = args.get_count("threads", 1);
  cfg.shards = sharded ? args.get_count("shards", 0) : 1;
  // The normalization baseline runs beside each shard, on its stream.
  cfg.fifo_baseline = true;
  read_run_flags(args, run);
  if (!open_exports(args, run)) return 1;
  core::Tracon sys = make_system(args, true, sim::worker_count(cfg));

  std::string name;
  const sim::ShardedOutcome o = simulate(sys, run, name);
  if (!write_exports(args, run, o)) return 1;

  // Like the fingerprint, the header names the execution shape only
  // when there is more than one shard.
  char shape[64] = "";
  if (o.shards > 1)
    std::snprintf(shape, sizeof shape, ", %zu shards, %zu threads", o.shards,
                  o.threads_used);
  std::printf("%s: %zu machines%s, lambda=%.0f/min, %.1f h, %s mix\n",
              name.c_str(), cfg.machines, shape, cfg.lambda_per_min,
              cfg.duration_s / 3600.0, workload::mix_name(cfg.mix).c_str());
  std::printf("  completed %zu (FIFO %zu, normalized %s)\n",
              o.total.completed, o.baseline.completed,
              normalized_text(o.total.completed, o.baseline.completed).c_str());
  std::printf("  dropped %zu   mean runtime %.1f s   mean wait %.1f s\n",
              o.total.dropped,
              o.total.total_runtime /
                  static_cast<double>(
                      std::max<std::size_t>(1, o.total.completed)),
              o.total.mean_wait_s);
  return 0;
}

std::vector<double> solo_demands(const sim::PerfTable& table) {
  std::vector<double> demands;
  demands.reserve(table.num_apps());
  for (std::size_t a = 0; a < table.num_apps(); ++a)
    demands.push_back(table.solo_runtime(a));
  return demands;
}

/// Shared tail of `record` and `replay`: write the exports, store the
/// run (plus its snapshot series and logs when recorded), and print a
/// one-line summary plus the run id (the id is the last token on
/// stdout, for scripting).
int store_run(const ArgParser& args, Run& run, const sim::ShardedOutcome& o,
              const std::string& scheduler, std::size_t arrivals) {
  if (!write_exports(args, run, o)) return 1;
  const obs::Telemetry& tel = run.tel;
  runstore::RunStore store(args.get("store", "runs"));
  // Each log is written straight into its object file, formatted on the
  // run's worker pool.
  runstore::ObjectWriter decisions, spans;
  if (tel.decisions.enabled())
    decisions = [&](std::ostream& os) {
      tel.decisions.write(os, o.threads_used);
    };
  if (tel.spans.enabled())
    spans = [&](std::ostream& os) { tel.spans.write(os, o.threads_used); };
  std::string id = store.add_run(tel.metrics, scheduler, run.source, o.series,
                                 decisions, spans);
  std::printf("%s (%s): %zu arrivals, completed %zu, dropped %zu\n",
              scheduler.c_str(), run.source.c_str(), arrivals,
              o.total.completed, o.total.dropped);
  std::printf("stored run %s\n", id.c_str());
  return 0;
}

int cmd_record(const ArgParser& args) {
  reject_unknown_flags(args, "record");
  Run run;
  sim::ShardedConfig& cfg = run.cfg;
  read_run_shape(args, cfg);
  cfg.shards = 1;
  run.store = true;
  read_run_flags(args, run);
  const std::string trace_path = args.get("out", "arrivals.jsonl");
  std::ofstream trace_file(trace_path, std::ios::binary);
  if (!trace_file) {
    std::fprintf(stderr, "cannot open trace file '%s'\n", trace_path.c_str());
    return 1;
  }
  if (!open_exports(args, run)) return 1;
  core::Tracon sys = make_system(args, true);

  replay::ArrivalTraceHeader header;
  header.version = obs::kJsonlSchemaVersion;
  header.seed = cfg.seed;
  header.host = run.host;
  // CLI token, not the display name: `replay` feeds this back through
  // --model parsing.
  header.model = run.model;
  header.mix = workload::mix_name(cfg.mix);
  header.lambda_per_min = cfg.lambda_per_min;
  header.duration_s = cfg.duration_s;
  header.machines = cfg.machines;
  header.queue_capacity = cfg.queue_capacity;
  header.num_apps = sys.perf_table().num_apps();

  replay::TraceWriter writer(trace_file, header);
  sim::PoissonStream poisson(cfg.lambda_per_min, cfg.duration_s, cfg.mix,
                             cfg.mix_stddev, cfg.seed);
  replay::RecordingArrivalSource recording(poisson, writer,
                                           solo_demands(sys.perf_table()));
  // The run pulls its stream through the tee, chunk by chunk: the trace
  // file gets each arrival as the run is fed it, and neither holds the
  // stream.
  cfg.arrival_source = &recording;
  std::string name;
  const sim::ShardedOutcome o = simulate(sys, run, name);
  trace_file.close();
  std::printf("trace (%zu arrivals) written to %s\n", writer.written(),
              trace_path.c_str());
  return store_run(args, run, o, name, writer.written());
}

int cmd_replay(const ArgParser& args) {
  reject_unknown_flags(args, "replay");
  if (!args.has("trace")) {
    std::fprintf(stderr, "replay requires --trace FILE\n");
    return 2;
  }
  std::ifstream in(args.get("trace"), std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open trace file '%s'\n",
                 args.get("trace").c_str());
    return 1;
  }
  replay::TraceArrivalSource source(replay::load_arrival_trace(in));
  const replay::ArrivalTraceHeader& header = source.header();

  // Rebuild the recorded configuration; flags override the header.
  // The flags are checked before the set-up work below.
  Run run;
  sim::ShardedConfig& cfg = run.cfg;
  cfg.machines = args.get_count("machines", header.machines, 1);
  cfg.lambda_per_min = header.lambda_per_min;
  cfg.duration_s = header.duration_s;
  cfg.mix = mix_by_name(header.mix);
  cfg.queue_capacity = args.get_count("queue", header.queue_capacity, 1);
  cfg.seed = header.seed;
  cfg.shards = 1;
  run.store = true;
  run.host = header.host;
  run.model = header.model;
  run.source = "trace";
  read_run_flags(args, run);
  if (!open_exports(args, run)) return 1;

  core::TraconConfig tcfg;
  tcfg.host = host_by_name(run.host);
  tcfg.seed = header.seed;
  const model::ModelKind kind = model_by_name(run.model);
  core::Tracon sys(tcfg);
  sys.register_applications(workload::paper_benchmarks());
  sys.train(kind);

  if (!source.validate_demands(solo_demands(sys.perf_table()))) {
    std::fprintf(stderr,
                 "warning: recorded service demands do not match this host's "
                 "perf table; replaying the recorded arrival stream anyway\n");
  }
  cfg.arrival_source = &source;
  std::string name;
  const sim::ShardedOutcome o = simulate(sys, run, name);
  return store_run(args, run, o, name, source.trace().arrivals.size());
}

int cmd_runs(const ArgParser& args) {
  runstore::RunStore store(args.get("store", "runs"));
  runstore::RunStore::LoadResult loaded = store.load();
  for (const std::string& w : loaded.warnings)
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  TableWriter out({"id", "scheduler", "source", "seed", "machines", "mix"});
  for (const runstore::RunRecord& r : loaded.runs) {
    auto fp = [&](const char* key) {
      auto it = r.fingerprint.find(key);
      return it != r.fingerprint.end() ? it->second : std::string("-");
    };
    out.add_row({r.id, r.scheduler, r.source, fp("seed"), fp("machines"),
                 fp("mix")});
  }
  emit(out, args);
  return 0;
}

int cmd_report(const ArgParser& args) {
  if (args.positional().size() < 3) {
    std::fprintf(stderr, "usage: tracon report <run-id-a> <run-id-b> "
                         "[--store DIR] [--json]\n");
    return 2;
  }
  runstore::RunStore store(args.get("store", "runs"));
  auto resolve = [&](const std::string& prefix) {
    auto rec = store.find(prefix);
    if (!rec.has_value()) {
      throw std::invalid_argument("no run matches id prefix '" + prefix +
                                  "' in store '" + args.get("store", "runs") +
                                  "'");
    }
    return *rec;
  };
  runstore::RunRecord ra = resolve(args.positional()[1]);
  runstore::RunRecord rb = resolve(args.positional()[2]);
  obs::JsonValue da = obs::parse_json(store.read_metrics(ra));
  obs::JsonValue db = obs::parse_json(store.read_metrics(rb));
  runstore::RunReport report = runstore::diff_runs(
      runstore::summarize_metrics(da), runstore::summarize_metrics(db),
      ra.id + " (" + ra.scheduler + ", " + ra.source + ")",
      rb.id + " (" + rb.scheduler + ", " + rb.source + ")");
  if (ra.has_series() && rb.has_series()) {
    obs::MetricsSeries sa = obs::parse_metrics_series(store.read_series(ra));
    obs::MetricsSeries sb = obs::parse_metrics_series(store.read_series(rb));
    runstore::diff_series(sa, sb, &report);
  }
  if (ra.has_decisions() && rb.has_decisions()) {
    obs::AttributionReport aa =
        obs::attribute(obs::parse_decision_log(store.read_decisions(ra)));
    obs::AttributionReport ab =
        obs::attribute(obs::parse_decision_log(store.read_decisions(rb)));
    runstore::diff_decisions(aa, ab, &report);
  }
  if (ra.has_spans() && rb.has_spans()) {
    obs::BreakdownReport ba =
        obs::breakdown(obs::parse_span_log(store.read_spans(ra)));
    obs::BreakdownReport bb =
        obs::breakdown(obs::parse_span_log(store.read_spans(rb)));
    runstore::diff_breakdown(ba, bb, &report);
  }
  if (args.has("json")) {
    runstore::write_report_json(std::cout, report);
  } else {
    runstore::write_report_text(std::cout, report);
  }
  return 0;
}

/// One log a command renders, and where a stored run keeps it.
struct LogKind {
  const char* flag;         ///< `--FLAG FILE` names the log directly
  const char* file_noun;    ///< "cannot open <file_noun> '<path>'"
  const char* stored_noun;  ///< "run <id> has no stored <stored_noun>"
  const char* record_flag;  ///< the run flag that stores the object
  bool (runstore::RunRecord::*stored)() const;
  std::string (runstore::RunStore::*read)(const runstore::RunRecord&) const;
};

const LogKind kSeriesLog = {"series", "series file", "metrics series",
                            "--snapshot-interval",
                            &runstore::RunRecord::has_series,
                            &runstore::RunStore::read_series};
const LogKind kDecisionLog = {"decisions", "decision log", "decision log",
                              "--decisions",
                              &runstore::RunRecord::has_decisions,
                              &runstore::RunStore::read_decisions};
const LogKind kSpanLog = {"spans", "span log", "span log", "--spans",
                          &runstore::RunRecord::has_spans,
                          &runstore::RunStore::read_spans};

/// Reads the `kind` log a command renders: `--FLAG FILE`, or the object
/// the stored run at positional `idx` holds (a run-id prefix, resolved
/// against --store). Returns 0 and fills content/label; 1 after
/// printing an error (a file it cannot open, an unknown id, a run
/// without the object); 2 when neither source was given (the caller
/// prints its usage line). With `optional`, a run without the object
/// is no error: 0, with `label` left empty.
int read_log(const ArgParser& args, const LogKind& kind, std::size_t idx,
             std::string* content, std::string* label,
             bool optional = false) {
  if (args.has(kind.flag)) {
    const std::string path = args.get(kind.flag);
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open %s '%s'\n", kind.file_noun,
                   path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    *content = buf.str();
    *label = path;
    return 0;
  }
  if (args.positional().size() <= idx) return 2;
  const std::string store_dir = args.get("store", "runs");
  runstore::RunStore store(store_dir);
  auto rec = store.find(args.positional()[idx]);
  if (!rec.has_value()) {
    std::fprintf(stderr, "no run matches id prefix '%s' in store '%s'\n",
                 args.positional()[idx].c_str(), store_dir.c_str());
    return 1;
  }
  if (!((*rec).*kind.stored)()) {
    if (optional) return 0;
    std::fprintf(stderr, "run %s has no stored %s (record it with %s)\n",
                 rec->id.c_str(), kind.stored_noun, kind.record_flag);
    return 1;
  }
  *content = (store.*kind.read)(*rec);
  *label = rec->id;
  return 0;
}

/// Parses the text read_log filled in with `parse`, then frees it: what
/// a command folds the document into never needs the text, so the two
/// are not resident together.
template <typename Parse>
auto parse_log(std::string* content, Parse parse) {
  auto doc = parse(*content);
  std::string().swap(*content);
  return doc;
}

/// Renders a tracon.metrics_series document. The series comes either
/// from a file (--series FILE) or from a stored run's series object
/// (positional run-id prefix, resolved against --store).
int cmd_timeline(const ArgParser& args) {
  std::string content;
  std::string label;
  if (int rc = read_log(args, kSeriesLog, 1, &content, &label); rc != 0) {
    if (rc == 2)
      std::fprintf(stderr,
                   "usage: tracon timeline (--series FILE | <run-id-prefix> "
                   "[--store DIR]) [--metric SUBSTR] [--json]\n");
    return rc;
  }

  const obs::MetricsSeries series =
      parse_log(&content, obs::parse_metrics_series);
  const std::string filter = args.get("metric", "");
  auto keep = [&](const std::string& name) {
    return filter.empty() || name.find(filter) != std::string::npos;
  };
  std::set<std::string> counter_names, gauge_names, accuracy_names;
  for (const obs::SeriesWindow& w : series.windows) {
    for (const auto& [name, v] : w.counters)
      if (keep(name)) counter_names.insert(name);
    for (const auto& [name, v] : w.gauges)
      if (keep(name)) gauge_names.insert(name);
    for (const auto& [name, v] : w.accuracy)
      if (keep(name)) accuracy_names.insert(name);
  }

  if (args.has("json")) {
    obs::JsonlBuffer out(std::cout);
    out.raw("{\n  \"schema\": ").string(obs::kMetricsSeriesSchema)
        .raw(", \"version\": ")
        .integer(static_cast<std::uint64_t>(series.version))
        .raw(", \"interval_s\": ").number(series.interval_s)
        .raw(",\n  \"windows\": [");
    bool first_window = true;
    for (const obs::SeriesWindow& w : series.windows) {
      out.raw(first_window ? "\n" : ",\n")
          .raw("    {\"window\": ").integer(w.index)
          .raw(", \"t_start\": ").number(w.t_start)
          .raw(", \"t_end\": ").number(w.t_end);
      first_window = false;
      auto scalar_map = [&](const char* key,
                            const std::map<std::string, double>& m) {
        out.raw(", \"").raw(key).raw("\": {");
        const char* sep = "";
        for (const auto& [name, value] : m) {
          if (!keep(name)) continue;
          out.raw(sep).string(name).raw(": ").number(value);
          sep = ", ";
        }
        out.raw("}");
      };
      scalar_map("counters", w.counters);
      scalar_map("gauges", w.gauges);
      out.raw(", \"accuracy\": {");
      const char* sep = "";
      for (const auto& [name, acc] : w.accuracy) {
        if (!keep(name)) continue;
        out.raw(sep).string(name).raw(": {\"count\": ")
            .integer(static_cast<std::uint64_t>(acc.count))
            .raw(", \"total\": ").integer(static_cast<std::uint64_t>(acc.total))
            .raw(", \"mean_abs\": ").number(acc.mean_abs)
            .raw(", \"p50\": ").number(acc.p50)
            .raw(", \"p90\": ").number(acc.p90).raw("}");
        sep = ", ";
      }
      out.raw("}}");
    }
    out.raw(first_window ? "" : "\n  ").raw("]\n}").end_line();
    out.flush();
    return 0;
  }

  std::printf("metrics series %s: %zu windows, interval %s s\n", label.c_str(),
              series.windows.size(),
              obs::format_double(series.interval_s).c_str());
  // Counter columns carry a leading '+': they are per-window deltas,
  // not running totals.
  std::vector<std::string> header = {"window", "t_end"};
  for (const std::string& name : counter_names) header.push_back("+" + name);
  for (const std::string& name : gauge_names) header.push_back(name);
  for (const std::string& name : accuracy_names)
    header.push_back(name + "|err");
  TableWriter out(header);
  for (const obs::SeriesWindow& w : series.windows) {
    std::vector<std::string> row = {std::to_string(w.index), fmt(w.t_end, 1)};
    for (const std::string& name : counter_names) {
      auto it = w.counters.find(name);
      row.push_back(fmt(it != w.counters.end() ? it->second : 0.0, 0));
    }
    for (const std::string& name : gauge_names) {
      auto it = w.gauges.find(name);
      row.push_back(fmt(it != w.gauges.end() ? it->second : 0.0, 3));
    }
    for (const std::string& name : accuracy_names) {
      auto it = w.accuracy.find(name);
      row.push_back(fmt(it != w.accuracy.end() ? it->second.mean_abs : 0.0,
                        3));
    }
    out.add_row(std::move(row));
  }
  emit(out, args);
  return 0;
}

/// `tracon explain <task-id>`: renders one task's decision record —
/// every candidate slot the scheduler scanned, what each model family
/// predicted for it, the confidence weights in force, and the margin —
/// joined to the realized outcome when the task completed.
int cmd_explain(const ArgParser& args) {
  const char* kUsage =
      "usage: tracon explain <task-id> (--decisions FILE [--spans FILE] | "
      "<run-id-prefix> [--store DIR])\n";
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  std::uint64_t task = 0;
  try {
    std::size_t pos = 0;
    task = std::stoull(args.positional()[1], &pos);
    TRACON_REQUIRE(pos == args.positional()[1].size(),
                   "trailing junk in task id");
  } catch (const std::exception&) {
    std::fprintf(stderr, "task id '%s' is not a number\n",
                 args.positional()[1].c_str());
    return 2;
  }
  std::string content;
  std::string label;
  if (int rc = read_log(args, kDecisionLog, 2, &content, &label); rc != 0) {
    if (rc == 2) std::fprintf(stderr, "%s", kUsage);
    return rc;
  }
  const obs::DecisionDoc doc = parse_log(&content, obs::parse_decision_log);

  // Last record wins, matching the attribution engine's join: a task
  // id appears once per run, but a merged or hand-edited log should
  // explain the same record attribute() would use.
  const obs::DecisionEvent* decision = nullptr;
  const obs::DecisionEvent* outcome = nullptr;
  std::vector<const obs::DecisionEvent*> migrations;
  for (const obs::DecisionEvent& e : doc.events) {
    if (e.task != task) continue;
    if (e.kind == obs::DecisionEvent::Kind::kDecision) decision = &e;
    else if (e.kind == obs::DecisionEvent::Kind::kMigration)
      migrations.push_back(&e);
    else outcome = &e;
  }
  if (decision == nullptr) {
    std::fprintf(stderr, "no decision recorded for task %llu in %s\n",
                 static_cast<unsigned long long>(task), label.c_str());
    return 1;
  }

  std::printf("task %llu (%s) placed by %s at t=%s s  [%s]\n",
              static_cast<unsigned long long>(task),
              app_class_name(decision->app).c_str(),
              decision->scheduler.c_str(),
              fmt(decision->time_s, 1).c_str(), label.c_str());
  std::printf("  objective %s, %zu candidate slots, winning margin %s\n",
              decision->objective.c_str(), decision->candidates.size(),
              fmt(decision->margin, 2).c_str());
  if (decision->machine != obs::DecisionEvent::kNoMachine)
    std::printf("  bound to machine %zu\n", decision->machine);
  std::printf("  model families:");
  for (std::size_t f = 0; f < decision->families.size(); ++f) {
    double w = f < decision->weights.size() ? decision->weights[f] : 0.0;
    std::printf(" %s (weight %s)", decision->families[f].c_str(),
                fmt(w, 3).c_str());
  }
  std::printf("\n  candidate slots (* = chosen; score is the predicted %s "
              "if placed there):\n",
              decision->objective.c_str());
  std::vector<std::string> header = {"slot", "next-to", "score"};
  for (const std::string& fam : decision->families) header.push_back(fam);
  TableWriter table(header);
  for (std::size_t i = 0; i < decision->candidates.size(); ++i) {
    const obs::DecisionCandidate& c = decision->candidates[i];
    std::vector<std::string> row;
    row.push_back((i == decision->chosen ? "* " : "  ") + std::to_string(i));
    row.push_back(neighbour_name(c.neighbour));
    row.push_back(fmt(c.score, 2));
    for (std::size_t f = 0; f < decision->families.size(); ++f)
      row.push_back(f < c.by_family.size() ? fmt(c.by_family[f], 2) : "-");
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::printf("  predicted: runtime %s s, IOPS %s\n",
              fmt(decision->predicted_runtime_s, 1).c_str(),
              fmt(decision->predicted_iops, 1).c_str());
  for (const obs::DecisionEvent* m : migrations) {
    std::printf("  migrated:  machine %zu (next to %s) -> machine %zu "
                "(next to %s) at t=%s s\n",
                m->from_machine, neighbour_name(m->from_neighbour).c_str(),
                m->machine, neighbour_name(m->neighbour).c_str(),
                fmt(m->time_s, 1).c_str());
    std::printf("             stay %s s vs move %s s; cost %s s "
                "(%s s downtime + %s s copy), margin %s s\n",
                fmt(m->predicted_stay_s, 1).c_str(),
                fmt(m->predicted_move_s, 1).c_str(),
                fmt(m->cost_s, 2).c_str(), fmt(m->downtime_s, 2).c_str(),
                fmt(m->copy_s, 2).c_str(), fmt(m->margin, 2).c_str());
  }
  if (outcome != nullptr) {
    double slowdown = outcome->solo_runtime_s > 0.0
                          ? outcome->runtime_s / outcome->solo_runtime_s
                          : 0.0;
    std::printf("  outcome:   runtime %s s (rel error %s), IOPS %s (rel "
                "error %s)\n",
                fmt(outcome->runtime_s, 1).c_str(),
                fmt(obs::relative_error(decision->predicted_runtime_s,
                                        outcome->runtime_s), 3).c_str(),
                fmt(outcome->iops, 1).c_str(),
                fmt(obs::relative_error(decision->predicted_iops,
                                        outcome->iops), 3).c_str());
    std::printf("  realized:  slowdown %sx next to %s, completed at t=%s s\n",
                fmt(slowdown, 2).c_str(),
                neighbour_name(outcome->neighbour).c_str(),
                fmt(outcome->time_s, 1).c_str());
  } else {
    std::printf("  outcome:   task did not complete within the run\n");
  }

  // Lifecycle timeline alongside the decision: where the seconds went
  // once the placement was made. Loaded when a span source is at hand —
  // --spans FILE, or the same stored run carrying a spans object;
  // silently absent otherwise (the decision record stands alone).
  std::string span_content;
  std::string span_label;
  if (args.has("spans") || !args.has("decisions")) {
    if (int rc = read_log(args, kSpanLog, 2, &span_content, &span_label,
                          /*optional=*/true);
        rc != 0)
      return rc;
  }
  if (!span_label.empty()) {
    const obs::SpanDoc spans = parse_log(&span_content, obs::parse_span_log);
    obs::SpanDoc mine;
    mine.version = spans.version;
    for (const obs::SpanEvent& e : spans.events)
      if (e.task == task) mine.events.push_back(e);
    if (!mine.events.empty()) {
      std::printf("\n  lifecycle (tracon.spans; speed = progress per wall "
                  "second):\n");
      TableWriter tl({"t0", "t1", "dur_s", "state", "machine", "next-to",
                     "speed"});
      for (const obs::SpanEvent& e : mine.events) {
        std::string state = span_state_name(e.kind);
        bool scored = e.kind == obs::SpanEvent::Kind::kRunning ||
                      e.kind == obs::SpanEvent::Kind::kMigrationCopy;
        tl.add_row({fmt(e.t0_s, 1), fmt(e.t1_s, 1), fmt(e.t1_s - e.t0_s, 1),
                    state,
                    e.machine != obs::SpanEvent::kNoMachine
                        ? std::to_string(e.machine)
                        : "-",
                    scored ? neighbour_name(e.neighbour) : "-",
                    scored ? fmt(e.factor * e.copy_factor, 3) : "-"});
      }
      tl.print(std::cout);
      obs::BreakdownReport mine_report = obs::breakdown(mine);
      if (!mine_report.rows.empty()) {
        const obs::TaskBreakdown& row = mine_report.rows.front();
        std::printf("  accounted: wait %s s + solo %s s + interference %s s "
                    "+ migration %s s = %s s end-to-end\n",
                    fmt(row.wait_s, 1).c_str(), fmt(row.solo_s, 1).c_str(),
                    fmt(row.interference_s, 1).c_str(),
                    fmt(row.migration_s, 1).c_str(),
                    fmt(row.end_to_end_s(), 1).c_str());
      }
    }
  }
  return 0;
}

/// `tracon attribution`: reduces a whole run's decision log to the
/// joined summary, the per-co-location-pair realized-slowdown heatmap,
/// and the worst-mispredicts table.
int cmd_attribution(const ArgParser& args) {
  const char* kUsage =
      "usage: tracon attribution (--decisions FILE | <run-id-prefix> "
      "[--store DIR]) [--top N] [--json]\n";
  const std::size_t top = args.get_count("top", 10);
  std::string content;
  std::string label;
  if (int rc = read_log(args, kDecisionLog, 1, &content, &label); rc != 0) {
    if (rc == 2) std::fprintf(stderr, "%s", kUsage);
    return rc;
  }
  obs::AttributionReport report =
      obs::attribute(parse_log(&content, obs::parse_decision_log));
  const std::size_t shown = std::min(top, report.mispredict_order.size());

  if (args.has("json")) {
    obs::JsonlBuffer out(std::cout);
    out.raw("{\n  \"schema\": \"tracon.attribution\", \"version\": 1,\n")
        .raw("  \"decisions\": ").integer(report.decisions)
        .raw(", \"outcomes\": ").integer(report.outcomes)
        .raw(", \"joined\": ").integer(report.joined)
        .raw(",\n  \"mean_candidates\": ").number(report.mean_candidates)
        .raw(", \"mean_abs_runtime_error\": ")
        .number(report.mean_abs_runtime_error)
        .raw(", \"mean_abs_iops_error\": ").number(report.mean_abs_iops_error)
        .raw(",\n  \"pairs\": [");
    bool first = true;
    for (const auto& [key, cell] : report.pairs) {
      out.raw(first ? "\n" : ",\n")
          .raw("    {\"app\": ").string(app_class_name(key.first))
          .raw(", \"neighbour\": ").string(neighbour_name(key.second))
          .raw(", \"count\": ").integer(cell.count)
          .raw(", \"mean_slowdown\": ").number(cell.mean_slowdown())
          .raw(", \"mean_abs_runtime_error\": ")
          .number(cell.mean_abs_runtime_error()).raw("}");
      first = false;
    }
    out.raw(first ? "" : "\n  ").raw("],\n  \"mispredicts\": [");
    first = true;
    for (std::size_t i = 0; i < shown; ++i) {
      const obs::AttributionRow& row =
          report.rows[report.mispredict_order[i]];
      out.raw(first ? "\n" : ",\n")
          .raw("    {\"task\": ").integer(row.task)
          .raw(", \"app\": ").string(app_class_name(row.app))
          .raw(", \"neighbour\": ").string(neighbour_name(row.neighbour))
          .raw(", \"predicted_runtime_s\": ").number(row.predicted_runtime_s)
          .raw(", \"runtime_s\": ").number(row.runtime_s)
          .raw(", \"runtime_error\": ").number(row.runtime_error)
          .raw(", \"margin\": ").number(row.margin)
          .raw(", \"candidates\": ").integer(row.candidates).raw("}");
      first = false;
    }
    out.raw(first ? "" : "\n  ").raw("]\n}").end_line();
    out.flush();
    return 0;
  }

  std::printf("decision log %s: %llu decisions, %llu outcomes, %llu joined\n",
              label.c_str(),
              static_cast<unsigned long long>(report.decisions),
              static_cast<unsigned long long>(report.outcomes),
              static_cast<unsigned long long>(report.joined));
  std::printf("  mean candidate-set size %s   mean |runtime rel error| %s   "
              "mean |iops rel error| %s\n",
              fmt(report.mean_candidates, 2).c_str(),
              fmt(report.mean_abs_runtime_error, 3).c_str(),
              fmt(report.mean_abs_iops_error, 3).c_str());

  if (!report.pairs.empty()) {
    // Heatmap rows are the placed task's app class, columns the
    // co-runner it landed next to ("empty" first, the map's order).
    std::set<std::size_t> apps;
    std::set<std::optional<std::size_t>> neighbours;
    for (const auto& [key, cell] : report.pairs) {
      apps.insert(key.first);
      neighbours.insert(key.second);
    }
    std::printf("\nmean realized slowdown by (app, co-runner):\n");
    std::vector<std::string> header = {"app\\next-to"};
    for (const auto& n : neighbours) header.push_back(neighbour_name(n));
    TableWriter heat(header);
    for (std::size_t app : apps) {
      std::vector<std::string> row = {app_class_name(app)};
      for (const auto& n : neighbours) {
        auto it = report.pairs.find({app, n});
        row.push_back(it != report.pairs.end()
                          ? fmt(it->second.mean_slowdown(), 2)
                          : "-");
      }
      heat.add_row(std::move(row));
    }
    heat.print(std::cout);
  }

  if (shown > 0) {
    std::printf("\nworst mispredicts (by |runtime rel error|):\n");
    TableWriter worst({"task", "app", "next-to", "pred_s", "actual_s",
                       "rel_err", "margin", "cands"});
    for (std::size_t i = 0; i < shown; ++i) {
      const obs::AttributionRow& row =
          report.rows[report.mispredict_order[i]];
      worst.add_row({std::to_string(row.task), app_class_name(row.app),
                     neighbour_name(row.neighbour),
                     fmt(row.predicted_runtime_s, 1), fmt(row.runtime_s, 1),
                     fmt(row.runtime_error, 3), fmt(row.margin, 2),
                     std::to_string(row.candidates)});
    }
    worst.print(std::cout);
  }
  return 0;
}

/// `tracon breakdown`: reduces a whole run's span log to the latency
/// decomposition — where every completed task's seconds went, overall
/// and per app class (and per completion window with --window S).
int cmd_breakdown(const ArgParser& args) {
  const char* kUsage =
      "usage: tracon breakdown (--spans FILE | <run-id-prefix> "
      "[--store DIR]) [--window S] [--json]\n";
  const double window_s = args.get_in_range(
      "window", 0.0, 0.0, std::numeric_limits<double>::infinity());
  std::string content;
  std::string label;
  if (int rc = read_log(args, kSpanLog, 1, &content, &label); rc != 0) {
    if (rc == 2) std::fprintf(stderr, "%s", kUsage);
    return rc;
  }
  obs::BreakdownReport report =
      obs::breakdown(parse_log(&content, obs::parse_span_log), window_s);

  if (args.has("json")) {
    obs::JsonlBuffer out(std::cout);
    auto cell = [&](const obs::BreakdownCell& c) {
      out.raw("{\"tasks\": ").integer(c.tasks)
          .raw(", \"wait_s\": ").number(c.wait_s)
          .raw(", \"solo_s\": ").number(c.solo_s)
          .raw(", \"interference_s\": ").number(c.interference_s)
          .raw(", \"migration_s\": ").number(c.migration_s)
          .raw(", \"end_to_end_s\": ").number(c.end_to_end_s()).raw("}");
    };
    out.raw("{\n  \"schema\": \"tracon.breakdown\", \"version\": 1,\n")
        .raw("  \"tasks\": ").integer(report.rows.size())
        .raw(", \"incomplete\": ").integer(report.incomplete)
        .raw(", \"window_s\": ").number(report.window_s)
        .raw(",\n  \"total\": ");
    cell(report.total);
    out.raw(",\n  \"by_app\": [");
    bool first = true;
    for (const auto& [app, c] : report.by_app) {
      out.raw(first ? "\n" : ",\n")
          .raw("    {\"app\": ").string(app_class_name(app))
          .raw(", \"cell\": ");
      cell(c);
      out.raw("}");
      first = false;
    }
    out.raw(first ? "" : "\n  ").raw("],\n  \"by_window\": [");
    first = true;
    for (const auto& [w, c] : report.by_window) {
      out.raw(first ? "\n" : ",\n")
          .raw("    {\"window\": ").integer(w)
          .raw(", \"t_start\": ")
          .number(static_cast<double>(w) * report.window_s)
          .raw(", \"cell\": ");
      cell(c);
      out.raw("}");
      first = false;
    }
    out.raw(first ? "" : "\n  ").raw("]\n}").end_line();
    out.flush();
    return 0;
  }

  const double e2e = report.total.end_to_end_s();
  auto share = [&](double v) {
    return e2e > 0.0 ? fmt(100.0 * v / e2e, 1) + "%" : std::string("-");
  };
  std::printf("span log %s: %zu completed tasks, %llu incomplete at the "
              "horizon\n",
              label.c_str(), report.rows.size(),
              static_cast<unsigned long long>(report.incomplete));
  std::printf("  end-to-end %s s = wait %s s (%s) + solo %s s (%s) + "
              "interference %s s (%s) + migration %s s (%s)\n",
              fmt(e2e, 1).c_str(), fmt(report.total.wait_s, 1).c_str(),
              share(report.total.wait_s).c_str(),
              fmt(report.total.solo_s, 1).c_str(),
              share(report.total.solo_s).c_str(),
              fmt(report.total.interference_s, 1).c_str(),
              share(report.total.interference_s).c_str(),
              fmt(report.total.migration_s, 1).c_str(),
              share(report.total.migration_s).c_str());

  auto mean = [](const obs::BreakdownCell& c, double v) {
    return c.tasks > 0 ? v / static_cast<double>(c.tasks) : 0.0;
  };
  if (!report.by_app.empty()) {
    std::printf("\nmean seconds per task by app class:\n");
    TableWriter by_app({"app", "tasks", "wait", "solo", "interference",
                        "migration", "end-to-end"});
    for (const auto& [app, c] : report.by_app) {
      by_app.add_row({app_class_name(app), std::to_string(c.tasks),
                      fmt(mean(c, c.wait_s), 1), fmt(mean(c, c.solo_s), 1),
                      fmt(mean(c, c.interference_s), 1),
                      fmt(mean(c, c.migration_s), 1),
                      fmt(mean(c, c.end_to_end_s()), 1)});
    }
    emit(by_app, args);
  }
  if (!report.by_window.empty()) {
    std::printf("\nmean seconds per task by completion window (%s s):\n",
                fmt(report.window_s, 0).c_str());
    TableWriter by_win({"window", "t_start", "tasks", "wait", "solo",
                        "interference", "migration"});
    for (const auto& [w, c] : report.by_window) {
      by_win.add_row({std::to_string(w),
                      fmt(static_cast<double>(w) * report.window_s, 0),
                      std::to_string(c.tasks), fmt(mean(c, c.wait_s), 1),
                      fmt(mean(c, c.solo_s), 1),
                      fmt(mean(c, c.interference_s), 1),
                      fmt(mean(c, c.migration_s), 1)});
    }
    emit(by_win, args);
  }
  return 0;
}

/// `tracon critical-path`: the chain of tasks that bounds the run's
/// last completion — each link waited on the previous link's machine
/// time, so shortening any of them moves the makespan.
int cmd_critical_path(const ArgParser& args) {
  const char* kUsage =
      "usage: tracon critical-path (--spans FILE | <run-id-prefix> "
      "[--store DIR]) [--json]\n";
  std::string content;
  std::string label;
  if (int rc = read_log(args, kSpanLog, 1, &content, &label); rc != 0) {
    if (rc == 2) std::fprintf(stderr, "%s", kUsage);
    return rc;
  }
  std::vector<obs::CriticalPathEntry> chain =
      obs::critical_path(parse_log(&content, obs::parse_span_log));

  if (args.has("json")) {
    obs::JsonlBuffer out(std::cout);
    out.raw("{\n  \"schema\": \"tracon.critical_path\", \"version\": 1,\n")
        .raw("  \"links\": [");
    bool first = true;
    for (const obs::CriticalPathEntry& e : chain) {
      out.raw(first ? "\n" : ",\n")
          .raw("    {\"task\": ").integer(e.task)
          .raw(", \"app\": ").string(app_class_name(e.app))
          .raw(", \"machine\": ");
      if (e.machine != obs::SpanEvent::kNoMachine) out.integer(e.machine);
      else out.raw("\"-\"");
      out.raw(", \"enqueue_s\": ").number(e.enqueue_s)
          .raw(", \"start_s\": ").number(e.start_s)
          .raw(", \"complete_s\": ").number(e.complete_s)
          .raw(", \"wait_s\": ").number(e.wait_s).raw("}");
      first = false;
    }
    out.raw(first ? "" : "\n  ").raw("]\n}").end_line();
    out.flush();
    return 0;
  }

  if (chain.empty()) {
    std::printf("span log %s: no completed task, no critical path\n",
                label.c_str());
    return 0;
  }
  std::printf("critical path %s: %zu links, makespan ends at t=%s s with "
              "task %llu\n",
              label.c_str(), chain.size(),
              fmt(chain.back().complete_s, 1).c_str(),
              static_cast<unsigned long long>(chain.back().task));
  TableWriter out({"task", "app", "machine", "enqueue", "start", "complete",
                   "wait_s"});
  for (const obs::CriticalPathEntry& e : chain) {
    out.add_row({std::to_string(e.task), app_class_name(e.app),
                 e.machine != obs::SpanEvent::kNoMachine
                     ? std::to_string(e.machine)
                     : "-",
                 fmt(e.enqueue_s, 1), fmt(e.start_s, 1),
                 fmt(e.complete_s, 1), fmt(e.wait_s, 1)});
  }
  emit(out, args);
  return 0;
}

int cmd_profile(const ArgParser& args) {
  core::Tracon sys = make_system(args, false);
  std::string path = args.get("out", "perf_table.csv");
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
    return 1;
  }
  sys.perf_table().save_csv(f);
  std::printf("pairwise perf table (%zu apps, host %s) written to %s\n",
              sys.perf_table().num_apps(), args.get("host", "paper").c_str(),
              path.c_str());
  return 0;
}

/// `tracon hierarchy`: the paper's manager tree (Section 3) — one shard
/// of --machines machines per manager, fed one root arrival stream
/// split by --routing.
int cmd_hierarchy(const ArgParser& args) {
  reject_unknown_flags(args, "hierarchy");
  const std::size_t managers = args.get_count("managers", 4, 1);
  sim::ShardedConfig cfg;
  read_run_shape(args, cfg, 16);
  const std::size_t per_manager = cfg.machines;
  TRACON_REQUIRE(per_manager <= std::numeric_limits<std::size_t>::max() /
                                    managers,
                 "flag --managers times flag --machines overflows");
  cfg.machines = managers * per_manager;
  cfg.shards = managers;
  cfg.threads = args.get_count("threads", 1);
  const std::string routing = args.get("routing", "rr");
  if (routing == "rr") cfg.routing = sim::Routing::kRoundRobin;
  else if (routing == "random") cfg.routing = sim::Routing::kRandom;
  else
    throw std::invalid_argument("flag --routing must be rr|random, got '" +
                                routing + "'");
  check_prof(args, cfg.threads);
  const SchedulerChoice choice = scheduler_choice(args, cfg.queue_capacity);
  core::Tracon sys = make_system(args, true, sim::worker_count(cfg));

  auto o = sim::run_dynamic_sharded(
      sys.perf_table(),
      [&](std::size_t) { return make_scheduler(sys, choice, false); }, cfg);
  std::printf("%zu managers x %zu machines, lambda=%.0f/min total, %s mix\n",
              managers, per_manager, cfg.lambda_per_min,
              workload::mix_name(cfg.mix).c_str());
  std::printf("  completed %zu   dropped %zu   imbalance %.3f\n",
              o.total.completed, o.total.dropped, o.completion_imbalance());
  for (std::size_t m = 0; m < o.per_shard.size(); ++m) {
    const auto& pm = o.per_shard[m];
    std::printf("  manager %zu: completed %zu dropped %zu\n", m,
                pm.completed, pm.dropped);
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: tracon "
               "<table1|matrix|predict|static|dynamic|hierarchy|profile|"
               "record|replay|runs|report|timeline|explain|attribution|"
               "breakdown|critical-path> "
               "[flags]\n(see the header of tools/tracon_cli.cpp)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ArgParser args(argc, argv);
    if (args.positional().empty()) return usage();
    if (args.has("prof")) tracon::obs::ProfRegistry::global().set_enabled(true);
    const std::string& cmd = args.positional()[0];
    int rc;
    if (cmd == "table1") rc = cmd_table1(args);
    else if (cmd == "matrix") rc = cmd_matrix(args);
    else if (cmd == "predict") rc = cmd_predict(args);
    else if (cmd == "static") rc = cmd_static(args);
    else if (cmd == "dynamic") rc = cmd_dynamic(args);
    else if (cmd == "hierarchy") rc = cmd_hierarchy(args);
    else if (cmd == "profile") rc = cmd_profile(args);
    else if (cmd == "record") rc = cmd_record(args);
    else if (cmd == "replay") rc = cmd_replay(args);
    else if (cmd == "runs") rc = cmd_runs(args);
    else if (cmd == "report") rc = cmd_report(args);
    else if (cmd == "timeline") rc = cmd_timeline(args);
    else if (cmd == "explain") rc = cmd_explain(args);
    else if (cmd == "attribution") rc = cmd_attribution(args);
    else if (cmd == "breakdown") rc = cmd_breakdown(args);
    else if (cmd == "critical-path") rc = cmd_critical_path(args);
    else return usage();
    if (args.has("prof")) {
      std::cerr << "--- wall-clock kernel profile (--prof) ---\n";
      tracon::obs::ProfRegistry::global().write_text(std::cerr);
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
