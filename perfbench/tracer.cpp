// perfbench_trace: the traced run of the repository benchmark.
//
// Repeats one `tracon dynamic` invocation through the library's public
// functions, in the order tools/tracon_cli.cpp calls them, and keeps one
// span (name, start, end, parent) per call into a layer: host profiling
// (virt), model training (model), the FIFO baseline and the
// chosen-scheduler simulation (sim), and every sink write (obs). Spans
// stay in memory until the run ends and are then written to
// --spans-file. Scheduling rounds (sched) are timed one by one but
// summed per scheduler instead of kept as spans: a 10^5-machine hour
// makes ~4.5e7 of them. The program prints the CLI's summary lines
// (run.py checks them against the untraced CLI) followed by one
// `perfbench.layers {...}` JSON line of per-layer totals.
//
//   perfbench_trace dynamic <tracon dynamic flags> --spans-file FILE
//
// Only the flags the benchmark workloads use are accepted; any other
// flag is rejected, so a workload is never traced through a program
// that differs from the CLI it is compared with.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "model/factory.hpp"
#include "model/profiler.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/scope_timer.hpp"
#include "obs/telemetry.hpp"
#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mix.hpp"
#include "sched/predictor.hpp"
#include "sim/dynamic_scenario.hpp"
#include "sim/perf_table.hpp"
#include "sim/shard_scenario.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "virt/host_config.hpp"
#include "virt/host_sim.hpp"
#include "workload/benchmarks.hpp"
#include "workload/mixes.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace tracon;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  ///< index of the causing span; -1 for the root
};

class SpanList {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), Clock::now(), {}, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }

  const Span& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  double duration(int id) const { return seconds(at(id).start, at(id).end); }
  double busy(const std::string& name) const {
    double total = 0.0;
    for (const Span& s : spans_)
      if (s.name == name) total += seconds(s.start, s.end);
    return total;
  }
  std::size_t count(const std::string& name) const {
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span& s) { return s.name == name; }));
  }

  void write_json(std::ostream& os) const {
    const Clock::time_point origin = spans_.empty() ? Clock::time_point{}
                                                    : spans_.front().start;
    os << "{\"clock\": \"steady\", \"spans\": [";
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(line, sizeof line,
                    "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"parent\": %d}",
                    i == 0 ? "" : ",", i, s.name.c_str(),
                    seconds(origin, s.start), seconds(origin, s.end),
                    s.parent);
      os << line;
    }
    os << "\n]}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// Closes its span when the scope ends.
class SpanScope {
 public:
  SpanScope(SpanList& list, std::string name, int parent)
      : list_(list), id_(list.open(std::move(name), parent)) {}
  ~SpanScope() { list_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanList& list_;
  int id_;
};

/// One scheduler's rounds, owned by run() so it outlives the
/// schedulers the sharded engine destroys before it returns.
struct RoundLog {
  std::size_t calls = 0;
  std::size_t placements = 0;
  std::size_t idle = 0;  ///< rounds that placed nothing
  Clock::duration busy{};
};

/// Times every schedule() call of the scheduler it wraps.
class TracingScheduler final : public sched::Scheduler {
 public:
  TracingScheduler(std::unique_ptr<sched::Scheduler> inner, RoundLog& log)
      : inner_(std::move(inner)), log_(log) {}

  std::string name() const override { return inner_->name(); }
  bool online() const override { return inner_->online(); }

  std::vector<sched::Placement> schedule(
      std::span<const sched::QueuedTask> queue,
      const sched::ClusterCounts& cluster,
      const sched::ScheduleContext& ctx) override {
    // set_telemetry and set_candidate_index are not virtual: the
    // simulator wires them on this wrapper, so pass them on before each
    // call, or decision logging and the index silently turn off here.
    inner_->set_telemetry(telemetry());
    inner_->set_candidate_index(candidate_index());
    const Clock::time_point start = Clock::now();
    std::vector<sched::Placement> placements =
        inner_->schedule(queue, cluster, ctx);
    log_.busy += Clock::now() - start;
    ++log_.calls;
    log_.placements += placements.size();
    if (placements.empty()) ++log_.idle;
    return placements;
  }

  std::optional<double> next_wakeup(
      std::span<const sched::QueuedTask> queue,
      const sched::ScheduleContext& ctx) const override {
    return inner_->next_wakeup(queue, ctx);
  }

 private:
  std::unique_ptr<sched::Scheduler> inner_;
  RoundLog& log_;
};

/// Bucket-interpolated median of a histogram of non-negative values.
double histogram_median(const obs::Histogram& h) {
  if (h.count() == 0) return 0.0;
  const double target = static_cast<double>(h.count()) / 2.0;
  double below = 0.0;
  double lower = 0.0;
  for (std::size_t i = 0; i < h.num_buckets(); ++i) {
    const double n = static_cast<double>(h.bucket_count(i));
    const double upper = std::min(h.upper_bound(i), h.max());
    if (n > 0.0 && below + n >= target)
      return lower + (upper - lower) * (target - below) / n;
    below += n;
    lower = upper;
  }
  return h.max();
}

/// Median absolute relative error the accuracy probe filed for
/// `family` (a model_kind_name() label or "confidence").
double rel_error_median(const obs::MetricsRegistry& metrics,
                        const std::string& family,
                        const std::string& response) {
  const std::string name = "model." + obs::metric_path_component(family) +
                           "." + response + ".rel_error_abs";
  const auto it = metrics.histograms().find(name);
  TRACON_REQUIRE(it != metrics.histograms().end(), "no histogram " + name);
  return histogram_median(it->second);
}

std::unique_ptr<sched::Scheduler> batch_scheduler(
    const std::string& kind, const sched::Predictor& predictor,
    std::size_t queue) {
  if (kind == "mibs")
    return std::make_unique<sched::MibsScheduler>(
        predictor, sched::Objective::kRuntime, queue, 60.0,
        sched::PlacementPolicy{});
  if (kind == "mix")
    return std::make_unique<sched::MixScheduler>(
        predictor, sched::Objective::kRuntime, queue, 60.0,
        sched::PlacementPolicy{});
  throw std::invalid_argument(
      "traced run supports --scheduler mibs|mix, not '" + kind + "'");
}

std::size_t line_count(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

struct SinkCost {
  std::size_t records = 0;
  std::uintmax_t bytes = 0;
  double write_s = 0.0;
};

int run(const ArgParser& args) {
  const std::vector<std::string> known = {
      "machines", "lambda", "hours", "mix", "queue", "seed", "scheduler",
      "threads", "confidence-weighting", "rebalance", "metrics-out",
      "series-out", "decisions-out", "spans-out", "spans-file"};
  if (const auto unknown = args.unknown_flags(known); !unknown.empty()) {
    std::fprintf(stderr, "perfbench_trace: unsupported flag --%s\n",
                 unknown.front().c_str());
    return 2;
  }
  TRACON_REQUIRE(args.positional().size() == 1 &&
                     args.positional().front() == "dynamic",
                 "usage: perfbench_trace dynamic <flags> --spans-file FILE");
  TRACON_REQUIRE(args.has("spans-file"), "--spans-file is required");

  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto machines = static_cast<std::size_t>(args.get_int("machines", 64));
  const double lambda = args.get_double("lambda", 100.0);
  const double duration_s = args.get_double("hours", 10.0) * 3600.0;
  const workload::MixKind mix = [&] {
    const std::string m = args.get("mix", "medium");
    if (m == "light") return workload::MixKind::kLight;
    if (m == "medium") return workload::MixKind::kMedium;
    if (m == "heavy") return workload::MixKind::kHeavy;
    if (m == "uniform") return workload::MixKind::kUniform;
    throw std::invalid_argument("unknown --mix '" + m + "'");
  }();
  const auto queue = static_cast<std::size_t>(args.get_int("queue", 8));
  const std::string sched_kind = args.get("scheduler", "mibs");
  const bool sharded = args.has("threads");
  const bool confidence = args.has("confidence-weighting");
  const bool sinks = args.has("metrics-out") || args.has("series-out") ||
                     args.has("decisions-out") || args.has("spans-out");
  TRACON_REQUIRE(!confidence || (!sharded && sched_kind == "mix"),
                 "--confidence-weighting needs the legacy path and MIX");
  TRACON_REQUIRE(sharded || !(sinks || args.has("rebalance")),
                 "the traced legacy path supports no sinks or --rebalance");

  SpanList spans;
  const int root = spans.open("perfbench.run", -1);
  auto timed = [&](const std::string& name, auto&& call) {
    SpanScope scope(spans, name, root);
    return call();
  };

  // --- Setup: core::Tracon::register_applications() and train(),
  // unrolled so every call into virt and model gets its own span.
  const auto& apps = workload::paper_benchmarks();
  const std::vector<virt::AppBehavior> synthetic =
      workload::synthetic_workloads();
  model::Profiler profiler(
      virt::HostSimulator(virt::HostConfig::paper_testbed()), seed);
  obs::ProfRegistry& prof = obs::ProfRegistry::global();
  prof.reset();
  prof.set_enabled(true);  // counts host-simulator runs; setup is serial
  std::vector<model::TrainingSet> training;
  training.reserve(apps.size());
  for (const auto& app : apps)
    training.push_back(timed("virt.profile_against", [&] {
      return profiler.profile_against(app, synthetic);
    }));
  const sim::PerfTable table = timed("virt.perf_table_build", [&] {
    return sim::PerfTable::build(profiler, apps);
  });
  prof.set_enabled(false);
  const std::uint64_t host_runs = prof.scope("virt.host_sim.run").calls;

  auto train_table = [&](model::ModelKind kind) {
    const std::string name =
        "model.train." + model::model_kind_metric_family(kind);
    std::vector<model::ModelPair> models;
    std::vector<monitor::AppProfile> profiles;
    for (std::size_t a = 0; a < apps.size(); ++a) {
      models.push_back(timed(
          name, [&] { return model::train_model_pair(kind, training[a]); }));
      profiles.push_back(table.profile(a));
    }
    return sched::TablePredictor::from_models(models, profiles);
  };
  const sched::TablePredictor predictor =
      train_table(model::ModelKind::kNonlinear);
  const std::string nlm_label =
      model::model_kind_name(model::ModelKind::kNonlinear);

  obs::Telemetry tel;
  std::deque<RoundLog> logs;
  int run_span = -1;
  sim::DynamicOutcome total;
  std::size_t base_completed = 0;
  double normalized = 0.0;
  std::size_t shard_min = 0;
  std::size_t shard_max = 0;
  double workers = 1.0;
  std::string series;
  // When the CLI run fills no metrics registry, the model-accuracy
  // numbers come from a re-run of the chosen-scheduler simulation with
  // an accuracy probe attached. It is untimed: its wall time is
  // reported as trace.untimed_s and falls inside no layer's span.
  obs::Telemetry probe;
  std::string probe_family = nlm_label;
  double untimed_s = 0.0;
  auto probe_matches = [&](std::size_t completed, std::size_t dropped) {
    TRACON_REQUIRE(completed == total.completed && dropped == total.dropped,
                   "attaching the accuracy probe changed the simulation");
  };

  if (!sharded) {
    sim::DynamicConfig cfg;
    cfg.machines = machines;
    cfg.lambda_per_min = lambda;
    cfg.duration_s = duration_s;
    cfg.mix = mix;
    cfg.queue_capacity = queue;
    cfg.seed = seed;
    sched::FifoScheduler fifo(seed + 1);
    const sim::DynamicOutcome base = timed(
        "sim.baseline", [&] { return sim::run_dynamic(table, fifo, cfg); });

    std::vector<sched::TablePredictor> family_tables;
    std::unique_ptr<sched::ConfidenceWeightedPredictor> ensemble;
    std::unique_ptr<sched::Scheduler> inner;
    if (confidence) {
      const model::ModelKind kinds[] = {model::ModelKind::kWmm,
                                        model::ModelKind::kLinear,
                                        model::ModelKind::kNonlinear};
      family_tables.reserve(std::size(kinds));
      for (model::ModelKind kind : kinds)
        family_tables.push_back(train_table(kind));
      std::vector<sched::ConfidenceWeightedPredictor::Family> families;
      for (std::size_t f = 0; f < std::size(kinds); ++f)
        families.push_back(
            {model::model_kind_metric_family(kinds[f]), &family_tables[f]});
      ensemble = std::make_unique<sched::ConfidenceWeightedPredictor>(
          std::move(families), sched::ConfidenceConfig{});
      ensemble->set_metrics(&tel.metrics);
      cfg.telemetry = &tel;
      cfg.outcome_observer = ensemble.get();
      cfg.accuracy_probe = ensemble.get();
      cfg.accuracy_family = "confidence";
      probe_family = "confidence";
      inner = batch_scheduler("mix", *ensemble, queue);
    } else {
      inner = batch_scheduler(sched_kind, predictor, queue);
    }
    TracingScheduler traced(std::move(inner), logs.emplace_back());
    if (cfg.telemetry != nullptr) traced.set_telemetry(&tel);
    run_span = spans.open("sim.run", root);
    total = sim::run_dynamic(table, traced, cfg);
    spans.close(run_span);
    base_completed = base.completed;
    normalized = static_cast<double>(total.completed) /
                 static_cast<double>(base.completed);
    shard_min = shard_max = total.completed;
    if (cfg.telemetry == nullptr) {
      const Clock::time_point start = Clock::now();
      cfg.telemetry = &probe;
      cfg.accuracy_probe = &predictor;
      cfg.accuracy_family = nlm_label;
      auto s = batch_scheduler(sched_kind, predictor, queue);
      s->set_telemetry(&probe);
      const sim::DynamicOutcome o = sim::run_dynamic(table, *s, cfg);
      probe_matches(o.completed, o.dropped);
      untimed_s += seconds(start, Clock::now());
    }
  } else {
    sim::ShardedConfig cfg;
    cfg.machines = machines;
    cfg.lambda_per_min = lambda;
    cfg.duration_s = duration_s;
    cfg.mix = mix;
    cfg.queue_capacity = queue;
    cfg.seed = seed;
    cfg.threads = static_cast<std::size_t>(args.get_int("threads", 1));
    if (args.has("rebalance")) {
      cfg.rebalance = true;
      cfg.rebalance_predictor = &predictor;
    }
    if (sinks) {
      tel.decisions.set_enabled(args.has("decisions-out"));
      tel.spans.set_enabled(args.has("spans-out"));
      cfg.telemetry = &tel;
      cfg.accuracy_probe = &predictor;
      cfg.accuracy_family = nlm_label;
    }
    if (args.has("series-out")) cfg.snapshot_interval_s = 600.0;

    sim::ShardedConfig base_cfg = cfg;
    base_cfg.telemetry = nullptr;
    base_cfg.accuracy_probe = nullptr;
    base_cfg.snapshot_interval_s = 0.0;
    base_cfg.rebalance = false;
    base_cfg.rebalance_predictor = nullptr;
    const sim::ShardedOutcome base = timed("sim.baseline", [&] {
      return sim::run_dynamic_sharded(
          table,
          [&](std::size_t shard) -> std::unique_ptr<sched::Scheduler> {
            return std::make_unique<sched::FifoScheduler>(
                derive_stream_seed(seed + 1, shard));
          },
          base_cfg);
    });

    // The factory runs serially, so growing the deque here is safe; each
    // shard's wrapper then writes only its own log from its worker.
    run_span = spans.open("sim.run", root);
    const sim::ShardedOutcome o = sim::run_dynamic_sharded(
        table,
        [&](std::size_t) -> std::unique_ptr<sched::Scheduler> {
          return std::make_unique<TracingScheduler>(
              batch_scheduler(sched_kind, predictor, queue),
              logs.emplace_back());
        },
        cfg);
    spans.close(run_span);
    total = o.total;
    base_completed = base.total.completed;
    normalized = static_cast<double>(o.total.completed) /
                 static_cast<double>(std::max<std::size_t>(1, base_completed));
    shard_min = shard_max = o.per_shard.front().completed;
    for (const sim::DynamicOutcome& s : o.per_shard) {
      shard_min = std::min(shard_min, s.completed);
      shard_max = std::max(shard_max, s.completed);
    }
    series = o.series;
    workers = static_cast<double>(std::min(o.threads_used, o.shards));

    if (cfg.telemetry != nullptr) {
      // The CLI's run-identity stamps, so the sinks write the same bytes.
      obs::MetricsRegistry& m = tel.metrics;
      m.set_fingerprint("seed", std::to_string(seed));
      m.set_fingerprint("scheduler",
                        batch_scheduler(sched_kind, predictor, queue)->name());
      m.set_fingerprint("machines", std::to_string(machines));
      m.set_fingerprint("mix", workload::mix_name(mix));
      m.set_fingerprint("host", "paper");
      m.set_fingerprint("model", "nlm");
      m.set_fingerprint("source", "live");
      m.set_fingerprint("build", "perfbench");
      m.set_fingerprint("threads", std::to_string(o.threads_used));
      m.set_fingerprint("shards", std::to_string(o.shards));
      if (cfg.rebalance) {
        m.set_fingerprint("rebalance", "on");
        m.set_fingerprint("rebalance_interval",
                          obs::json_number(cfg.rebalance_cfg.interval_s));
      }
      for (const auto& [key, value] : m.fingerprint()) {
        if (key == "threads" || key == "shards") continue;
        if (tel.decisions.enabled()) tel.decisions.set_fingerprint(key, value);
        if (tel.spans.enabled()) tel.spans.set_fingerprint(key, value);
      }
    } else {
      const Clock::time_point start = Clock::now();
      cfg.telemetry = &probe;
      cfg.accuracy_probe = &predictor;
      cfg.accuracy_family = nlm_label;
      const sim::ShardedOutcome a = sim::run_dynamic_sharded(
          table,
          [&](std::size_t) {
            return batch_scheduler(sched_kind, predictor, queue);
          },
          cfg);
      probe_matches(a.total.completed, a.total.dropped);
      untimed_s += seconds(start, Clock::now());
    }
  }

  // --- Sinks, in the CLI's write order.
  std::map<std::string, SinkCost> sink_costs = {
      {"decisions", {}}, {"spans", {}}, {"series", {}}, {"metrics", {}}};
  auto write_sink = [&](const char* flag, const std::string& sink,
                        std::size_t records, auto&& writer) {
    if (!args.has(flag)) return;
    const std::string path = args.get(flag);
    const int id = spans.open("obs." + sink + ".write", root);
    {
      std::ofstream f(path);
      TRACON_REQUIRE(static_cast<bool>(f), "cannot open " + path);
      writer(f);
    }
    spans.close(id);
    SinkCost& cost = sink_costs[sink];
    cost.records = records;
    cost.bytes = std::filesystem::file_size(path);
    cost.write_s = spans.duration(id);
  };
  write_sink("metrics-out", "metrics",
             tel.metrics.counters().size() + tel.metrics.gauges().size() +
                 tel.metrics.histograms().size(),
             [&](std::ostream& f) { tel.metrics.write_json(f); });
  write_sink("series-out", "series", line_count(series) - 1,
             [&](std::ostream& f) { f << series; });
  write_sink("decisions-out", "decisions", tel.decisions.size(),
             [&](std::ostream& f) { tel.decisions.write(f); });
  write_sink("spans-out", "spans", tel.spans.size(),
             [&](std::ostream& f) { tel.spans.write(f); });
  spans.close(root);

  // --- Untimed work after the traced program has ended.
  const Clock::time_point tail_start = Clock::now();
  const obs::MetricsRegistry& accuracy =
      probe.metrics.empty() ? tel.metrics : probe.metrics;
  const double rel_runtime =
      rel_error_median(accuracy, probe_family, "runtime");
  const double rel_iops = rel_error_median(accuracy, probe_family, "iops");

  RoundLog rounds;
  for (const RoundLog& log : logs) {
    rounds.calls += log.calls;
    rounds.placements += log.placements;
    rounds.idle += log.idle;
    rounds.busy += log.busy;
  }

  std::size_t moves = 0;
  for (const obs::DecisionEvent& e : tel.decisions.events())
    if (e.kind == obs::DecisionEvent::Kind::kMigration) ++moves;

  const double virt_busy =
      spans.busy("virt.profile_against") + spans.busy("virt.perf_table_build");
  const double sched_busy = std::chrono::duration<double>(rounds.busy).count();
  const double sched_calls = static_cast<double>(rounds.calls);
  std::map<std::string, double> layers = {
      {"virt.runs", static_cast<double>(host_runs)},
      {"virt.busy_s", virt_busy},
      {"virt.us_per_run", 1e6 * virt_busy / static_cast<double>(host_runs)},
      {"model.train.wmm.busy_s", spans.busy("model.train.wmm")},
      {"model.train.lm.busy_s", spans.busy("model.train.lm")},
      {"model.train.nlm.busy_s", spans.busy("model.train.nlm")},
      {"model.rel_error.runtime.median", rel_runtime},
      {"model.rel_error.iops.median", rel_iops},
      {"sched.schedule.calls", sched_calls},
      {"sched.schedule.busy_s", sched_busy},
      {"sched.schedule.us_per_call", 1e6 * sched_busy / sched_calls},
      {"sched.placements", static_cast<double>(rounds.placements)},
      {"sched.idle_round_frac", static_cast<double>(rounds.idle) / sched_calls},
      {"sim.run.busy_s", spans.busy("sim.run")},
      {"sim.baseline.busy_s", spans.busy("sim.baseline")},
      // Rounds run on `threads` shard workers at once, so their summed
      // busy time is scaled to the run's wall clock before subtracting.
      {"sim.self_s", spans.duration(run_span) - sched_busy / workers},
      {"sim.arrived", static_cast<double>(total.arrived)},
      {"sim.completed", static_cast<double>(total.completed)},
      {"sim.dropped", static_cast<double>(total.dropped)},
      {"sim.shard_completed.min", static_cast<double>(shard_min)},
      {"sim.shard_completed.max", static_cast<double>(shard_max)},
      {"migrate.moves", static_cast<double>(moves)},
  };
  layers["model.train.calls"] = static_cast<double>(
      spans.count("model.train.wmm") + spans.count("model.train.lm") +
      spans.count("model.train.nlm"));
  layers["model.train.busy_s"] = layers["model.train.wmm.busy_s"] +
                                 layers["model.train.lm.busy_s"] +
                                 layers["model.train.nlm.busy_s"];
  for (const auto& [sink, cost] : sink_costs) {
    layers["obs." + sink + ".records"] = static_cast<double>(cost.records);
    layers["obs." + sink + ".bytes"] = static_cast<double>(cost.bytes);
    layers["obs." + sink + ".write_s"] = cost.write_s;
  }

  {
    std::ofstream f(args.get("spans-file"));
    TRACON_REQUIRE(static_cast<bool>(f), "cannot open --spans-file");
    spans.write_json(f);
  }
  layers["trace.untimed_s"] = untimed_s + seconds(tail_start, Clock::now());

  // The CLI's summary lines, in its exact format.
  std::printf("  completed %zu (FIFO %zu, normalized %.3f)\n", total.completed,
              base_completed, normalized);
  std::printf("  dropped %zu   mean runtime %.1f s   mean wait %.1f s\n",
              total.dropped,
              total.total_runtime / static_cast<double>(std::max<std::size_t>(
                                        1, total.completed)),
              total.mean_wait_s);
  std::printf("perfbench.layers {");
  const char* sep = "";
  for (const auto& [name, value] : layers) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(tracon::ArgParser(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}

