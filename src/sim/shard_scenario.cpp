#include "sim/shard_scenario.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/snapshot.hpp"
#include "sched/fifo.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/summary.hpp"

namespace tracon::sim {

std::size_t auto_shard_count(std::size_t machines) {
  return std::clamp<std::size_t>(machines / 128, 1, 64);
}

std::size_t shard_count(const ShardedConfig& cfg) {
  return std::min(
      cfg.shards > 0 ? cfg.shards : auto_shard_count(cfg.machines),
      cfg.machines);
}

std::size_t worker_count(const ShardedConfig& cfg) {
  return cfg.threads > 0 ? cfg.threads : hardware_threads();
}

std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard,
                         std::size_t shards) {
  return shards == 1 ? seed : derive_stream_seed(seed, shard);
}

double ShardedOutcome::completion_imbalance() const {
  if (per_shard.size() < 2) return 0.0;
  std::vector<double> xs;
  xs.reserve(per_shard.size());
  for (const DynamicOutcome& o : per_shard)
    xs.push_back(static_cast<double>(o.completed));
  Summary s = Summary::of(xs);
  return s.mean > 0.0 ? s.stddev / s.mean : 0.0;
}

namespace {

/// A shard's run in progress: its engines, the Poisson stream it draws
/// when it draws its own, and its arrival feed.
struct ShardRun {
  std::optional<DynamicEngine> engine;
  std::optional<sched::FifoScheduler> fifo;
  std::optional<DynamicEngine> baseline;
  std::optional<PoissonStream> stream;
  std::optional<ArrivalFeed> feed;
};

/// Everything one shard owns. Sink pointers in `cfg` point into this
/// struct, so states are wired only after the state vector has reached
/// its final size and is never reallocated or moved afterwards.
struct ShardState {
  std::size_t base = 0;  ///< first global machine index of the shard
  DynamicConfig cfg;
  std::unique_ptr<sched::Scheduler> scheduler;
  std::vector<Arrival> arrivals;  ///< routed slice of the root stream
  obs::Telemetry telemetry;
  std::optional<obs::SnapshotSeries> series;
  std::optional<obs::WindowedAccuracy> win_runtime;
  std::optional<obs::WindowedAccuracy> win_iops;
  std::optional<migrate::Rebalancer> rebalancer;
  DynamicOutcome outcome;
  DynamicOutcome baseline;

  /// The run in progress, from its first epoch's work item to its
  /// last's.
  std::unique_ptr<ShardRun> run;
  /// The shard's arrivals, counted before the first write when its logs
  /// merge: its task ids are offset by the shards' before it.
  std::uint64_t counted = 0;
  std::uint64_t task_base = 0;
  /// earliest_open_start() at the epoch's end.
  double open_start = 0.0;
};

/// The FIFO baseline's configuration: the shard's shape and arrival
/// stream, and nothing attached.
DynamicConfig baseline_config(const DynamicConfig& cfg) {
  DynamicConfig b;
  b.machines = cfg.machines;
  b.lambda_per_min = cfg.lambda_per_min;
  b.duration_s = cfg.duration_s;
  b.mix = cfg.mix;
  b.mix_stddev = cfg.mix_stddev;
  b.seed = cfg.seed;
  b.queue_capacity = cfg.queue_capacity;
  b.schedule_period_s = cfg.schedule_period_s;
  return b;
}

/// Sums shard outcomes in shard order. mean_wait is per started task,
/// so it merges weighted by each shard's started tasks.
DynamicOutcome merge_outcomes(std::span<const DynamicOutcome> parts,
                              double duration_s) {
  DynamicOutcome total;
  total.duration_s = duration_s;
  double wait_weighted = 0.0;
  for (const DynamicOutcome& o : parts) {
    total.arrived += o.arrived;
    total.dropped += o.dropped;
    total.completed += o.completed;
    total.started += o.started;
    total.total_runtime += o.total_runtime;
    total.total_iops += o.total_iops;
    total.mean_queue_length += o.mean_queue_length;
    wait_weighted += o.mean_wait_s * static_cast<double>(o.started);
  }
  total.mean_wait_s = total.started > 0
                          ? wait_weighted / static_cast<double>(total.started)
                          : 0.0;
  return total;
}

/// Replaces the merged gauges whose merge() default (last writer wins)
/// is meaningless with a cluster-level aggregate: utilization fractions
/// average machine-weighted, queue lengths and busy counts sum.
void aggregate_gauges(obs::MetricsRegistry& merged,
                      const std::vector<ShardState>& states,
                      std::size_t total_machines) {
  auto aggregate = [&](const std::string& name, bool machine_weighted) {
    double acc = 0.0;
    bool present = false;
    for (const ShardState& s : states) {
      auto it = s.telemetry.metrics.gauges().find(name);
      if (it == s.telemetry.metrics.gauges().end()) continue;
      present = true;
      acc += machine_weighted
                 ? it->second.value() * static_cast<double>(s.cfg.machines)
                 : it->second.value();
    }
    if (present)
      merged.gauge(name).set(
          machine_weighted ? acc / static_cast<double>(total_machines) : acc);
  };
  for (const char* name :
       {"sim.util.host_busy_fraction", "sim.util.slot_busy_fraction"})
    aggregate(name, true);
  for (const char* name :
       {"sim.queue.mean_length", "sim.queue.length", "sim.util.busy_machines",
        "sim.util.busy_slots", "sched.queue_length"})
    aggregate(name, false);
}

/// Merges the per-shard snapshot series window by window. All shards
/// sample the same virtual-clock grid (same interval and horizon), so
/// windows pair up by index: counter deltas and gauges sum, accuracy
/// statistics merge weighted by each shard's windowed sample count.
std::string merge_series(const std::vector<ShardState>& states) {
  obs::MetricsSeries merged = states.front().series->series();
  // Pre-scale accuracy stats by their weights; divided back out after
  // every shard is folded in.
  for (obs::SeriesWindow& w : merged.windows)
    for (auto& [name, a] : w.accuracy) {
      a.mean_abs *= a.count;
      a.p50 *= a.count;
      a.p90 *= a.count;
    }
  for (std::size_t i = 1; i < states.size(); ++i) {
    const obs::MetricsSeries& part = states[i].series->series();
    TRACON_REQUIRE(part.windows.size() == merged.windows.size(),
                   "shards disagree on snapshot window count");
    for (std::size_t w = 0; w < part.windows.size(); ++w) {
      const obs::SeriesWindow& in = part.windows[w];
      obs::SeriesWindow& out = merged.windows[w];
      TRACON_REQUIRE(in.index == out.index && in.t_end == out.t_end,
                     "shards disagree on snapshot window boundaries");
      for (const auto& [name, v] : in.counters) out.counters[name] += v;
      for (const auto& [name, v] : in.gauges) out.gauges[name] += v;
      for (const auto& [name, a] : in.accuracy) {
        obs::SeriesWindow::Accuracy& acc = out.accuracy[name];
        acc.count += a.count;
        acc.total += a.total;
        acc.mean_abs += a.mean_abs * a.count;
        acc.p50 += a.p50 * a.count;
        acc.p90 += a.p90 * a.count;
      }
    }
  }
  for (obs::SeriesWindow& w : merged.windows)
    for (auto& [name, a] : w.accuracy) {
      double denom = a.count > 0.0 ? a.count : 1.0;
      a.mean_abs /= denom;
      a.p50 /= denom;
      a.p90 /= denom;
    }
  return obs::metrics_series_str(merged);
}

/// Registers one model family's rolling accuracy windows with a shard's
/// snapshot series as `model.<family>.{runtime,iops}`.
void track_family(obs::SnapshotSeries& series, const std::string& family,
                  const obs::WindowedAccuracy* runtime,
                  const obs::WindowedAccuracy* iops) {
  // TRACON_ANALYZE_ALLOW(metric-name): the composed path is validated
  // by track_accuracy itself.
  series.track_accuracy("model." + family + ".runtime", runtime);
  // TRACON_ANALYZE_ALLOW(metric-name): validated the same way.
  series.track_accuracy("model." + family + ".iops", iops);
}

/// The arrivals before the horizon of a merged shard `s`'s stream: its
/// routed slice's, or those of its Poisson stream drawn once more to
/// count them.
std::uint64_t count_arrivals(const ShardState& s, bool routed) {
  if (routed) {
    return static_cast<std::uint64_t>(std::count_if(
        s.arrivals.begin(), s.arrivals.end(),
        [&](const Arrival& a) { return a.time_s < s.cfg.duration_s; }));
  }
  PoissonStream stream(s.cfg.lambda_per_min, s.cfg.duration_s, s.cfg.mix,
                       s.cfg.mix_stddev, s.cfg.seed);
  std::uint64_t n = 0;
  while (stream.next().has_value()) ++n;
  return n;
}

/// One epoch of shard `shard`'s work item: feeds its engines every
/// arrival before `until` and runs them there, or, in the last epoch,
/// feeds the rest and runs to the horizon. The first epoch builds the
/// engines and the feed, of the routed slice, of the caller's source in
/// a one-shard run, or of the shard's own Poisson stream, and the last
/// destroys them, so a one-epoch run holds them only inside its work
/// item. The baseline engine, when on, takes each arrival first.
void run_epoch(const PerfTable& table, const ShardedConfig& cfg,
               ShardState& s, std::size_t shard, std::size_t shards,
               bool routed, double until, bool last) {
  if (s.run == nullptr) {
    s.run = std::make_unique<ShardRun>();
    ShardRun& r = *s.run;
    r.engine.emplace(table, *s.scheduler, s.cfg);
    if (cfg.fifo_baseline) {
      r.fifo.emplace(shard_seed(cfg.seed + 1, shard, shards));
      r.baseline.emplace(table, *r.fifo, baseline_config(s.cfg));
    }
    if (routed) {
      r.feed.emplace(std::move(s.arrivals));
    } else if (cfg.arrival_source != nullptr) {
      // Only a one-shard run pulls the caller's source, and parallel_for
      // runs a single item on the caller's thread, so no other thread
      // ever touches the source.
      r.feed.emplace(*cfg.arrival_source);
    } else {
      r.stream.emplace(s.cfg.lambda_per_min, s.cfg.duration_s, s.cfg.mix,
                       s.cfg.mix_stddev, s.cfg.seed);
      r.feed.emplace(*r.stream);
    }
  }
  ShardRun& r = *s.run;
  std::vector<DynamicEngine*> engines;
  if (r.baseline.has_value()) engines.push_back(&*r.baseline);
  engines.push_back(&*r.engine);
  r.feed->feed_until(until, engines);
  if (last) {
    r.feed.reset();
    if (r.baseline.has_value()) s.baseline = r.baseline->finish();
    s.outcome = r.engine->finish();
    s.run.reset();
  } else {
    for (DynamicEngine* e : engines) e->advance_to(until);
    s.open_start = r.engine->earliest_open_start();
  }
}

/// Deals the root arrival stream out as it is pulled, kArrivalChunk
/// arrivals at a time: arrival i goes to shard i % K under round-robin,
/// or to a uniform draw from a stream seeded off the root seed under
/// random routing. The root stream is the caller's source, or a Poisson
/// stream on the root seed at the full rate.
void route_root_stream(const ShardedConfig& cfg,
                       std::vector<ShardState>& states) {
  std::optional<PoissonStream> poisson;
  if (cfg.arrival_source == nullptr)
    poisson.emplace(cfg.lambda_per_min, cfg.duration_s, cfg.mix,
                    cfg.mix_stddev, cfg.seed);
  ArrivalSource& source =
      cfg.arrival_source != nullptr ? *cfg.arrival_source : *poisson;
  const std::size_t k = states.size();
  Rng route_rng(cfg.seed ^ 0xabcdef12345ULL);
  std::vector<Arrival> chunk(kArrivalChunk);
  std::size_t i = 0;
  for (std::size_t got = chunk.size(); got == chunk.size();) {
    got = source.fill(chunk);
    for (const Arrival& a : std::span(chunk).first(got)) {
      const std::size_t shard =
          cfg.routing == Routing::kRandom ? route_rng.index(k) : i % k;
      states[shard].arrivals.push_back(a);
      ++i;
    }
  }
}

}  // namespace

ShardedOutcome run_dynamic_sharded(const PerfTable& table,
                                   const SchedulerFactory& make_scheduler,
                                   const ShardedConfig& cfg) {
  TRACON_REQUIRE(cfg.machines > 0, "need at least one machine");
  TRACON_REQUIRE(make_scheduler != nullptr, "scheduler factory must be set");
  const std::size_t shards = shard_count(cfg);
  const std::size_t threads = worker_count(cfg);
  TRACON_REQUIRE(cfg.routing != Routing::kIndependent ||
                     cfg.arrival_source == nullptr || shards == 1,
                 "an arrival-source override with independent routing "
                 "needs one shard");
  // A one-shard run never routes: shard 0 pulls the root stream itself,
  // which is the slice either routing would deal it.
  const bool routed = shards > 1 && cfg.routing != Routing::kIndependent;
  TRACON_REQUIRE(cfg.ensembles.empty() ||
                     (cfg.ensembles.size() == shards &&
                      std::count(cfg.ensembles.begin(), cfg.ensembles.end(),
                                 nullptr) == 0),
                 "need exactly one non-null confidence ensemble per shard");
  TRACON_REQUIRE(cfg.ensembles.empty() || cfg.accuracy_probe == nullptr,
                 "per-shard ensembles replace the shared accuracy probe");
  // A 1-shard run is the flat system: shard 0 records straight into the
  // caller's sinks and its outcome is the total — nothing to merge.
  const bool merge = shards > 1;
  const bool series_on = cfg.snapshot_interval_s > 0.0;
  const bool telemetry_on = cfg.telemetry != nullptr || series_on;
  const bool tracer_on =
      cfg.telemetry != nullptr && cfg.telemetry->tracer.enabled();
  const bool decisions_on =
      cfg.telemetry != nullptr && cfg.telemetry->decisions.enabled();
  const bool spans_on =
      cfg.telemetry != nullptr && cfg.telemetry->spans.enabled();

  // --- Decompose: everything here is a function of (seed, machines,
  // shards, routing); the thread count appears only in the parallel_for
  // below.
  std::vector<ShardState> states(shards);
  const std::size_t per_shard = cfg.machines / shards;
  const std::size_t remainder = cfg.machines % shards;
  std::size_t base = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    ShardState& s = states[i];
    s.base = base;
    DynamicConfig& d = s.cfg;
    d.machines = per_shard + (i < remainder ? 1 : 0);
    base += d.machines;
    // Each shard sees its machine share of the aggregate arrival rate,
    // drawn from its own Poisson stream (unless a root stream is routed).
    d.lambda_per_min = merge ? cfg.lambda_per_min *
                                   static_cast<double>(d.machines) /
                                   static_cast<double>(cfg.machines)
                             : cfg.lambda_per_min;
    d.duration_s = cfg.duration_s;
    d.mix = cfg.mix;
    d.mix_stddev = cfg.mix_stddev;
    d.seed = shard_seed(cfg.seed, i, shards);
    d.queue_capacity = cfg.queue_capacity;
    d.schedule_period_s = cfg.schedule_period_s;
    d.accuracy_probe = cfg.accuracy_probe;
    d.accuracy_family = cfg.accuracy_family;
    s.scheduler = make_scheduler(i);
    TRACON_REQUIRE(s.scheduler != nullptr, "scheduler factory returned null");
  }
  TRACON_ASSERT(base == cfg.machines, "shard partition must cover the fleet");
  if (routed) route_root_stream(cfg, states);

  // Wire the per-shard sinks only now that `states` has its final
  // addresses (DynamicConfig stores raw pointers into its ShardState).
  for (std::size_t i = 0; i < shards; ++i) {
    ShardState& s = states[i];
    obs::Telemetry* tel =
        !merge && cfg.telemetry != nullptr ? cfg.telemetry : &s.telemetry;
    if (telemetry_on) {
      s.cfg.telemetry = tel;
      s.scheduler->set_telemetry(tel);
    }
    s.telemetry.tracer.set_enabled(tracer_on);
    s.telemetry.decisions.set_enabled(decisions_on);
    s.telemetry.spans.set_enabled(spans_on);
    sched::ConfidenceWeightedPredictor* ensemble =
        cfg.ensembles.empty() ? nullptr : cfg.ensembles[i];
    if (ensemble != nullptr) {
      s.cfg.outcome_observer = ensemble;
      s.cfg.accuracy_probe = ensemble;
      s.cfg.accuracy_family = "confidence";
      if (telemetry_on) ensemble->set_metrics(&tel->metrics);
    }
    if (cfg.rebalance) {
      TRACON_REQUIRE(cfg.rebalance_predictor != nullptr,
                     "sharded rebalancing needs a destination predictor");
      s.rebalancer.emplace(*cfg.rebalance_predictor, cfg.rebalance_cfg);
      s.cfg.rebalancer = &*s.rebalancer;
    }
    if (series_on) {
      s.series.emplace(tel->metrics, cfg.snapshot_interval_s);
      s.cfg.snapshots = &*s.series;
      if (ensemble != nullptr) {
        for (std::size_t f = 0; f < ensemble->num_families(); ++f)
          track_family(*s.series, ensemble->family_name(f),
                       &ensemble->runtime_window(f),
                       &ensemble->iops_window(f));
      } else if (cfg.accuracy_probe != nullptr) {
        s.win_runtime.emplace(cfg.accuracy_window);
        s.win_iops.emplace(cfg.accuracy_window);
        s.cfg.windowed_runtime = &*s.win_runtime;
        s.cfg.windowed_iops = &*s.win_iops;
        track_family(*s.series,
                     obs::metric_path_component(cfg.accuracy_family.empty()
                                                    ? "probe"
                                                    : cfg.accuracy_family),
                     &*s.win_runtime, &*s.win_iops);
      }
    }
  }

  // --- Run every shard on the worker pool, one epoch at a time. A run
  // whose decision or span log streams to its file (DESIGN.md §7)
  // advances every shard to each epoch's end in turn, and at each
  // barrier writes the records no shard can precede any more; any other
  // run is one epoch. Shards touch only their own state (plus shared
  // read-only inputs: the perf table, the probe and the ensembles'
  // family tables), and parallel_for joins all workers before
  // returning, so each barrier reads fully published results.
  const bool streamed =
      cfg.telemetry != nullptr && (cfg.telemetry->decisions.streaming() ||
                                   cfg.telemetry->spans.streaming());
  const double epoch_s = streamed && cfg.lambda_per_min > 0.0
                             ? kEpochArrivals * 60.0 / cfg.lambda_per_min
                             : std::numeric_limits<double>::infinity();
  // Merged logs offset each shard's task ids by the arrivals of the
  // shards before it, counted in the first epoch, before any write.
  const bool count = merge && (decisions_on || spans_on);
  for (std::size_t epoch = 0;; ++epoch) {
    const double end = epoch_s * static_cast<double>(epoch + 1);
    const bool last = !(end < cfg.duration_s);
    const double until =
        last ? std::numeric_limits<double>::infinity() : end;
    parallel_for(threads, shards, [&](std::size_t i) {
      ShardState& s = states[i];
      if (count && epoch == 0)
        s.counted = count_arrivals(s, routed);
      run_epoch(table, cfg, s, i, shards, routed, until, last);
      // Spans are recorded as they close, and a merge part is ordered
      // by start. A task's starts never decrease, so its own spans stay
      // in chronological order.
      if (merge && spans_on) s.telemetry.spans.sort_by_start();
    });

    if (count && epoch == 0) {
      std::uint64_t task_base = 0;
      for (ShardState& s : states) {
        s.task_base = task_base;
        task_base += s.counted;
      }
    }
    if (merge) {
      // Every record below `until` is in. Decisions are recorded at the
      // clock, so all of them are; a span still to come starts at the
      // earliest span a shard holds open, or later.
      double watermark = until;
      if (!last)
        for (const ShardState& s : states)
          watermark = std::min(watermark, s.open_start);
      for (ShardState& s : states) {
        if (decisions_on)
          cfg.telemetry->decisions.append_part(s.telemetry.decisions, s.base,
                                               s.task_base);
        if (spans_on)
          cfg.telemetry->spans.append_part(s.telemetry.spans, s.base,
                                           s.task_base, watermark);
      }
    }
    if (decisions_on && cfg.telemetry->decisions.streaming())
      cfg.telemetry->decisions.flush(threads);
    if (spans_on && cfg.telemetry->spans.streaming())
      cfg.telemetry->spans.flush(threads);
    if (last) break;
  }
  for (const ShardState& s : states)
    TRACON_ASSERT(!count || s.counted == s.outcome.arrived,
                  "a shard's counted arrivals must be the ones it ran");

  ShardedOutcome out;
  out.shards = shards;
  out.threads_used = threads;
  if (!merge) {
    out.total = states[0].outcome;
    out.per_shard.push_back(states[0].outcome);
    out.baseline = states[0].baseline;
    if (series_on) out.series = states[0].series->str();
    return out;
  }

  // --- Merge, serially and in shard order.
  std::vector<DynamicOutcome> baselines;
  out.per_shard.reserve(shards);
  baselines.reserve(shards);
  for (const ShardState& s : states) {
    out.per_shard.push_back(s.outcome);
    baselines.push_back(s.baseline);
  }
  out.total = merge_outcomes(out.per_shard, cfg.duration_s);
  if (cfg.fifo_baseline)
    out.baseline = merge_outcomes(baselines, cfg.duration_s);

  if (cfg.telemetry != nullptr) {
    for (const ShardState& s : states)
      cfg.telemetry->metrics.merge(s.telemetry.metrics);
    aggregate_gauges(cfg.telemetry->metrics, states, cfg.machines);
  }

  // Each shard's tracer moves into the caller's as a part, merged on
  // (time, shard, record) as it is written, re-indexed into the global
  // machine space.
  if (tracer_on)
    for (ShardState& s : states)
      cfg.telemetry->tracer.append_part(std::move(s.telemetry.tracer), s.base);

  if (series_on) out.series = merge_series(states);
  return out;
}

}  // namespace tracon::sim
