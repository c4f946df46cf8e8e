// Sharded dynamic scenario: partitions the cluster into machine shards,
// runs one dynamic sub-simulation per shard on a worker pool, and merges
// the per-shard results deterministically. It is the only driver of a
// simulated run: the CLI's `dynamic`, `record`, `replay` and `hierarchy`
// subcommands each build one ShardedConfig and call it.
//
// Each shard is one work item: a DynamicEngine fed its arrivals either
// in chunks drawn lazily from its own Poisson stream or as its routed
// slice, built in full, beside an optional FIFO baseline engine fed
// the same arrivals first. A run whose decision or span log streams to
// its file runs in epochs of kEpochArrivals arrivals: every shard
// advances to the epoch's end, and at that barrier the logs write the
// records no shard can precede any more. Any other run is one epoch.
//
// Model note: a shard is the paper's per-manager sub-cluster (Section
// 3's manager tree) — each shard has its own queue (queue_capacity per
// shard), its own scheduler instance, and its share of the arrivals.
// Shard count therefore changes the simulated system; it deliberately
// does NOT default from the thread count. A 1-shard run is the flat
// system itself: shard 0 draws on the root seed and records straight
// into the caller's sinks, so it is byte-identical to run_dynamic on
// the same configuration.
//
// Determinism contract (DESIGN.md §7): every quantity that affects the
// simulation or its exports is a function of (seed, machines, shards,
// routing) only — machine partitioning, per-shard arrival streams
// (shard_seed), the routed split of a root stream, scheduler
// construction, and the serial shard-order merge. The thread count
// sizes the worker pool and NOTHING else, so `--threads N` produces
// byte-identical metrics JSON, snapshot series, and task/trace event
// files to `--threads 1` for the same seed. Each stream has one
// per-shard recorder and one merge. The tracer (task events included)
// moves every shard's recorder into the caller's as a part at the
// join; the decision and span logs do so at every epoch barrier, the
// last one being the join. Each goes through one k-way merge on (time,
// shard, record), util/stamp_merge.hpp, as it is written. The series
// merges by SeriesWindow value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "migrate/rebalancer.hpp"
#include "obs/telemetry.hpp"
#include "sched/predictor.hpp"
#include "sched/scheduler.hpp"
#include "sim/arrival_source.hpp"
#include "sim/dynamic_scenario.hpp"
#include "sim/perf_table.hpp"
#include "workload/mixes.hpp"

namespace tracon::sim {

/// Arrivals across the fleet per epoch of a run whose decision or span
/// log streams to its file: at 4096 arrivals per minute an epoch is
/// 240 s of virtual time. The run holds about one epoch of log records.
inline constexpr double kEpochArrivals = 16384.0;

/// Builds shard `shard`'s scheduler. Called serially on the caller's
/// thread before the workers start, once per shard in shard order —
/// factories may therefore use shared mutable state (e.g. draw
/// per-shard seeds). Each returned scheduler is driven by exactly one
/// worker thread.
using SchedulerFactory =
    std::function<std::unique_ptr<sched::Scheduler>(std::size_t shard)>;

/// How arrivals reach the shards.
enum class Routing {
  kIndependent,  ///< one Poisson stream per shard at its machine share
  kRoundRobin,   ///< one root stream, arrival i to shard i % K
  kRandom,       ///< one root stream, i.i.d. uniform shard choice
};

struct ShardedConfig {
  std::size_t machines = 64;
  double lambda_per_min = 100.0;  ///< aggregate rate, split across shards
  double duration_s = 36'000.0;
  workload::MixKind mix = workload::MixKind::kMedium;
  double mix_stddev = 1.5;
  std::uint64_t seed = 7;
  /// Per-shard manager queue bound (the MIBS_8 subscript applies to
  /// each shard's manager).
  std::size_t queue_capacity = 8;
  double schedule_period_s = 5.0;

  /// Worker pool size; 0 = hardware_threads(). Affects wall-clock
  /// time only, never results.
  std::size_t threads = 1;
  /// Number of machine shards; 0 = auto_shard_count(machines). Part of
  /// the simulated system's shape — never derived from `threads`.
  std::size_t shards = 0;

  /// Arrival routing. A run has a root stream when routing is
  /// round-robin or random, or when `arrival_source` is set: the engine
  /// materializes it once and hands each shard its routed slice (a
  /// thinned Poisson process is Poisson again, so the slices are what
  /// independent leaf managers would see). Without a root stream each
  /// shard draws its own Poisson stream on shard_seed(seed, i).
  Routing routing = Routing::kIndependent;
  /// Root-stream override (not owned; may be nullptr), like
  /// DynamicConfig::arrival_source: when set it replaces the Poisson
  /// root stream, e.g. a recorded trace or a recording tee. With
  /// independent routing it requires one shard.
  ArrivalSource* arrival_source = nullptr;

  /// Merged-output sinks (not owned; may be nullptr). Typed trace
  /// events (the per-task event log among them), decisions and spans
  /// are buffered per shard with shard-local machine indices, then
  /// re-indexed into the global machine space and emitted in canonical
  /// (time, shard, record) order. Metrics merge via
  /// MetricsRegistry::merge with machine-weighted utilization gauges.
  /// A 1-shard run records into it directly, with no merge.
  obs::Telemetry* telemetry = nullptr;

  /// Accuracy probe shared by every shard; must be immutable under
  /// concurrent reads (TablePredictor qualifies, the confidence
  /// ensemble does not — see `ensembles`). See
  /// DynamicConfig::accuracy_probe.
  const sched::Predictor* accuracy_probe = nullptr;
  std::string accuracy_family;
  /// Per-shard rolling accuracy window capacity (when probing).
  std::size_t accuracy_window = 64;

  /// Confidence-weighted ensembles (not owned): empty, or exactly one
  /// per shard, all sharing the same read-only family tables. Shard i
  /// uses ensembles[i] as its completion observer, its accuracy probe
  /// (family "confidence"), the registry owner of its
  /// `sched.confidence.*` weight gauges, and the source of its
  /// per-family `model.<family>.*` series windows. Each ensemble is
  /// touched by its own shard only, so the stateful blend stays
  /// thread-count invariant. Excludes `accuracy_probe`.
  std::vector<sched::ConfidenceWeightedPredictor*> ensembles;

  /// Live rebalancing, restricted per shard (DESIGN.md §6h): when on,
  /// each shard owns one migrate::Rebalancer scoped to its own
  /// machines, fed by its own completions — no state crosses a shard
  /// boundary, so migrations are a function of the shard's seed alone
  /// and `--threads N` stays byte-identical to `--threads 1`. No sink
  /// feeds it, so the sinks never change the run. Cross-shard moves
  /// are deliberately not modeled: a shard is the paper's per-manager
  /// sub-cluster, and a manager only migrates within its own fleet.
  bool rebalance = false;
  migrate::RebalanceConfig rebalance_cfg;
  /// Predictor the per-shard rebalancers score destinations with; must
  /// be non-null when `rebalance` is set and immutable under
  /// concurrent reads (TablePredictor qualifies).
  const sched::Predictor* rebalance_predictor = nullptr;

  /// > 0 enables the merged snapshot series (ShardedOutcome::series):
  /// every shard samples the same virtual-clock window grid, and
  /// windows merge index by index at those global barriers.
  double snapshot_interval_s = 0.0;

  /// Also run the paper's normalization baseline (ShardedOutcome::
  /// baseline): each shard's work item runs a second engine beside the
  /// scheduled one, FIFO seeded at shard_seed(seed + 1, shard, shards)
  /// with no sink, rebalancer, series, probe or observer, fed the same
  /// arrival chunks first.
  bool fifo_baseline = false;
};

struct ShardedOutcome {
  DynamicOutcome total;
  std::vector<DynamicOutcome> per_shard;
  /// The FIFO baseline's outcome, merged like `total`; all zero unless
  /// ShardedConfig::fifo_baseline was set.
  DynamicOutcome baseline;
  std::size_t shards = 0;        ///< effective shard count
  std::size_t threads_used = 0;  ///< effective worker-pool size
  /// Merged `tracon.metrics_series` document (empty when
  /// snapshot_interval_s == 0; a 1-shard run's own series verbatim).
  /// The shards' SeriesWindow values merge index by index, then are
  /// written once: per-window counter deltas and gauges sum across
  /// shards; accuracy stats merge count-weighted (the quantiles are a
  /// weighted average of per-shard quantiles, an approximation that is
  /// exact for the count/total fields).
  std::string series;

  /// Coefficient of variation of per-shard completions — a routing
  /// fairness measure (0 = perfectly balanced).
  double completion_imbalance() const;
};

/// Default shard count for a cluster size: one shard per 128 machines,
/// clamped to [1, 64]. Pure function of `machines` so same-seed runs
/// agree on the decomposition regardless of the host.
std::size_t auto_shard_count(std::size_t machines);

/// The effective shard count of `cfg`: `shards` (or auto_shard_count
/// when 0), never more than one shard per machine.
std::size_t shard_count(const ShardedConfig& cfg);

/// The effective worker-pool size of `cfg`: `threads`, or
/// hardware_threads() when 0.
std::size_t worker_count(const ShardedConfig& cfg);

/// Seed of shard `shard`'s random stream out of `shards`: the root
/// seed itself for a 1-shard run (the flat system), else
/// derive_stream_seed(seed, shard). Callers that seed per-shard
/// components (e.g. FIFO schedulers at seed + 1) follow the same rule.
std::uint64_t shard_seed(std::uint64_t seed, std::size_t shard,
                         std::size_t shards);

/// Runs the sharded scenario. See the file comment for the determinism
/// contract; throws (first worker error) if any shard fails.
ShardedOutcome run_dynamic_sharded(const PerfTable& table,
                                   const SchedulerFactory& make_scheduler,
                                   const ShardedConfig& cfg);

}  // namespace tracon::sim
