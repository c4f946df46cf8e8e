// Dynamic workload scenario (Section 4.2, second case): tasks arrive as
// a Poisson process with rate lambda per minute; the scheduler is
// invoked on arrivals, completions, and its own batch-timeout wake-ups.
// Running tasks' progress follows the measured pairwise speeds; when a
// VM's neighbour changes, the remaining work is re-timed at the new
// speed (the paper's remaining-20%-runs-with-task-C rule).
//
// DynamicEngine is the simulation; run_dynamic feeds it one whole
// stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "migrate/rebalancer.hpp"
#include "obs/snapshot.hpp"
#include "obs/telemetry.hpp"
#include "sched/predictor.hpp"
#include "sched/scheduler.hpp"
#include "sim/arrival_source.hpp"
#include "sim/perf_table.hpp"
#include "workload/mixes.hpp"

namespace tracon::sim {

struct DynamicConfig {
  std::size_t machines = 64;
  double lambda_per_min = 100.0;   ///< Poisson arrival rate
  double duration_s = 36'000.0;    ///< paper: ten hours
  workload::MixKind mix = workload::MixKind::kMedium;
  double mix_stddev = 1.5;
  std::uint64_t seed = 7;
  /// Bound of the manager's task queue — the paper's MIBS_8 subscript.
  /// Arrivals that find the queue full are rejected (counted in
  /// `dropped`); the same bound applies to every scheduler compared on
  /// a workload so losses are apples-to-apples.
  std::size_t queue_capacity = 8;
  /// Period of the manager's scheduling rounds. Application servers
  /// report status to the manager in a time interval (Section 3);
  /// between rounds completed VMs accumulate, which is what gives a
  /// batch scheduler genuinely concurrent placement choices. Online
  /// schedulers (FIFO, MIOS) additionally dispatch on every event.
  double schedule_period_s = 5.0;
  /// Optional telemetry sinks (not owned; may be nullptr). When set, the
  /// run records task/VM/queue counters and histograms plus typed trace
  /// events at virtual-clock timestamps; the per-task event log is the
  /// tracer's kTask* events.
  obs::Telemetry* telemetry = nullptr;
  /// Optional prediction-accuracy probe (not owned). When both this and
  /// `telemetry` are set, each placement captures the probe's predicted
  /// runtime/IOPS for the chosen slot, and each completion feeds the
  /// realized values into per-family relative-error histograms
  /// (`model.<accuracy_family>.{runtime,iops}.rel_error_*`). Predictions
  /// are as-of placement: neighbour churn afterwards is part of the
  /// error being measured, exactly like the paper's online setting.
  const sched::Predictor* accuracy_probe = nullptr;
  /// Model-family label for the accuracy metrics (e.g. "NLM"); sanitized
  /// into a metric path component. Empty means "probe".
  std::string accuracy_family;
  /// Optional windowed snapshot sampler (not owned; requires
  /// `telemetry`). The event loop closes one window every
  /// snapshots->interval_s() sim-seconds (plus a final partial window
  /// at the horizon), sampling live task counters, queue/utilization
  /// gauges, and whatever accuracy windows the caller registered. All
  /// timestamps are virtual-clock.
  obs::SnapshotSeries* snapshots = nullptr;
  /// Optional completion observer (not owned). Fed every completed
  /// task's (app, placement-time neighbour, realized runtime, mean
  /// IOPS) — the seam through which the confidence-weighted predictor
  /// learns online. Independent of `telemetry`.
  sched::CompletionObserver* outcome_observer = nullptr;
  /// Optional rolling accuracy windows (not owned) fed the accuracy
  /// probe's placement-time predictions against realized outcomes, for
  /// snapshot-series quantiles on runs without a confidence ensemble.
  /// Require `accuracy_probe`.
  obs::WindowedAccuracy* windowed_runtime = nullptr;
  obs::WindowedAccuracy* windowed_iops = nullptr;
  /// Optional live rebalancer (not owned; may be nullptr). When set,
  /// the event loop runs a rebalance round every
  /// rebalancer->config().interval_s of virtual time: running tasks are
  /// snapshotted (machines ascending, slot 0 first), the rebalancer
  /// plans migrations from its own slowdown rings (it reads no sink),
  /// and each planned move is applied — the task is frozen for the
  /// downtime, a copy-I/O window slows both hosts, and a decision-log
  /// migration record preserves provenance. The rebalancer is also fed
  /// every completion. Stateful: use one instance per run (per shard
  /// under the sharded engine).
  migrate::Rebalancer* rebalancer = nullptr;
  /// Optional arrival stream override (not owned; may be nullptr). When
  /// set, run_dynamic(table, scheduler, cfg) draws the arrival list from
  /// this source and lambda_per_min / mix / mix_stddev / seed are
  /// ignored; when null, the paper's Poisson stream (PoissonStream over
  /// those fields) is drawn lazily. This is how a recorded trace is
  /// replayed under a different scheduler. DynamicEngine ignores it:
  /// its caller feeds the arrivals.
  ArrivalSource* arrival_source = nullptr;
};

struct DynamicOutcome {
  std::size_t arrived = 0;
  std::size_t dropped = 0;       ///< rejected: queue was at capacity
  std::size_t completed = 0;     ///< tasks finished within the duration
  std::size_t started = 0;       ///< tasks placed within the duration
  double total_runtime = 0.0;    ///< sum of realized runtimes (completed)
  double total_iops = 0.0;       ///< sum of per-task average IOPS
  double mean_wait_s = 0.0;      ///< queue wait of started tasks
  double mean_queue_length = 0.0;///< time-averaged queue length
  double duration_s = 0.0;       ///< simulated horizon (copied from config)
  double throughput_per_hour() const;
};

/// One dynamic run as a resumable object. Between calls it holds the
/// whole simulation state: the fleet, the control clocks, the pending
/// wake-up instants, the completion heap, the manager's queue and the
/// run's integrals. It is fed the arrival stream in time-sorted chunks.
/// feed() runs every event it can decide and stops before choosing the
/// next one whenever no fed arrival is left, since an arrival still to
/// come could be the earliest event. finish() ends the stream and runs
/// to the horizon. The event sequence, and so every outcome and sink
/// byte, is therefore the same however the stream is cut into chunks.
class DynamicEngine {
 public:
  /// Checks `cfg`; cfg.arrival_source is ignored. `table`, `scheduler`
  /// and everything `cfg` points at must outlive the engine.
  DynamicEngine(const PerfTable& table, sched::Scheduler& scheduler,
                const DynamicConfig& cfg);
  ~DynamicEngine();
  DynamicEngine(const DynamicEngine&) = delete;
  DynamicEngine& operator=(const DynamicEngine&) = delete;

  /// Continues the arrival stream with `chunk` (time-sorted, no earlier
  /// than t = 0 or than the arrivals fed before) and runs every event
  /// it can decide. The chunk is not kept: every arrival in it before
  /// the horizon has been consumed when feed returns.
  void feed(std::span<const Arrival> chunk);

  /// Ends the arrival stream, runs to the horizon and returns the
  /// outcome. Call once; the engine takes no arrivals afterwards.
  DynamicOutcome finish();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Arrivals per chunk when a Poisson stream is drawn into engines.
inline constexpr std::size_t kArrivalChunk = 4096;

/// Draws `cfg`'s Poisson stream (PoissonStream over its lambda, horizon,
/// mix and seed) kArrivalChunk arrivals at a time and feeds each chunk
/// to every engine in `engines`, in order: the engines see one stream,
/// and only one chunk of it is ever held.
void feed_poisson(const DynamicConfig& cfg, std::size_t num_apps,
                  std::span<DynamicEngine* const> engines);

/// One run over cfg.arrival_source's list, or over the Poisson stream
/// drawn lazily when it is null.
DynamicOutcome run_dynamic(const PerfTable& table,
                           sched::Scheduler& scheduler,
                           const DynamicConfig& cfg);

/// Generates the Poisson/mix arrival stream `run_dynamic` would use
/// when cfg.arrival_source is null — exposed so callers can reproduce
/// one stream exactly (e.g. the sharded engine's routed root stream).
/// Thin wrapper over PoissonArrivalSource.
std::vector<Arrival> generate_arrivals(const DynamicConfig& cfg,
                                       std::size_t num_apps);

/// Same simulation over an explicit arrival list (must be sorted by
/// time); cfg.lambda_per_min / mix / seed are ignored for arrivals.
DynamicOutcome run_dynamic(const PerfTable& table,
                           sched::Scheduler& scheduler,
                           const DynamicConfig& cfg,
                           std::span<const Arrival> arrivals);

}  // namespace tracon::sim
