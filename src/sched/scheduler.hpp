// Scheduler interface shared by FIFO, MIOS, MIBS, and MIX.
//
// A scheduler examines the waiting queue and the cluster occupancy view
// and returns placements. The cluster simulator applies them, keeps
// unplaced tasks queued, and re-invokes the scheduler on arrivals,
// completions, and requested wake-ups (batch timeouts).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "sched/cluster_counts.hpp"

namespace tracon::sched {

class CandidateIndex;

/// The scheduling objective: minimize total runtime (MIBS_RT) or
/// maximize total I/O throughput (MIBS_IO) — Section 3.2.
enum class Objective { kRuntime, kIops };

std::string objective_name(Objective o);

/// Placement policy shared by the TRACON schedulers.
struct PlacementPolicy {
  /// Only consolidate when the predicted combined progress of the pair
  /// beats leaving the resident application alone. Two data-intensive
  /// tasks can destroy so much of each other's throughput that a
  /// machine does *less* total work with both than with either by
  /// itself; an interference-aware scheduler then prefers to keep the
  /// slot idle and wait for a compatible task. This is what preserves
  /// cluster capacity (and the paper's normalized-throughput gains)
  /// under heavy load. Disable for fixed-batch allocation where every
  /// task must be placed (the static scenario).
  bool beneficial_joins_only = true;
  /// Required predicted net progress gain of a join, in units of solo
  /// task progress (0 = any non-negative join allowed). The default is
  /// calibrated for the paper's hard-disk testbed, whose 3-7x collapses
  /// make holding a slot open worth the wait for a compatible task; on
  /// low-interference devices (RAID/SSD) a slightly NEGATIVE margin —
  /// refuse only clearly capacity-destroying joins — is the better
  /// setting, because reserved slots idle longer than mild joins would
  /// have cost (bench_storage demonstrates both).
  double join_margin = 0.15;
};

/// The beneficial-join rule for a task joining a resident's machine,
/// as two numbers: the join is beneficial at margin m iff
/// `lhs > m * scale`.
struct JoinTest {
  double lhs = 0.0;
  double scale = 1.0;
  bool beneficial(double margin) const { return lhs > margin * scale; }
};

/// The rule's arithmetic over the objective's four predictions: the
/// task alone (`t_solo`) and next to the resident (`t_pair`), the
/// resident alone (`n_solo`) and next to the task (`n_pair`). Runtime:
/// the joiner's progress rate minus the resident's lost rate, scale 1
/// (never beneficial when a paired runtime is not positive). IOPS: the
/// pair's added throughput net of the resident's loss, scaled by the
/// resident's solo IOPS (`t_solo` unused).
JoinTest join_test(Objective objective, double t_solo, double t_pair,
                   double n_solo, double n_pair);

struct QueuedTask {
  std::size_t app = 0;      ///< application class
  double arrival_s = 0.0;   ///< arrival time (for batch timeouts)
  /// Stable task identity (the dynamic scenario uses the arrival
  /// index): joins the decision log's placement records to the task's
  /// eventual completion. Purely observational — no scheduler keys a
  /// decision off it.
  std::uint64_t id = 0;
};

struct ScheduleContext {
  double now_s = 0.0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Online schedulers (FIFO, MIOS) dispatch on every arrival and
  /// completion; batch schedulers (MIBS, MIX) are only invoked at the
  /// manager's periodic scheduling rounds and their own wake-ups.
  virtual bool online() const { return false; }

  /// Returns placements for a subset of queued tasks (each queue
  /// position at most once); implementations must only emit placements
  /// that are feasible when applied in the returned order.
  virtual std::vector<Placement> schedule(std::span<const QueuedTask> queue,
                                          const ClusterCounts& cluster,
                                          const ScheduleContext& ctx) = 0;

  /// Time at which the scheduler wants to be re-invoked even without an
  /// arrival or completion (batch timeout); nullopt = no wake-up needed.
  virtual std::optional<double> next_wakeup(
      std::span<const QueuedTask> queue, const ScheduleContext& ctx) const {
    (void)queue;
    (void)ctx;
    return std::nullopt;
  }

  /// Attaches (or detaches, with nullptr) the telemetry sinks. The
  /// scheduler does not own the bundle; the caller keeps it alive for
  /// the scheduler's lifetime.
  void set_telemetry(obs::Telemetry* telemetry) {
    telemetry_ = telemetry;
    round_metrics_ = {};
  }
  obs::Telemetry* telemetry() const { return telemetry_; }

  /// The candidate index the slot scans go through (not owned). Each
  /// TRACON scheduler builds one over the predictor it scores with and
  /// points this at it. nullptr (FIFO, or a scheduler reset to the
  /// reference path) selects the flat scan, which places identically.
  void set_candidate_index(const CandidateIndex* index) {
    candidate_index_ = index;
  }
  const CandidateIndex* candidate_index() const { return candidate_index_; }

 protected:
  /// Records one scheduling round: counters for rounds/decisions/
  /// placements, the queue-length gauge, a placed-per-round histogram,
  /// and a kSchedDecision trace event carrying the predicted cost of
  /// the chosen placements. No-op when telemetry is detached.
  void note_round(std::size_t queue_len, std::size_t placed,
                  double predicted_cost, double now_s) {
    if (telemetry_ == nullptr) return;
    obs::MetricsRegistry& m = telemetry_->metrics;
    RoundMetrics& r = round_metrics_;
    if (r.rounds == nullptr) {
      r.rounds = &m.counter("sched.rounds");
      r.queue_length = &m.gauge("sched.queue_length");
    }
    r.rounds->inc();
    r.queue_length->set(static_cast<double>(queue_len));
    if (placed > 0) {
      if (r.decisions == nullptr) {
        r.decisions = &m.counter("sched.decisions");
        r.placements = &m.counter("sched.placements");
        r.placed = &m.histogram("sched.batch.placed",
                                {1.0, 2.0, 4.0, 8.0, 16.0, 32.0});
      }
      r.decisions->inc();
      r.placements->inc(placed);
      r.placed->observe(static_cast<double>(placed));
    }
    obs::TraceEvent ev;
    ev.time_s = now_s;
    ev.kind = obs::TraceEventKind::kSchedDecision;
    ev.count = queue_len;
    ev.value = predicted_cost;
    ev.value2 = static_cast<double>(placed);
    telemetry_->tracer.record(ev);
  }

 private:
  /// note_round's metrics in `telemetry_`'s registry, whose nodes are
  /// stable. Each group is resolved where a by-name lookup would first
  /// register it (the first round; the first round that places), so
  /// the metrics and series bytes do not depend on the caching.
  /// set_telemetry clears them.
  struct RoundMetrics {
    obs::Counter* rounds = nullptr;
    obs::Gauge* queue_length = nullptr;
    obs::Counter* decisions = nullptr;
    obs::Counter* placements = nullptr;
    obs::Histogram* placed = nullptr;
  };

  obs::Telemetry* telemetry_ = nullptr;
  RoundMetrics round_metrics_;
  const CandidateIndex* candidate_index_ = nullptr;
};

}  // namespace tracon::sched
