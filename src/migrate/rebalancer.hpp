// Live rebalancing (ROADMAP "Live rebalancing via task/VM migration"):
// TRACON's schedulers place a task once and never revisit it, so a
// placement that turns bad after a workload-mix shift stays bad for the
// task's whole lifetime. The Rebalancer closes that loop. Every
// `interval_s` of virtual time the dynamic event loop hands it a
// snapshot of the running tasks and the live cluster view; it selects
// migration candidates from its own live signal only: a per-pair
// obs::WindowedAccuracy ring over recently realized slowdowns, fed by
// the completion path, flags the degrading (app, co-runner) cells
// whose rolling mean slowdown exceeds a threshold. It reads no sink,
// so recording a decision log never changes the run. It moves a
// running task only when the predicted remaining time at the best
// alternative slot plus the full migration cost
// (virt::MigrationCostModel) beats staying put by at least
// `min_benefit_s`. Destination slots are scored through
// sched::score_candidates, the same scoring path the flat placement
// scan and the decision-log probe use.
//
// Determinism: plan() is a pure function of the rebalancer's observed
// completions, the inputs, and the config — maps iterate in key order,
// ties break on task id, and nothing reads a clock — so per-shard
// rebalancing (each shard owns one Rebalancer over its own machines)
// keeps `--threads N` byte-identical to `--threads 1`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "obs/accuracy.hpp"
#include "sched/cluster_counts.hpp"
#include "sched/predictor.hpp"
#include "virt/migration.hpp"

namespace tracon::migrate {

/// The event loop's snapshot of one running task, advanced to the
/// rebalance round's timestamp.
struct RunningTaskView {
  std::uint64_t task_id = 0;
  std::size_t app = 0;
  std::size_t machine = 0;
  std::optional<std::size_t> neighbour;  ///< current co-runner class
  double remaining_solo_s = 0.0;         ///< work left, solo seconds
  double solo_runtime_s = 0.0;           ///< full solo runtime of the app
  double started_s = 0.0;
};

/// One migration the rebalancer wants applied: move `task_id` off
/// `from_machine` to any machine of slot class `dest_neighbour`. The
/// simulator resolves the class to a concrete machine and records the
/// whole struct as a decision-log migration record.
struct MigrationPlan {
  std::uint64_t task_id = 0;
  std::size_t app = 0;
  std::size_t from_machine = 0;
  std::optional<std::size_t> from_neighbour;  ///< co-runner left behind
  std::optional<std::size_t> dest_neighbour;  ///< destination slot class
  double predicted_stay_s = 0.0;  ///< predicted remaining time in place
  double predicted_move_s = 0.0;  ///< at destination, cost included
  double downtime_s = 0.0;
  double copy_s = 0.0;
  double cost_s = 0.0;
  double margin = 0.0;  ///< predicted_stay_s - predicted_move_s
};

struct RebalanceConfig {
  /// Virtual-time period between rebalance rounds (the CLI's
  /// `--rebalance-interval`).
  double interval_s = 60.0;
  /// Cap on migrations per round; keeps copy windows from piling up.
  std::size_t max_moves_per_round = 2;
  /// A move must beat staying put by at least this many predicted
  /// seconds — hysteresis against migration churn.
  double min_benefit_s = 1.0;
  /// A pair cell is "degrading" once its rolling mean realized
  /// slowdown exceeds this factor (1.15 = 15% over solo).
  double slowdown_threshold = 1.15;
  /// Minimum completions in a cell's window before it can be flagged.
  std::size_t min_cell_samples = 4;
  /// Capacity of each per-pair slowdown ring.
  std::size_t signal_window = 32;
  virt::MigrationCostConfig cost;
};

class Rebalancer {
 public:
  /// `predictor` is borrowed and must outlive the rebalancer; it is
  /// only read, via the same calls the flat placement scan issues.
  Rebalancer(const sched::Predictor& predictor, const RebalanceConfig& cfg);

  const RebalanceConfig& config() const { return cfg_; }
  const virt::MigrationCostModel& cost_model() const { return cost_; }

  /// Completion-path feed: realized slowdown of one finished task,
  /// keyed by its placement-time (app, co-runner) cell.
  void observe_completion(std::size_t app,
                          const std::optional<std::size_t>& neighbour,
                          double runtime_s, double solo_runtime_s);

  /// Rolling mean realized slowdown of a pair cell; 1.0 when the cell
  /// has no samples yet (no evidence of degradation).
  double cell_slowdown(std::size_t app,
                       const std::optional<std::size_t>& neighbour) const;

  /// Plans this round's migrations. `running` must be in a
  /// deterministic order (the simulator walks machines ascending,
  /// slot 0 before slot 1); `counts` is the live free-slot view.
  /// Pure: does not mutate the rebalancer.
  std::vector<MigrationPlan> plan(
      double now, const std::vector<RunningTaskView>& running,
      const sched::ClusterCounts& counts) const;

  std::uint64_t completions_observed() const { return observed_; }

 private:
  using PairKey = std::pair<std::size_t, std::optional<std::size_t>>;

  const sched::Predictor& predictor_;
  RebalanceConfig cfg_;
  virt::MigrationCostModel cost_;
  /// Per-(app, co-runner) rings of recently realized slowdowns. The
  /// ring records |relative_error(runtime, solo)|, which for the
  /// slowed-down case equals slowdown - 1.
  std::map<PairKey, obs::WindowedAccuracy> cells_;
  std::uint64_t observed_ = 0;
};

}  // namespace tracon::migrate
