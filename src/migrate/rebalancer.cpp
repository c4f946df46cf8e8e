#include "migrate/rebalancer.hpp"

#include <algorithm>
#include <utility>

#include "sched/decision_probe.hpp"
#include "util/error.hpp"

namespace tracon::migrate {

Rebalancer::Rebalancer(const sched::Predictor& predictor,
                       const RebalanceConfig& cfg)
    : predictor_(predictor), cfg_(cfg), cost_(cfg.cost) {
  TRACON_REQUIRE(cfg_.interval_s > 0.0,
                 "rebalance interval must be positive");
  TRACON_REQUIRE(cfg_.max_moves_per_round >= 1,
                 "rebalancer needs a positive per-round move budget");
  TRACON_REQUIRE(cfg_.min_benefit_s >= 0.0,
                 "rebalance hysteresis must be non-negative");
  TRACON_REQUIRE(cfg_.slowdown_threshold >= 1.0,
                 "slowdown threshold below 1 would flag healthy cells");
  TRACON_REQUIRE(cfg_.signal_window >= 1, "signal window must hold samples");
}

void Rebalancer::observe_completion(
    std::size_t app, const std::optional<std::size_t>& neighbour,
    double runtime_s, double solo_runtime_s) {
  if (solo_runtime_s <= 0.0) return;
  auto [it, inserted] = cells_.try_emplace(PairKey{app, neighbour},
                                           cfg_.signal_window);
  // |relative_error(runtime, solo)| == slowdown - 1 whenever the task
  // ran slower than solo, which is the direction the flagging cares
  // about.
  it->second.record(runtime_s, solo_runtime_s);
  ++observed_;
}

double Rebalancer::cell_slowdown(
    std::size_t app, const std::optional<std::size_t>& neighbour) const {
  auto it = cells_.find(PairKey{app, neighbour});
  if (it == cells_.end() || it->second.size() == 0) return 1.0;
  return 1.0 + it->second.mean_abs_error();
}

std::vector<MigrationPlan> Rebalancer::plan(
    double now, const std::vector<RunningTaskView>& running,
    const sched::ClusterCounts& counts) const {
  (void)now;  // plans depend on state, not on the clock
  std::vector<MigrationPlan> plans;
  if (running.empty()) return plans;

  // --- Candidate cells, from the slowdown rings only. The map's key
  // order makes every later walk deterministic.
  std::map<PairKey, double> flagged;  // cell -> badness (mean slowdown)
  for (const auto& [key, ring] : cells_) {
    if (ring.size() < cfg_.min_cell_samples) continue;
    double slowdown = 1.0 + ring.mean_abs_error();
    if (slowdown > cfg_.slowdown_threshold) flagged[key] = slowdown;
  }
  if (flagged.empty()) return plans;

  // --- Rank the running tasks sitting in flagged cells, worst cell
  // first, ties broken by task id so the ordering is reproducible.
  struct Candidate {
    std::size_t view = 0;
    double badness = 0.0;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < running.size(); ++i) {
    const RunningTaskView& v = running[i];
    auto it = flagged.find(PairKey{v.app, v.neighbour});
    if (it == flagged.end()) continue;
    if (v.solo_runtime_s <= 0.0 || v.remaining_solo_s <= 0.0) continue;
    candidates.push_back({i, it->second});
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](const Candidate& a, const Candidate& b) {
              if (a.badness != b.badness) return a.badness > b.badness;
              return running[a.view].task_id < running[b.view].task_id;
            });

  // --- Score destinations against a working copy of the free-slot
  // view so one round's moves see each other's reservations.
  sched::ClusterCounts state = counts;
  std::vector<std::optional<std::size_t>> slots;
  std::vector<double> scores;
  for (const Candidate& c : candidates) {
    if (plans.size() >= cfg_.max_moves_per_round) break;
    const RunningTaskView& v = running[c.view];
    sched::score_candidates(predictor_, v.app, state,
                            sched::Objective::kRuntime, true, &slots, &scores);
    bool have_best = false;
    std::size_t best = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      // Moving into the same co-runner class buys nothing and risks
      // landing back on the source machine.
      if (slots[i] == v.neighbour) continue;
      if (!have_best || scores[i] < scores[best]) {
        best = i;
        have_best = true;
      }
    }
    if (!have_best) continue;

    const double frac = v.remaining_solo_s / v.solo_runtime_s;
    const double stay_s =
        frac * predictor_.predict_runtime(v.app, v.neighbour);
    const double cost_s = cost_.task_cost_s();
    const double move_s = frac * scores[best] + cost_s;
    const double margin = stay_s - move_s;
    if (margin <= cfg_.min_benefit_s) continue;

    MigrationPlan p;
    p.task_id = v.task_id;
    p.app = v.app;
    p.from_machine = v.machine;
    p.from_neighbour = v.neighbour;
    p.dest_neighbour = slots[best];
    p.predicted_stay_s = stay_s;
    p.predicted_move_s = move_s;
    p.downtime_s = cost_.config().downtime_s;
    p.copy_s = cost_.copy_duration_s();
    p.cost_s = cost_s;
    p.margin = margin;
    plans.push_back(p);

    // The source slot frees up; the destination slot is consumed.
    state.depart(v.app, v.neighbour);
    state.place(v.app, slots[best]);
  }
  return plans;
}

}  // namespace tracon::migrate
