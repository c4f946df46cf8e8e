#include "sched/mios.hpp"

#include <limits>
#include <vector>

#include "sched/decision_probe.hpp"
#include "util/error.hpp"

namespace tracon::sched {

std::string objective_name(Objective o) {
  return o == Objective::kRuntime ? "RT" : "IO";
}

bool join_beneficial(std::size_t task, std::size_t neighbour,
                     const Predictor& predictor, Objective objective,
                     double margin) {
  if (objective == Objective::kRuntime) {
    // Progress rates relative to solo execution, per the model.
    double t_solo = predictor.predict_runtime(task, std::nullopt);
    double t_pair = predictor.predict_runtime(task, neighbour);
    double n_solo = predictor.predict_runtime(neighbour, std::nullopt);
    double n_pair = predictor.predict_runtime(neighbour, task);
    if (t_pair <= 0.0 || n_pair <= 0.0) return false;
    double gained = t_solo / t_pair;          // the joiner's progress rate
    double lost = 1.0 - n_solo / n_pair;      // the resident's lost rate
    return gained - lost > margin;
  }
  // IOPS objective: the pair must deliver more aggregate throughput
  // than the resident alone.
  double added = predictor.predict_iops(task, neighbour);
  double resident_before = predictor.predict_iops(neighbour, std::nullopt);
  double resident_after = predictor.predict_iops(neighbour, task);
  return added - (resident_before - resident_after) >
         margin * std::max(resident_before, 1e-9);
}

std::optional<std::optional<std::size_t>> mios_best_slot(
    std::size_t task, const ClusterCounts& cluster,
    const Predictor& predictor, Objective objective,
    const PlacementPolicy& policy, bool exclude_empty,
    const CandidateIndex* index) {
  // Indexed fast path: per-cluster shortlist lookup, bit-identical to
  // the flat scan below (see candidate_index.hpp). The paranoid tier
  // re-derives every indexed answer through the reference scan.
  if (index != nullptr && cluster.clustered()) {
    TRACON_REQUIRE(
        &index->predictor() == &predictor && index->objective() == objective,
        "the candidate index scores a different predictor or objective");
    auto slot = index->best_slot(task, cluster, policy, exclude_empty);
    if constexpr (kParanoidChecksEnabled) {
      TRACON_DCHECK(slot == mios_best_slot(task, cluster, predictor,
                                           objective, policy, exclude_empty,
                                           nullptr),
                    "the candidate index disagrees with the flat scan");
    }
    return slot;
  }
  // Candidate slot classes in canonical scan order (empty machine
  // first, then occupied classes ascending), scored through the batched
  // prediction API: one virtual call covers every candidate, and one
  // more covers the beneficial-join inputs — instead of up to five
  // scalar predictor calls per candidate. The arithmetic below uses the
  // exact formulas and comparison order of the scalar join_beneficial /
  // argmin path, so placements are bit-identical to the scalar
  // implementation (tested in test_schedulers/test_predictor).
  std::vector<std::optional<std::size_t>> candidates;
  candidates.reserve(cluster.num_apps() + 1);
  cluster.append_candidates(/*include_empty=*/!exclude_empty, &candidates);

  std::optional<std::optional<std::size_t>> best;
  if (!candidates.empty()) {
    std::vector<PredictQuery> queries(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
      queries[i] = {task, candidates[i]};
    std::vector<double> pred(candidates.size());
    if (objective == Objective::kRuntime) {
      predictor.predict_runtime_batch(queries, pred);
    } else {
      predictor.predict_iops_batch(queries, pred);
    }

    // Join-policy inputs for the occupied-class candidates, batched.
    // Runtime layout: [task solo, a0 solo, a0 next-to-task, a1 solo,
    // a1 next-to-task, ...]; IOPS layout drops the leading task-solo
    // entry (the IOPS rule never consults it).
    const std::size_t first_app =
        !candidates.front().has_value() ? 1 : 0;
    const std::size_t num_app_cands = candidates.size() - first_app;
    std::vector<double> join;
    if (policy.beneficial_joins_only && num_app_cands > 0) {
      std::vector<PredictQuery> jq;
      const bool runtime_obj = objective == Objective::kRuntime;
      jq.reserve(2 * num_app_cands + (runtime_obj ? 1 : 0));
      if (runtime_obj) jq.push_back({task, std::nullopt});
      for (std::size_t i = first_app; i < candidates.size(); ++i) {
        std::size_t a = *candidates[i];
        jq.push_back({a, std::nullopt});
        jq.push_back({a, task});
      }
      join.resize(jq.size());
      if (runtime_obj) {
        predictor.predict_runtime_batch(jq, join);
      } else {
        predictor.predict_iops_batch(jq, join);
      }
    }

    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::optional<std::size_t>& cand = candidates[i];
      if (cand.has_value() && policy.beneficial_joins_only) {
        const std::size_t j = i - first_app;
        bool beneficial = false;
        if (objective == Objective::kRuntime) {
          double t_solo = join[0];
          double t_pair = pred[i];
          double n_solo = join[1 + 2 * j];
          double n_pair = join[2 + 2 * j];
          if (t_pair > 0.0 && n_pair > 0.0) {
            double gained = t_solo / t_pair;      // the joiner's progress rate
            double lost = 1.0 - n_solo / n_pair;  // the resident's lost rate
            beneficial = gained - lost > policy.join_margin;
          }
        } else {
          double added = pred[i];
          double resident_before = join[2 * j];
          double resident_after = join[2 * j + 1];
          beneficial = added - (resident_before - resident_after) >
                       policy.join_margin * std::max(resident_before, 1e-9);
        }
        if (!beneficial) continue;
      }
      double s = objective == Objective::kRuntime ? pred[i] : -pred[i];
      if (s < best_score) {
        best = cand;
        best_score = s;
      }
    }
  }
  if (!best.has_value() && exclude_empty && cluster.has_slot(std::nullopt)) {
    // Last resort: no occupied machine offers a beneficial join.
    best = std::optional<std::size_t>{};
  }
  return best;
}

std::vector<Placement> MiosScheduler::schedule(
    std::span<const QueuedTask> queue, const ClusterCounts& cluster,
    const ScheduleContext& ctx) {
  ClusterCounts state = cluster;
  std::vector<Placement> out;
  double predicted_cost = 0.0;
  for (std::size_t pos = 0; pos < queue.size(); ++pos) {
    if (!state.any_free()) break;
    auto slot = mios_best_slot(queue[pos].app, state, predictor_, objective_,
                               policy_, /*exclude_empty=*/false,
                               candidate_index());
    if (!slot.has_value()) continue;  // no acceptable slot; task waits
    TRACON_DCHECK(state.has_slot(*slot),
                  "MIOS selected an infeasible placement slot");
    predicted_cost +=
        objective_ == Objective::kRuntime
            ? predictor_.predict_runtime(queue[pos].app, *slot)
            : predictor_.predict_iops(queue[pos].app, *slot);
    state.place(queue[pos].app, *slot);
    out.push_back({pos, *slot});
  }
  record_decisions(telemetry(), name(), ctx.now_s, queue, cluster, out,
                   predictor_, objective_);
  note_round(queue.size(), out.size(), predicted_cost, ctx.now_s);
  return out;
}

}  // namespace tracon::sched
