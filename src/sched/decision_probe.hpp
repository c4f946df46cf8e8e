// Decision-log probe shared by MIOS/MIBS/MIX: replays a round's
// committed placements against the pre-round cluster view and records,
// for every placement, the full candidate set the scheduler scanned —
// ensemble score and per-family prediction per candidate, the active
// confidence weights, the chosen slot, and its winning margin.
//
// The probe only issues const Predictor calls (the predictions the
// flat scan makes, under stable in-round weights), so
// recording perturbs nothing: with the log disabled it returns before
// touching the predictor, and with it enabled the replayed predictions
// are bit-identical to the values the scheduler acted on.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "sched/predictor.hpp"
#include "sched/scheduler.hpp"

namespace tracon::sched {

/// Enumerates `cluster`'s free-slot classes in the schedulers'
/// canonical append_candidates order and predicts `app`'s value on
/// each under `objective`. This is the one scoring path shared by the
/// flat placement scan, the decision-log probe and the
/// migrate::Rebalancer's re-placement scan, so recorded candidate sets
/// and migration destinations are scored bit-identically to the
/// schedulers' own decisions.
void score_candidates(const Predictor& predictor, std::size_t app,
                      const ClusterCounts& cluster, Objective objective,
                      bool include_empty,
                      std::vector<std::optional<std::size_t>>* slots,
                      std::vector<double>* scores);

/// Distance of the chosen score from the best alternative, signed so
/// that a policy override (e.g. the beneficial-join filter rejecting
/// the raw argmin) shows up as a negative margin. Zero with a single
/// candidate.
double winning_margin(std::span<const double> scores, std::size_t chosen,
                      Objective objective);

/// Records one decision event per placement of `scheduler`'s round into
/// its telemetry's decision log, under its name. `cluster` must be the
/// pre-round view the scheduler was invoked with; placements are
/// re-applied in order so each event's candidate set matches what the
/// scheduler saw when it committed that placement. No-op, with the name
/// never built, when telemetry is detached, the decision log is
/// disabled, or no placement was made.
void record_decisions(const Scheduler& scheduler, double now_s,
                      std::span<const QueuedTask> queue,
                      const ClusterCounts& cluster,
                      std::span<const Placement> placements,
                      const Predictor& predictor, Objective objective);

}  // namespace tracon::sched
