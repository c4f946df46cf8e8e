// Telemetry bundle handed through the simulator and schedulers.
//
// Components take a nullable `obs::Telemetry*`; nullptr means telemetry
// is disabled and every recording site reduces to a pointer test. The
// bundle owns the sinks so one flag at the CLI wires everything, and
// each stream has exactly one recorder here:
//   - metrics: aggregated counters/gauges/histograms (JSON/CSV export);
//   - tracer: the per-event timeline (Chrome trace / JSONL export), and
//     through its kTask* events the per-task event log (CSV / JSONL);
//     it takes each shard's recorder as a merge part at the sharded
//     runner's join, and the two logs below at every epoch barrier;
//   - decisions: the placement-provenance log (opt-in via
//     set_enabled; inert otherwise so pre-existing exports keep
//     their exact bytes);
//   - spans: the task-lifecycle span log (opt-in via set_enabled;
//     same inert-when-off contract as decisions).
// The sinks are write-only: nothing in the simulation reads them back,
// so a run with any set of sinks on is the run with none.
#pragma once

#include "obs/decision_log.hpp"
#include "obs/event_tracer.hpp"
#include "obs/metrics.hpp"
#include "obs/span_log.hpp"

namespace tracon::obs {

struct Telemetry {
  MetricsRegistry metrics;
  EventTracer tracer;
  DecisionLog decisions;
  SpanLog spans;
};

}  // namespace tracon::obs
