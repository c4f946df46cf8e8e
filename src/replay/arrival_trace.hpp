// Canonical JSONL arrival-trace format: the record half of the
// record/replay loop.
//
// A trace file is one schema-versioned header line followed by one
// record per arrival:
//
//   {"schema": "tracon.arrival_trace", "version": 1, "seed": 7, ...}
//   {"time_s": 0.31, "app": 4, "demand_s": 412.8}
//   ...
//
// The header carries everything needed to reconstruct the run that
// produced the stream (seed, host, model, machine count, queue bound,
// workload mix, horizon), so `tracon replay` can rebuild an identical
// simulation and vary only the scheduler. `demand_s` is the task's
// solo service demand — informational for offline analysis; replay
// derives demand from the app class via the perf table and
// validate_demands() cross-checks the two.
//
// Writing is deterministic (insertion-ordered fields, shortest
// round-trip doubles): loading a trace and re-writing it reproduces the
// file byte-for-byte, and a parsed time is bit-identical to the one the
// recorder observed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/jsonl.hpp"
#include "sim/arrival_source.hpp"

namespace tracon::replay {

inline constexpr std::string_view kArrivalTraceSchema =
    "tracon.arrival_trace";

/// Trace provenance: the configuration of the run that recorded it.
struct ArrivalTraceHeader {
  int version = 1;  ///< obs::kJsonlSchemaVersion at write time
  std::uint64_t seed = 0;
  std::string host;   ///< host testbed name ("paper", "ssd", ...)
  std::string model;  ///< model kind trained when recording ("nlm", ...)
  std::string mix;    ///< workload mix name ("medium", ...)
  double lambda_per_min = 0.0;
  double duration_s = 0.0;
  std::size_t machines = 0;
  std::size_t queue_capacity = 0;
  std::size_t num_apps = 0;
};

/// One recorded arrival; `demand_s` is the solo service demand of the
/// app class at record time.
struct TraceArrival {
  double time_s = 0.0;
  std::size_t app = 0;
  double demand_s = 0.0;
};

struct ArrivalTrace {
  ArrivalTraceHeader header;
  std::vector<TraceArrival> arrivals;
};

/// Streams a trace out incrementally: the header line is written on
/// construction, then one record per write(). Used by
/// RecordingArrivalSource to capture a live run's arrivals.
class TraceWriter {
 public:
  TraceWriter(std::ostream& os, const ArrivalTraceHeader& header);

  void write(const TraceArrival& arrival);
  std::size_t written() const { return written_; }

 private:
  /// Flushed after every line: each record reaches the stream as it is
  /// written.
  obs::JsonlBuffer out_;
  std::size_t written_ = 0;
};

/// Whole-trace convenience over TraceWriter.
void write_arrival_trace(std::ostream& os, const ArrivalTrace& trace);

/// Parses a trace written by TraceWriter/write_arrival_trace. Throws
/// std::invalid_argument, naming the line, on schema mismatch,
/// malformed lines, missing fields, negative or unsorted times, or
/// out-of-range app indices.
ArrivalTrace load_arrival_trace(std::istream& is);

/// Replays a loaded trace through run_dynamic: yields the recorded
/// arrival stream byte-for-byte, deterministically, under any
/// scheduler. The engine it feeds refuses an app class its perf table
/// lacks.
class TraceArrivalSource final : public sim::ArrivalSource {
 public:
  explicit TraceArrivalSource(ArrivalTrace trace);

  std::size_t fill(std::span<sim::Arrival> out) override;

  const ArrivalTraceHeader& header() const { return trace_.header; }
  const ArrivalTrace& trace() const { return trace_; }

  /// True when every recorded demand_s matches `solo_demands[app]`
  /// within `rel_tol` — i.e. the replaying perf table is consistent
  /// with the one the trace was recorded against.
  bool validate_demands(const std::vector<double>& solo_demands,
                        double rel_tol = 1e-9) const;

 private:
  ArrivalTrace trace_;
  std::size_t next_ = 0;  ///< first recorded arrival not pulled yet
};

/// Tees the arrivals pulled from `inner` into `writer` as they are
/// pulled, stamping each record with its app's solo service demand.
class RecordingArrivalSource final : public sim::ArrivalSource {
 public:
  /// `solo_demands[app]` = solo runtime of app class `app` (seconds),
  /// e.g. PerfTable::solo_runtime for each app.
  RecordingArrivalSource(sim::ArrivalSource& inner, TraceWriter& writer,
                         std::vector<double> solo_demands);

  std::size_t fill(std::span<sim::Arrival> out) override;

 private:
  sim::ArrivalSource& inner_;
  TraceWriter& writer_;
  std::vector<double> solo_demands_;
};

}  // namespace tracon::replay
