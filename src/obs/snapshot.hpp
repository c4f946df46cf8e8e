// Windowed time-series telemetry: SnapshotSeries samples a
// MetricsRegistry on the simulator's virtual clock into one
// SeriesWindow per window, written as a schema-versioned
// `tracon.metrics_series` JSONL record each.
//
// Each record carries, for the window (t_start, t_end]:
//   - per-window counter *deltas* (current value minus the value at the
//     previous snapshot; monotone counters make every delta >= 0),
//   - gauge values as of t_end,
//   - rolling accuracy statistics (count/total/mean_abs/p50/p90) from
//     every registered WindowedAccuracy.
//
// Determinism contract (DESIGN.md §6e): sample() is only ever called
// with virtual-clock timestamps, metric maps iterate in name order, and
// doubles are formatted by JsonlBuffer's shortest round-trip writer,
// so two same-seed runs write byte-identical series files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/accuracy.hpp"
#include "obs/metrics.hpp"

namespace tracon::obs {

inline constexpr std::string_view kMetricsSeriesSchema =
    "tracon.metrics_series";

/// One series record: what SnapshotSeries samples, what the sharded
/// engine merges, and what `tracon timeline`, the report diff and
/// telemetry_check parse back.
struct SeriesWindow {
  std::uint64_t index = 0;
  double t_start = 0.0;
  double t_end = 0.0;
  std::map<std::string, double> counters;  ///< per-window deltas
  std::map<std::string, double> gauges;    ///< values as of t_end
  struct Accuracy {
    double count = 0.0;     ///< samples in the window at t_end
    double total = 0.0;     ///< lifetime samples at t_end
    double mean_abs = 0.0;  ///< windowed mean |relative error|
    double p50 = 0.0;
    double p90 = 0.0;
  };
  std::map<std::string, Accuracy> accuracy;
};

struct MetricsSeries {
  int version = 0;
  double interval_s = 0.0;
  std::vector<SeriesWindow> windows;
};

class SnapshotSeries {
 public:
  /// Samples `registry` (not owned; must outlive the series) every
  /// `interval_s` sim-seconds — the driver (the dynamic scenario's
  /// event loop) owns the cadence and calls sample().
  SnapshotSeries(const MetricsRegistry& registry, double interval_s);

  double interval_s() const { return series_.interval_s; }

  /// Registers a rolling accuracy window (not owned) whose statistics
  /// are embedded in every subsequent record under `name` — a dotted
  /// metric path such as "model.nlm.runtime".
  void track_accuracy(const std::string& name, const WindowedAccuracy* window);

  /// Closes the window ending at `now_s` (strictly after the previous
  /// sample) and appends its record. Timestamps must come from the
  /// virtual clock, never the wall clock.
  void sample(double now_s);

  /// The windows sampled so far, by value.
  const MetricsSeries& series() const { return series_; }

  /// Header line plus one record per window (metrics_series_str).
  std::string str() const;

 private:
  const MetricsRegistry* registry_;
  std::map<std::string, const WindowedAccuracy*> accuracy_;
  std::map<std::string, std::uint64_t> last_counters_;
  MetricsSeries series_;
};

/// Parses a series document as written by write_metrics_series, and
/// enforces its structure: consecutive window indices from 0, windows
/// that tile the clock from 0 and span at most one (positive)
/// interval_s each, non-negative counter deltas, and integer accuracy
/// counts no larger than their lifetime totals. Throws
/// std::invalid_argument, naming the line, on a foreign schema or a
/// record that breaks a rule.
MetricsSeries parse_metrics_series(std::string_view text);

/// Writes a series — sampled, merged across shards, or parsed — as
/// JSONL: the header, then one record per window with maps in name
/// order, counters and accuracy counts as integers and everything else
/// through the shortest round-trip double writer. Byte-comparable
/// across thread counts for the sharded engine's merged series.
void write_metrics_series(std::ostream& os, const MetricsSeries& series);
std::string metrics_series_str(const MetricsSeries& series);

}  // namespace tracon::obs
