#include "obs/snapshot.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "util/error.hpp"

namespace tracon::obs {

SnapshotSeries::SnapshotSeries(const MetricsRegistry& registry,
                               double interval_s)
    : registry_(&registry) {
  TRACON_REQUIRE(interval_s > 0.0, "snapshot interval must be positive");
  series_.version = kJsonlSchemaVersion;
  series_.interval_s = interval_s;
}

void SnapshotSeries::track_accuracy(const std::string& name,
                                    const WindowedAccuracy* window) {
  TRACON_REQUIRE(valid_metric_name(name),
                 "accuracy series name must be a dotted snake_case path");
  TRACON_REQUIRE(window != nullptr, "accuracy window must be non-null");
  accuracy_[name] = window;
}

void SnapshotSeries::sample(double now_s) {
  TRACON_CHECK_FINITE(now_s, "snapshot timestamp");
  const double last_s =
      series_.windows.empty() ? 0.0 : series_.windows.back().t_end;
  TRACON_REQUIRE(now_s > last_s || series_.windows.empty(),
                 "snapshot timestamps must be strictly increasing");

  SeriesWindow w;
  w.index = series_.windows.size();
  w.t_start = last_s;
  w.t_end = now_s;
  for (const auto& [name, counter] : registry_->counters()) {
    std::uint64_t& last = last_counters_[name];
    TRACON_ASSERT(counter.value() >= last, "counter moved backwards");
    w.counters[name] = static_cast<double>(counter.value() - last);
    last = counter.value();
  }
  for (const auto& [name, gauge] : registry_->gauges())
    w.gauges[name] = gauge.value();
  for (const auto& [name, window] : accuracy_) {
    SeriesWindow::Accuracy& a = w.accuracy[name];
    a.count = static_cast<double>(window->size());
    a.total = static_cast<double>(window->total());
    a.mean_abs = window->mean_abs_error();
    a.p50 = window->quantile(0.5);
    a.p90 = window->quantile(0.9);
  }
  series_.windows.push_back(std::move(w));
}

std::string SnapshotSeries::str() const { return metrics_series_str(series_); }

namespace {

/// The structural rules a series record must keep, given the windows
/// read before it: indices run from 0 without a gap, windows tile the
/// clock from 0 (each starts where the previous one ended, and ends
/// after it starts), none spans more than one interval (up to rounding;
/// the last may be shorter, at the horizon), counter deltas are
/// non-negative integers and no accuracy window holds more samples than
/// its lifetime total.
void check_window(const MetricsSeries& series, const SeriesWindow& w) {
  auto fail = [&](const std::string& what) {
    throw std::invalid_argument("window " + std::to_string(w.index) + " " +
                                what);
  };
  if (w.index != series.windows.size()) {
    fail("is out of order: window indices run consecutively from 0");
  }
  const double prev_end =
      series.windows.empty() ? 0.0 : series.windows.back().t_end;
  if (w.t_start != prev_end) {
    fail("does not tile: t_start " + json_number(w.t_start) +
         " is not the previous window's t_end " + json_number(prev_end));
  }
  if (!(w.t_start < w.t_end)) fail("does not end after it starts");
  if (w.t_end - w.t_start > series.interval_s * (1.0 + 1e-9)) {
    fail("spans more than interval_s");
  }
  for (const auto& [name, delta] : w.counters) {
    if (delta < 0.0) fail("counter \"" + name + "\" has a negative delta");
    // A delta counts events, as the writer's integers do.
    if (!is_count(delta)) {
      fail("counter \"" + name + "\" is not a non-negative integer: " +
           json_number(delta));
    }
  }
  for (const auto& [name, stats] : w.accuracy) {
    if (stats.count > stats.total) {
      fail("accuracy \"" + name + "\" count exceeds its lifetime total");
    }
  }
}

}  // namespace

MetricsSeries parse_metrics_series(std::string_view text) {
  MetricsSeries series;
  series.version = read_jsonl(
      text, kMetricsSeriesSchema, "metrics series",
      [&](const JsonValue& header) {
        series.interval_s = double_field(header, "interval_s", "header");
        if (!(series.interval_s > 0.0)) {
          throw std::invalid_argument("header \"interval_s\" is not positive");
        }
      },
      [&](const JsonValue& record) {
        SeriesWindow window;
        window.index = count_field(record, "window", "record");
        window.t_start = double_field(record, "t_start", "record");
        window.t_end = double_field(record, "t_end", "record");
        window.counters = number_map_field(record, "counters", "record");
        window.gauges = number_map_field(record, "gauges", "record");
        const JsonValue* accuracy = record.find("accuracy");
        if (accuracy == nullptr || !accuracy->is_object()) {
          throw std::invalid_argument("record lacks object \"accuracy\"");
        }
        for (const auto& [name, value] : accuracy->as_object()) {
          SeriesWindow::Accuracy& stats = window.accuracy[name];
          stats.count = static_cast<double>(
              count_field(*value, "count", "accuracy entry"));
          stats.total = static_cast<double>(
              count_field(*value, "total", "accuracy entry"));
          stats.mean_abs = double_field(*value, "mean_abs", "accuracy entry");
          stats.p50 = double_field(*value, "p50", "accuracy entry");
          stats.p90 = double_field(*value, "p90", "accuracy entry");
        }
        check_window(series, window);
        series.windows.push_back(std::move(window));
      });
  return series;
}

void write_metrics_series(std::ostream& os, const MetricsSeries& series) {
  JsonlBuffer out(os);
  out.raw("{\"schema\": ")
      .string(kMetricsSeriesSchema)
      .raw(", \"version\": ")
      .integer(static_cast<std::uint64_t>(series.version))
      .raw(", \"interval_s\": ")
      .number(series.interval_s)
      .raw("}")
      .end_line();
  for (const SeriesWindow& w : series.windows) {
    out.raw("{\"window\": ")
        .integer(w.index)
        .raw(", \"t_start\": ")
        .number(w.t_start)
        .raw(", \"t_end\": ")
        .number(w.t_end)
        .raw(", \"counters\": {");
    const char* sep = "";
    for (const auto& [name, delta] : w.counters) {
      out.raw(sep).string(name).raw(": ").integer(
          static_cast<std::uint64_t>(delta));
      sep = ", ";
    }
    out.raw("}, \"gauges\": {");
    sep = "";
    for (const auto& [name, value] : w.gauges) {
      out.raw(sep).string(name).raw(": ").number(value);
      sep = ", ";
    }
    out.raw("}, \"accuracy\": {");
    sep = "";
    for (const auto& [name, a] : w.accuracy) {
      out.raw(sep)
          .string(name)
          .raw(": {\"count\": ")
          .integer(static_cast<std::uint64_t>(a.count))
          .raw(", \"total\": ")
          .integer(static_cast<std::uint64_t>(a.total))
          .raw(", \"mean_abs\": ")
          .number(a.mean_abs)
          .raw(", \"p50\": ")
          .number(a.p50)
          .raw(", \"p90\": ")
          .number(a.p90)
          .raw("}");
      sep = ", ";
    }
    out.raw("}}").end_line();
  }
  out.flush();
}

std::string metrics_series_str(const MetricsSeries& series) {
  std::ostringstream os;
  write_metrics_series(os, series);
  return os.str();
}

}  // namespace tracon::obs
