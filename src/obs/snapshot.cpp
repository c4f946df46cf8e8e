#include "obs/snapshot.hpp"

#include <istream>
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

double number_field(const JsonValue& obj, const std::string& key,
                    const char* what) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    throw std::invalid_argument(std::string("metrics series ") + what +
                                " lacks numeric \"" + key + "\"");
  }
  return v->as_number();
}

void read_number_map(const JsonValue& record, const std::string& key,
                     std::map<std::string, double>* out) {
  const JsonValue* section = record.find(key);
  if (section == nullptr || !section->is_object()) {
    throw std::invalid_argument("metrics series record lacks \"" + key +
                                "\" object");
  }
  for (const auto& [name, value] : section->as_object()) {
    if (!value->is_number()) {
      throw std::invalid_argument("metrics series " + key + " entry \"" +
                                  name + "\" is not a number");
    }
    (*out)[name] = value->as_number();
  }
}

}  // namespace

MetricsSeries parse_metrics_series(std::istream& in) {
  MetricsSeries series;
  std::string line;
  bool have_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue obj = parse_json(line);
    if (!have_header) {
      series.version = require_schema(obj, kMetricsSeriesSchema);
      series.interval_s = number_field(obj, "interval_s", "header");
      have_header = true;
      continue;
    }
    SeriesWindow window;
    window.index = count_field(obj, "window", "metrics series record");
    window.t_start = number_field(obj, "t_start", "record");
    window.t_end = number_field(obj, "t_end", "record");
    read_number_map(obj, "counters", &window.counters);
    read_number_map(obj, "gauges", &window.gauges);
    const JsonValue* accuracy = obj.find("accuracy");
    if (accuracy == nullptr || !accuracy->is_object()) {
      throw std::invalid_argument(
          "metrics series record lacks \"accuracy\" object");
    }
    for (const auto& [name, value] : accuracy->as_object()) {
      SeriesWindow::Accuracy stats;
      stats.count = number_field(*value, "count", "accuracy entry");
      stats.total = number_field(*value, "total", "accuracy entry");
      stats.mean_abs = number_field(*value, "mean_abs", "accuracy entry");
      stats.p50 = number_field(*value, "p50", "accuracy entry");
      stats.p90 = number_field(*value, "p90", "accuracy entry");
      window.accuracy[name] = stats;
    }
    series.windows.push_back(std::move(window));
  }
  if (!have_header) {
    throw std::invalid_argument("metrics series document has no header line");
  }
  return series;
}

MetricsSeries parse_metrics_series(const std::string& text) {
  std::istringstream in(text);
  return parse_metrics_series(in);
}

void write_metrics_series(std::ostream& os, const MetricsSeries& series) {
  os << JsonLineWriter()
            .field("schema", kMetricsSeriesSchema)
            .field("version", series.version)
            .field("interval_s", series.interval_s)
            .str()
     << "\n";
  for (const SeriesWindow& w : series.windows) {
    JsonLineWriter counters;
    for (const auto& [name, value] : w.counters)
      counters.field(name, static_cast<std::uint64_t>(value));
    JsonLineWriter gauges;
    for (const auto& [name, value] : w.gauges) gauges.field(name, value);
    JsonLineWriter accuracy;
    for (const auto& [name, stats] : w.accuracy) {
      JsonLineWriter entry;
      entry.field("count", static_cast<std::uint64_t>(stats.count));
      entry.field("total", static_cast<std::uint64_t>(stats.total));
      entry.field("mean_abs", stats.mean_abs);
      entry.field("p50", stats.p50);
      entry.field("p90", stats.p90);
      accuracy.raw_field(name, entry.str());
    }
    os << JsonLineWriter()
              .field("window", w.index)
              .field("t_start", w.t_start)
              .field("t_end", w.t_end)
              .raw_field("counters", counters.str())
              .raw_field("gauges", gauges.str())
              .raw_field("accuracy", accuracy.str())
              .str()
       << "\n";
  }
}

std::string metrics_series_str(const MetricsSeries& series) {
  std::ostringstream os;
  write_metrics_series(os, series);
  return os.str();
}

}  // namespace tracon::obs
