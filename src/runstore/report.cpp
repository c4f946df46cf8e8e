#include "runstore/report.hpp"

#include <ostream>
#include <set>
#include <stdexcept>

#include "obs/attribution.hpp"
#include "obs/breakdown.hpp"
#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "obs/snapshot.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace tracon::runstore {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Union of the key sets of two maps, sorted.
template <typename Map>
std::set<std::string> key_union(const Map& a, const Map& b) {
  std::set<std::string> keys;
  for (const auto& [k, v] : a) keys.insert(k);
  for (const auto& [k, v] : b) keys.insert(k);
  return keys;
}

ReportSection scalar_section(const std::string& title,
                             const std::map<std::string, double>& a,
                             const std::map<std::string, double>& b) {
  ReportSection section{title, {}};
  for (const std::string& name : key_union(a, b)) {
    auto ia = a.find(name);
    auto ib = b.find(name);
    section.rows.push_back({name, ia != a.end() ? ia->second : 0.0,
                            ib != b.end() ? ib->second : 0.0});
  }
  return section;
}

}  // namespace

MetricsSummary summarize_metrics(const obs::JsonValue& doc) {
  MetricsSummary out;
  if (doc.find("fingerprint") != nullptr) {
    out.fingerprint = obs::string_map_field(doc, "fingerprint", "metrics");
  }
  out.counters = obs::number_map_field(doc, "counters", "metrics");
  out.gauges = obs::number_map_field(doc, "gauges", "metrics");
  const obs::JsonValue* hists = doc.find("histograms");
  if (hists == nullptr || !hists->is_object()) {
    throw std::invalid_argument("metrics document has no histograms object");
  }
  for (const auto& [name, value] : hists->as_object()) {
    const std::string what = "metrics histogram \"" + name + "\"";
    MetricsSummary::HistStats& stats = out.histograms[name];
    stats.count = obs::double_field(*value, "count", what);
    stats.sum = obs::double_field(*value, "sum", what);
    stats.min = obs::double_field(*value, "min", what);
    stats.max = obs::double_field(*value, "max", what);
  }
  return out;
}

RunReport diff_runs(const MetricsSummary& a, const MetricsSummary& b,
                    const std::string& label_a, const std::string& label_b) {
  RunReport report;
  report.label_a = label_a;
  report.label_b = label_b;
  report.fingerprint_a = a.fingerprint;
  report.fingerprint_b = b.fingerprint;

  report.sections.push_back(
      scalar_section("counters", a.counters, b.counters));
  report.sections.push_back(scalar_section("gauges", a.gauges, b.gauges));

  ReportSection latency{"task latency", {}};
  ReportSection accuracy{"model accuracy (mean |rel error|)", {}};
  for (const std::string& name : key_union(a.histograms, b.histograms)) {
    auto ia = a.histograms.find(name);
    auto ib = b.histograms.find(name);
    MetricsSummary::HistStats ha =
        ia != a.histograms.end() ? ia->second : MetricsSummary::HistStats{};
    MetricsSummary::HistStats hb =
        ib != b.histograms.end() ? ib->second : MetricsSummary::HistStats{};
    if (starts_with(name, "sim.task.")) {
      latency.rows.push_back({name + " count", ha.count, hb.count});
      latency.rows.push_back({name + " mean", ha.mean(), hb.mean()});
      latency.rows.push_back({name + " max", ha.max, hb.max});
    } else if (ends_with(name, ".rel_error_abs")) {
      accuracy.rows.push_back({name, ha.mean(), hb.mean()});
    }
  }
  report.sections.push_back(std::move(latency));
  report.sections.push_back(std::move(accuracy));
  return report;
}

namespace {

double window_value(const obs::SeriesWindow& window, const std::string& name) {
  if (auto it = window.counters.find(name); it != window.counters.end())
    return it->second;
  if (auto it = window.gauges.find(name); it != window.gauges.end())
    return it->second;
  return 0.0;
}

}  // namespace

void diff_series(const obs::MetricsSeries& a, const obs::MetricsSeries& b,
                 RunReport* report) {
  TRACON_REQUIRE(report != nullptr, "diff_series needs a report");
  report->series.clear();
  report->series_windows = std::min(a.windows.size(), b.windows.size());
  if (report->series_windows == 0) return;

  std::set<std::string> names;
  for (std::size_t w = 0; w < report->series_windows; ++w) {
    for (const auto& [name, v] : a.windows[w].counters) names.insert(name);
    for (const auto& [name, v] : a.windows[w].gauges) names.insert(name);
    for (const auto& [name, v] : b.windows[w].counters) names.insert(name);
    for (const auto& [name, v] : b.windows[w].gauges) names.insert(name);
  }
  for (const std::string& name : names) {
    SeriesRow row;
    row.name = name;
    double div_sum = 0.0;
    for (std::size_t w = 0; w < report->series_windows; ++w) {
      double va = window_value(a.windows[w], name);
      double vb = window_value(b.windows[w], name);
      double div = vb >= va ? vb - va : va - vb;
      div_sum += div;
      if (div > row.max_div) {
        row.max_div = div;
        row.max_div_t = a.windows[w].t_end;
      }
    }
    row.mean_div = div_sum / static_cast<double>(report->series_windows);
    report->series.push_back(std::move(row));
  }
}

void diff_decisions(const obs::AttributionReport& a,
                    const obs::AttributionReport& b, RunReport* report) {
  TRACON_REQUIRE(report != nullptr, "diff_decisions needs a report");
  ReportSection section{"decisions", {}};
  section.rows.push_back({"decisions", static_cast<double>(a.decisions),
                          static_cast<double>(b.decisions)});
  section.rows.push_back({"joined to outcome", static_cast<double>(a.joined),
                          static_cast<double>(b.joined)});
  section.rows.push_back(
      {"mean candidate-set size", a.mean_candidates, b.mean_candidates});
  section.rows.push_back({"mean |runtime rel error|",
                          a.mean_abs_runtime_error,
                          b.mean_abs_runtime_error});
  section.rows.push_back(
      {"mean |iops rel error|", a.mean_abs_iops_error, b.mean_abs_iops_error});
  report->sections.push_back(std::move(section));
}

void diff_breakdown(const obs::BreakdownReport& a,
                    const obs::BreakdownReport& b, RunReport* report) {
  TRACON_REQUIRE(report != nullptr, "diff_breakdown needs a report");
  auto mean = [](const obs::BreakdownCell& cell, double component) {
    return cell.tasks > 0 ? component / static_cast<double>(cell.tasks) : 0.0;
  };
  ReportSection section{"breakdown", {}};
  section.rows.push_back({"completed tasks",
                          static_cast<double>(a.total.tasks),
                          static_cast<double>(b.total.tasks)});
  section.rows.push_back({"mean wait s", mean(a.total, a.total.wait_s),
                          mean(b.total, b.total.wait_s)});
  section.rows.push_back({"mean solo s", mean(a.total, a.total.solo_s),
                          mean(b.total, b.total.solo_s)});
  section.rows.push_back({"mean interference s",
                          mean(a.total, a.total.interference_s),
                          mean(b.total, b.total.interference_s)});
  section.rows.push_back({"mean migration s",
                          mean(a.total, a.total.migration_s),
                          mean(b.total, b.total.migration_s)});
  section.rows.push_back({"mean end-to-end s",
                          mean(a.total, a.total.end_to_end_s()),
                          mean(b.total, b.total.end_to_end_s())});
  report->sections.push_back(std::move(section));
}

void write_report_text(std::ostream& os, const RunReport& report) {
  os << "A = " << report.label_a << "\nB = " << report.label_b << "\n";
  bool fingerprint_diff = false;
  for (const std::string& key :
       key_union(report.fingerprint_a, report.fingerprint_b)) {
    auto ia = report.fingerprint_a.find(key);
    auto ib = report.fingerprint_b.find(key);
    const std::string va =
        ia != report.fingerprint_a.end() ? ia->second : "(unset)";
    const std::string vb =
        ib != report.fingerprint_b.end() ? ib->second : "(unset)";
    if (va == vb) continue;
    if (!fingerprint_diff) os << "fingerprint differences:\n";
    fingerprint_diff = true;
    os << "  " << key << ": " << va << " -> " << vb << "\n";
  }
  if (!fingerprint_diff) os << "fingerprints identical\n";

  for (const ReportSection& section : report.sections) {
    if (section.rows.empty()) continue;
    os << "\n" << section.title << ":\n";
    TableWriter table({"metric", "A", "B", "delta"});
    for (const ReportRow& row : section.rows) {
      table.add_row({row.name, obs::format_double(row.a),
                     obs::format_double(row.b),
                     obs::format_double(row.delta())});
    }
    table.print(os);
  }

  if (!report.series.empty()) {
    os << "\nseries (per-window divergence over "
       << report.series_windows << " aligned windows):\n";
    TableWriter table({"metric", "mean_div", "max_div", "at_t_end"});
    for (const SeriesRow& row : report.series) {
      table.add_row({row.name, obs::format_double(row.mean_div),
                     obs::format_double(row.max_div),
                     obs::format_double(row.max_div_t)});
    }
    table.print(os);
  }
}

void write_report_json(std::ostream& os, const RunReport& report) {
  obs::JsonlBuffer out(os);
  out.raw("{\n  \"a\": {\"label\": ")
      .string(report.label_a)
      .raw(", \"fingerprint\": ")
      .string_map(report.fingerprint_a)
      .raw("},\n  \"b\": {\"label\": ")
      .string(report.label_b)
      .raw(", \"fingerprint\": ")
      .string_map(report.fingerprint_b)
      .raw("},\n  \"sections\": [");
  bool first_section = true;
  for (const ReportSection& section : report.sections) {
    out.raw(first_section ? "\n" : ",\n")
        .raw("    {\"title\": ")
        .string(section.title)
        .raw(", \"rows\": [");
    first_section = false;
    bool first_row = true;
    for (const ReportRow& row : section.rows) {
      out.raw(first_row ? "\n" : ",\n")
          .raw("      {\"name\": ")
          .string(row.name)
          .raw(", \"a\": ")
          .raw(obs::format_double(row.a))
          .raw(", \"b\": ")
          .raw(obs::format_double(row.b))
          .raw(", \"delta\": ")
          .raw(obs::format_double(row.delta()))
          .raw("}");
      first_row = false;
    }
    out.raw(first_row ? "" : "\n    ").raw("]}");
  }
  out.raw(first_section ? "" : "\n  ")
      .raw("],\n  \"series\": {\"windows\": ")
      .integer(report.series_windows)
      .raw(", \"rows\": [");
  bool first_series = true;
  for (const SeriesRow& row : report.series) {
    out.raw(first_series ? "\n" : ",\n")
        .raw("    {\"name\": ")
        .string(row.name)
        .raw(", \"mean_div\": ")
        .raw(obs::format_double(row.mean_div))
        .raw(", \"max_div\": ")
        .raw(obs::format_double(row.max_div))
        .raw(", \"at_t_end\": ")
        .raw(obs::format_double(row.max_div_t))
        .raw("}");
    first_series = false;
  }
  out.raw(first_series ? "" : "\n  ").raw("]}\n}").end_line();
  out.flush();
}

}  // namespace tracon::runstore
