// telemetry_check: validates the files the telemetry subsystem emits.
//
// Usage: telemetry_check --metrics METRICS.json [--trace TRACE.json]
//                        [--series SERIES.jsonl]
//                        [--decisions DECISIONS.jsonl]
//                        [--spans SPANS.jsonl]
//                        [--metrics-b OTHER.json]
//
// Checks (exit 0 when all pass, 1 otherwise):
//   metrics: parses as JSON; has a run fingerprint (seed / scheduler /
//     machines / mix at minimum), the scheduler decision counters, at
//     least one sim.util.* gauge, and at least one prediction-error
//     histogram whose buckets are structurally sound (le-ascending,
//     bucket counts summing to `count`).
//   trace: parses as JSON; traceEvents is a non-empty array whose
//     entries carry name/ph/ts/pid/tid, with at least one complete
//     "X" duration slice.
//   metrics-b: second metrics file compared structurally against
//     --metrics; the two documents must be identical except for the
//     fingerprint's "threads" entry. This is how CI enforces DESIGN.md
//     §7's determinism contract: a --threads 4 run must match the
//     --threads 1 run everywhere that isn't the thread-count stamp.
//   series, decisions, spans: each log is read by its schema's reader
//     (obs::parse_metrics_series, parse_decision_log, parse_span_log),
//     which refuses any record that breaks the schema's structure, and
//     the spans fold through obs::breakdown, which refuses a task chain
//     that does not tile or account for its latency (DESIGN.md §6e,
//     §6g, §6i). On top, this driver checks what a run, not the
//     schema, promises: every log holds at least one window, record or
//     span, and the decision and span fingerprints carry the core
//     identity keys but no thread or shard count (the logs must stay
//     byte-comparable across --threads).
//
// Used by CI after an instrumented example/CLI run; kept dependency-free
// via the in-tree obs JSON reader.
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/breakdown.hpp"
#include "obs/decision_log.hpp"
#include "obs/json.hpp"
#include "obs/snapshot.hpp"
#include "obs/span_log.hpp"
#include "util/cli.hpp"

namespace {

using tracon::obs::JsonValue;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("ok: %s\n", what.c_str());
  } else {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool histogram_sound(const JsonValue& hist) {
  const JsonValue* count = hist.find("count");
  const JsonValue* buckets = hist.find("buckets");
  if (count == nullptr || buckets == nullptr || !buckets->is_array()) {
    return false;
  }
  double total = 0.0;
  double prev_le = 0.0;
  bool first = true;
  for (const auto& b : buckets->as_array()) {
    const JsonValue* le = b->find("le");
    const JsonValue* c = b->find("count");
    if (le == nullptr || c == nullptr) return false;
    if (le->is_number()) {
      if (!first && le->as_number() <= prev_le) return false;
      prev_le = le->as_number();
      first = false;
    } else if (!le->is_string() || le->as_string() != "inf") {
      return false;
    }
    total += c->as_number();
  }
  return total == count->as_number();  // exact: both are integer counts
}

void check_metrics(const JsonValue& doc) {
  const JsonValue* fp = doc.find("fingerprint");
  check(fp != nullptr && fp->is_object(),
        "metrics has a fingerprint object");
  if (fp != nullptr && fp->is_object()) {
    for (const char* key : {"seed", "scheduler", "machines", "mix"}) {
      const JsonValue* v = fp->find(key);
      check(v != nullptr && v->is_string() && !v->as_string().empty(),
            std::string("fingerprint carries a non-empty ") + key);
    }
  }

  const JsonValue* counters = doc.find("counters");
  check(counters != nullptr && counters->is_object(),
        "metrics has a counters object");
  check(counters != nullptr && counters->find("sched.decisions") != nullptr,
        "metrics counters include sched.decisions");

  const JsonValue* gauges = doc.find("gauges");
  bool has_util = false;
  if (gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, value] : gauges->as_object()) {
      (void)value;
      if (name.rfind("sim.util.", 0) == 0) has_util = true;
    }
  }
  check(has_util, "metrics gauges include a sim.util.* utilization gauge");

  const JsonValue* hists = doc.find("histograms");
  bool has_err = false;
  bool all_sound = true;
  if (hists != nullptr && hists->is_object()) {
    for (const auto& [name, value] : hists->as_object()) {
      if (name.find(".rel_error") != std::string::npos) has_err = true;
      if (!histogram_sound(*value)) all_sound = false;
    }
  }
  check(has_err, "metrics include a prediction rel_error histogram");
  check(all_sound, "every histogram has ascending buckets summing to count");
}

/// Structural equality of two JSON documents, reporting the path of the
/// first mismatch. `ignore` names one exact path ("fingerprint.threads")
/// whose values may differ.
bool json_equal(const JsonValue& a, const JsonValue& b,
                const std::string& path, const std::string& ignore,
                std::string* mismatch) {
  if (path == ignore) return true;
  auto fail = [&]() {
    if (mismatch->empty()) *mismatch = path.empty() ? "<root>" : path;
    return false;
  };
  if (a.is_object() != b.is_object() || a.is_array() != b.is_array() ||
      a.is_number() != b.is_number() || a.is_string() != b.is_string() ||
      a.is_bool() != b.is_bool() || a.is_null() != b.is_null()) {
    return fail();
  }
  if (a.is_object()) {
    const auto& ao = a.as_object();
    const auto& bo = b.as_object();
    if (ao.size() != bo.size()) return fail();
    auto bi = bo.begin();
    for (auto ai = ao.begin(); ai != ao.end(); ++ai, ++bi) {
      if (ai->first != bi->first) return fail();
      if (!json_equal(*ai->second, *bi->second,
                      path.empty() ? ai->first : path + "." + ai->first,
                      ignore, mismatch)) {
        return false;
      }
    }
    return true;
  }
  if (a.is_array()) {
    const auto& aa = a.as_array();
    const auto& ba = b.as_array();
    if (aa.size() != ba.size()) return fail();
    for (std::size_t i = 0; i < aa.size(); ++i) {
      if (!json_equal(*aa[i], *ba[i], path + "[" + std::to_string(i) + "]",
                      ignore, mismatch)) {
        return false;
      }
    }
    return true;
  }
  if (a.is_number()) return a.as_number() == b.as_number() ? true : fail();
  if (a.is_string()) return a.as_string() == b.as_string() ? true : fail();
  if (a.is_bool()) return a.as_bool() == b.as_bool() ? true : fail();
  return true;  // both null
}

void check_metrics_pair(const JsonValue& a, const JsonValue& b) {
  std::string mismatch;
  bool equal = json_equal(a, b, "", "fingerprint.threads", &mismatch);
  check(equal, equal ? "metrics documents identical except fingerprint "
                       "threads"
                     : "metrics documents identical except fingerprint "
                       "threads (first mismatch at " +
                           mismatch + ")");
}

void check_trace(const JsonValue& doc) {
  const JsonValue* events = doc.find("traceEvents");
  check(events != nullptr && events->is_array() && !events->as_array().empty(),
        "trace has a non-empty traceEvents array");
  if (events == nullptr || !events->is_array()) return;

  bool fields_ok = true;
  bool has_slice = false;
  for (const auto& ev : events->as_array()) {
    const JsonValue* ph = ev->find("ph");
    if (ph == nullptr || !ph->is_string() || ev->find("name") == nullptr ||
        ev->find("pid") == nullptr || ev->find("tid") == nullptr) {
      fields_ok = false;
      continue;
    }
    // Metadata events carry no timestamp; everything else must.
    if (ph->as_string() != "M" && ev->find("ts") == nullptr) fields_ok = false;
    if (ph->as_string() == "X" && ev->find("dur") != nullptr) has_slice = true;
  }
  check(fields_ok, "every trace event has name/ph/pid/tid (+ts when timed)");
  check(has_slice, "trace contains at least one X duration slice");
}

/// The run-level expectations on a decision or span log's fingerprint:
/// the core identity keys, and no execution shape.
void check_fingerprint(const std::map<std::string, std::string>& fingerprint,
                       const std::string& log) {
  for (const char* key : {"seed", "scheduler", "machines", "mix"}) {
    auto it = fingerprint.find(key);
    check(it != fingerprint.end() && !it->second.empty(),
          log + " fingerprint carries a non-empty " + key);
  }
  check(fingerprint.count("threads") == 0 && fingerprint.count("shards") == 0,
        log + " fingerprint excludes threads/shards");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tracon::ArgParser args(argc, argv);
    if (!args.has("metrics") && !args.has("series") &&
        !args.has("decisions") && !args.has("spans")) {
      std::fprintf(stderr,
                   "usage: %s --metrics METRICS.json [--trace TRACE.json] "
                   "[--series SERIES.jsonl] [--decisions DECISIONS.jsonl] "
                   "[--spans SPANS.jsonl]\n",
                   argv[0]);
      return 2;
    }
    if (args.has("metrics")) {
      JsonValue metrics = tracon::obs::parse_json(slurp(args.get("metrics")));
      check_metrics(metrics);
      if (args.has("metrics-b")) {
        check_metrics_pair(
            metrics, tracon::obs::parse_json(slurp(args.get("metrics-b"))));
      }
    }
    if (args.has("trace")) {
      check_trace(tracon::obs::parse_json(slurp(args.get("trace"))));
    }
    if (args.has("series")) {
      const tracon::obs::MetricsSeries series =
          tracon::obs::parse_metrics_series(slurp(args.get("series")));
      check(!series.windows.empty(), "series contains at least one window");
    }
    if (args.has("decisions")) {
      const tracon::obs::DecisionDoc doc =
          tracon::obs::parse_decision_log(slurp(args.get("decisions")));
      check_fingerprint(doc.fingerprint, "decision");
      check(!doc.events.empty(), "decision log contains at least one record");
    }
    if (args.has("spans")) {
      const tracon::obs::SpanDoc doc =
          tracon::obs::parse_span_log(slurp(args.get("spans")));
      check_fingerprint(doc.fingerprint, "span");
      check(!doc.events.empty(), "span log contains at least one span");
      tracon::obs::breakdown(doc);
    }
    if (g_failures > 0) {
      std::fprintf(stderr, "telemetry_check: %d failure(s)\n", g_failures);
      return 1;
    }
    std::printf("telemetry_check: all checks passed\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry_check error: %s\n", e.what());
    return 1;
  }
}
