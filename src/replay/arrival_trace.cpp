#include "replay/arrival_trace.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "util/error.hpp"

namespace tracon::replay {

namespace {

/// Names a line of the trace in error messages.
std::string where(std::size_t line_no) {
  return "arrival trace line " + std::to_string(line_no);
}

double req_number(const obs::JsonValue& obj, const std::string& key,
                  std::size_t line_no) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    throw std::invalid_argument(where(line_no) + " lacks numeric \"" + key +
                                "\"");
  }
  return v->as_number();
}

std::string req_string(const obs::JsonValue& obj, const std::string& key,
                       std::size_t line_no) {
  const obs::JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    throw std::invalid_argument(where(line_no) + " lacks string \"" + key +
                                "\"");
  }
  return v->as_string();
}

void validate_header(const ArrivalTraceHeader& h) {
  TRACON_REQUIRE(h.num_apps > 0, "arrival trace needs at least one app class");
  TRACON_REQUIRE(h.machines > 0, "arrival trace machine count must be > 0");
  TRACON_REQUIRE(h.duration_s > 0.0, "arrival trace duration must be > 0");
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& os, const ArrivalTraceHeader& header)
    : os_(os) {
  validate_header(header);
  TRACON_REQUIRE(os.good(), "arrival trace stream is not writable");
  os_ << obs::JsonLineWriter()
             .field("schema", kArrivalTraceSchema)
             .field("version", header.version)
             .field("seed", header.seed)
             .field("host", header.host)
             .field("model", header.model)
             .field("mix", header.mix)
             .field("lambda_per_min", header.lambda_per_min)
             .field("duration_s", header.duration_s)
             .field("machines", header.machines)
             .field("queue_capacity", header.queue_capacity)
             .field("num_apps", header.num_apps)
             .str()
      << '\n';
}

void TraceWriter::write(const TraceArrival& arrival) {
  os_ << obs::JsonLineWriter()
             .field("time_s", arrival.time_s)
             .field("app", arrival.app)
             .field("demand_s", arrival.demand_s)
             .str()
      << '\n';
  ++written_;
}

void write_arrival_trace(std::ostream& os, const ArrivalTrace& trace) {
  TraceWriter writer(os, trace.header);
  for (const TraceArrival& a : trace.arrivals) writer.write(a);
}

ArrivalTrace load_arrival_trace(std::istream& is) {
  ArrivalTrace trace;
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    obs::JsonValue obj = obs::parse_json(line);
    if (!have_header) {
      trace.header.version = obs::require_schema(obj, kArrivalTraceSchema);
      trace.header.seed = obs::count_field(obj, "seed", where(line_no));
      trace.header.host = req_string(obj, "host", line_no);
      trace.header.model = req_string(obj, "model", line_no);
      trace.header.mix = req_string(obj, "mix", line_no);
      trace.header.lambda_per_min = req_number(obj, "lambda_per_min", line_no);
      trace.header.duration_s = req_number(obj, "duration_s", line_no);
      trace.header.machines =
          obs::index_field(obj, "machines", where(line_no));
      trace.header.queue_capacity =
          obs::index_field(obj, "queue_capacity", where(line_no));
      trace.header.num_apps =
          obs::index_field(obj, "num_apps", where(line_no));
      validate_header(trace.header);
      have_header = true;
      continue;
    }
    TraceArrival a;
    a.time_s = req_number(obj, "time_s", line_no);
    a.app = obs::index_field(obj, "app", where(line_no));
    a.demand_s = req_number(obj, "demand_s", line_no);
    if (a.app >= trace.header.num_apps) {
      throw std::invalid_argument(
          "arrival trace line " + std::to_string(line_no) +
          ": app index out of range for the header's num_apps");
    }
    if (!trace.arrivals.empty() && a.time_s < trace.arrivals.back().time_s) {
      throw std::invalid_argument("arrival trace line " +
                                  std::to_string(line_no) +
                                  ": arrivals not sorted by time");
    }
    trace.arrivals.push_back(a);
  }
  if (!have_header) {
    throw std::invalid_argument("arrival trace has no header line");
  }
  return trace;
}

TraceArrivalSource::TraceArrivalSource(ArrivalTrace trace)
    : trace_(std::move(trace)) {
  validate_header(trace_.header);
  for (std::size_t i = 1; i < trace_.arrivals.size(); ++i) {
    TRACON_REQUIRE(trace_.arrivals[i - 1].time_s <= trace_.arrivals[i].time_s,
                   "trace arrivals must be sorted by time");
  }
}

std::vector<sim::Arrival> TraceArrivalSource::arrivals(std::size_t num_apps) {
  TRACON_REQUIRE(trace_.header.num_apps <= num_apps,
                 "trace records more app classes than the simulation has");
  std::vector<sim::Arrival> out;
  out.reserve(trace_.arrivals.size());
  for (const TraceArrival& a : trace_.arrivals) out.push_back({a.time_s, a.app});
  return out;
}

bool TraceArrivalSource::validate_demands(
    const std::vector<double>& solo_demands, double rel_tol) const {
  for (const TraceArrival& a : trace_.arrivals) {
    if (a.app >= solo_demands.size()) return false;
    double expected = solo_demands[a.app];
    double scale = std::max(std::abs(expected), 1e-12);
    if (std::abs(a.demand_s - expected) > rel_tol * scale) return false;
  }
  return true;
}

RecordingArrivalSource::RecordingArrivalSource(sim::ArrivalSource& inner,
                                               TraceWriter& writer,
                                               std::vector<double> solo_demands)
    : inner_(inner), writer_(writer), solo_demands_(std::move(solo_demands)) {
  TRACON_REQUIRE(!solo_demands_.empty(),
                 "recording needs per-app solo service demands");
}

std::vector<sim::Arrival> RecordingArrivalSource::arrivals(
    std::size_t num_apps) {
  TRACON_REQUIRE(!consumed_,
                 "RecordingArrivalSource is single-shot: a second arrivals() "
                 "call would duplicate the trace records");
  consumed_ = true;
  std::vector<sim::Arrival> out = inner_.arrivals(num_apps);
  for (const sim::Arrival& a : out) {
    TRACON_REQUIRE(a.app < solo_demands_.size(),
                   "arrival app has no recorded solo demand");
    writer_.write({a.time_s, a.app, solo_demands_[a.app]});
  }
  return out;
}

}  // namespace tracon::replay
