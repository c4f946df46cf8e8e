#include "replay/arrival_trace.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "util/error.hpp"

namespace tracon::replay {

namespace {

void validate_header(const ArrivalTraceHeader& h) {
  TRACON_REQUIRE(h.num_apps > 0, "arrival trace needs at least one app class");
  TRACON_REQUIRE(h.machines > 0, "arrival trace machine count must be > 0");
  TRACON_REQUIRE(h.duration_s > 0.0, "arrival trace duration must be > 0");
}

}  // namespace

TraceWriter::TraceWriter(std::ostream& os, const ArrivalTraceHeader& header)
    : out_(os) {
  validate_header(header);
  TRACON_REQUIRE(os.good(), "arrival trace stream is not writable");
  out_.raw("{\"schema\": ")
      .string(kArrivalTraceSchema)
      .raw(", \"version\": ")
      .integer(static_cast<std::uint64_t>(header.version))
      .raw(", \"seed\": ")
      .integer(header.seed)
      .raw(", \"host\": ")
      .string(header.host)
      .raw(", \"model\": ")
      .string(header.model)
      .raw(", \"mix\": ")
      .string(header.mix)
      .raw(", \"lambda_per_min\": ")
      .number(header.lambda_per_min)
      .raw(", \"duration_s\": ")
      .number(header.duration_s)
      .raw(", \"machines\": ")
      .integer(header.machines)
      .raw(", \"queue_capacity\": ")
      .integer(header.queue_capacity)
      .raw(", \"num_apps\": ")
      .integer(header.num_apps)
      .raw("}")
      .end_line();
  out_.flush();
}

void TraceWriter::write(const TraceArrival& arrival) {
  out_.raw("{\"time_s\": ")
      .number(arrival.time_s)
      .raw(", \"app\": ")
      .integer(arrival.app)
      .raw(", \"demand_s\": ")
      .number(arrival.demand_s)
      .raw("}")
      .end_line();
  out_.flush();
  ++written_;
}

void write_arrival_trace(std::ostream& os, const ArrivalTrace& trace) {
  TraceWriter writer(os, trace.header);
  for (const TraceArrival& a : trace.arrivals) writer.write(a);
}

ArrivalTrace load_arrival_trace(std::istream& is) {
  std::ostringstream text;
  text << is.rdbuf();
  ArrivalTrace trace;
  trace.header.version = obs::read_jsonl(
      std::move(text).str(), kArrivalTraceSchema, "arrival trace",
      [&](const obs::JsonValue& obj) {
        ArrivalTraceHeader& h = trace.header;
        h.seed = obs::count_field(obj, "seed", "header");
        h.host = obs::text_field(obj, "host", "header");
        h.model = obs::text_field(obj, "model", "header");
        h.mix = obs::text_field(obj, "mix", "header");
        h.lambda_per_min = obs::double_field(obj, "lambda_per_min", "header");
        h.duration_s = obs::double_field(obj, "duration_s", "header");
        h.machines = obs::index_field(obj, "machines", "header");
        h.queue_capacity = obs::index_field(obj, "queue_capacity", "header");
        h.num_apps = obs::index_field(obj, "num_apps", "header");
        validate_header(h);
      },
      [&](const obs::JsonValue& obj) {
        TraceArrival a;
        a.time_s = obs::double_field(obj, "time_s", "arrival");
        a.app = obs::index_field(obj, "app", "arrival");
        a.demand_s = obs::double_field(obj, "demand_s", "arrival");
        if (a.app >= trace.header.num_apps) {
          throw std::invalid_argument(
              "app index out of range for the header's num_apps");
        }
        if (!(a.time_s >= 0.0)) {
          throw std::invalid_argument("arrival time_s is negative");
        }
        if (!trace.arrivals.empty() &&
            a.time_s < trace.arrivals.back().time_s) {
          throw std::invalid_argument("arrivals not sorted by time");
        }
        trace.arrivals.push_back(a);
      });
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

std::size_t TraceArrivalSource::fill(std::span<sim::Arrival> out) {
  const std::size_t n = std::min(out.size(), trace_.arrivals.size() - next_);
  for (sim::Arrival& a : out.first(n)) {
    const TraceArrival& recorded = trace_.arrivals[next_++];
    a = {recorded.time_s, recorded.app};
  }
  return n;
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

std::size_t RecordingArrivalSource::fill(std::span<sim::Arrival> out) {
  const std::size_t got = inner_.fill(out);
  for (const sim::Arrival& a : out.first(got)) {
    TRACON_REQUIRE(a.app < solo_demands_.size(),
                   "arrival app has no recorded solo demand");
    writer_.write({a.time_s, a.app, solo_demands_[a.app]});
  }
  return got;
}

}  // namespace tracon::replay
