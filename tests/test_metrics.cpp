// Unit tests for the obs metrics registry: counter/gauge/histogram
// semantics, name validation, bucket edge behaviour, deterministic
// export, and a JSON parse-back round trip through the obs JSON reader.
#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/accuracy.hpp"
#include "obs/json.hpp"
#include "obs/jsonl.hpp"
#include "util/rng.hpp"

namespace {

using tracon::obs::AccuracyTracker;
using tracon::obs::Histogram;
using tracon::obs::JsonlBuffer;
using tracon::obs::JsonValue;
using tracon::obs::MetricsRegistry;
using tracon::obs::metric_path_component;
using tracon::obs::parse_json;
using tracon::obs::valid_metric_name;

TEST(MetricName, ValidatesDottedSnakeCase) {
  EXPECT_TRUE(valid_metric_name("sched.mios.decisions"));
  EXPECT_TRUE(valid_metric_name("a"));
  EXPECT_TRUE(valid_metric_name("a1.b_2.c"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("Sched.decisions"));
  EXPECT_FALSE(valid_metric_name("sched..decisions"));
  EXPECT_FALSE(valid_metric_name(".sched"));
  EXPECT_FALSE(valid_metric_name("sched."));
  EXPECT_FALSE(valid_metric_name("9sched"));
  EXPECT_FALSE(valid_metric_name("sched decisions"));
}

TEST(MetricName, PathComponentSanitizesForeignIdentifiers) {
  EXPECT_EQ(metric_path_component("NLM-noDom0"), "nlm_nodom0");
  EXPECT_EQ(metric_path_component("WMM"), "wmm");
  EXPECT_EQ(metric_path_component("already_fine"), "already_fine");
}

TEST(Counter, AccumulatesAndDefaultsToOne) {
  MetricsRegistry reg;
  reg.counter("test.hits").inc();
  reg.counter("test.hits").inc(41);
  EXPECT_EQ(reg.counter("test.hits").value(), 42u);
}

TEST(Gauge, LastValueWinsAndAddAccumulates) {
  MetricsRegistry reg;
  reg.gauge("test.level").set(3.0);
  reg.gauge("test.level").set(1.5);
  reg.gauge("test.level").add(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("test.level").value(), 2.0);
}

TEST(HistogramTest, BucketEdgesAreUpperInclusive) {
  Histogram h({1.0, 2.0, 5.0});
  h.observe(1.0);   // lands in le=1 (inclusive upper bound)
  h.observe(1.001); // lands in le=2
  h.observe(5.0);   // lands in le=5
  h.observe(7.0);   // overflow
  ASSERT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.001);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
}

TEST(HistogramTest, MinMaxZeroBeforeFirstObservation) {
  Histogram h({1.0});
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(Registry, RejectsInvalidNames) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("Bad Name"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("bad..name"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("UPPER", {1.0}), std::invalid_argument);
}

TEST(Registry, HandlesAreStableAcrossLaterRegistrations) {
  MetricsRegistry reg;
  auto& a = reg.counter("a.first");
  a.inc();
  for (int i = 0; i < 100; ++i)
    reg.counter("z.filler_" + std::to_string(i));
  a.inc();
  EXPECT_EQ(reg.counter("a.first").value(), 2u);
}

TEST(Registry, JsonRoundTripPreservesValues) {
  MetricsRegistry reg;
  reg.counter("sched.decisions").inc(7);
  reg.gauge("sim.util.host_busy_fraction").set(0.625);
  auto& h = reg.histogram("model.nlm.runtime.rel_error_abs", {0.1, 0.5});
  h.observe(0.05);
  h.observe(0.3);
  h.observe(2.0);

  std::ostringstream os;
  reg.write_json(os);
  JsonValue doc = parse_json(os.str());

  const JsonValue* c = doc.find("counters");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->find("sched.decisions")->as_number(), 7.0);

  const JsonValue* g = doc.find("gauges");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->find("sim.util.host_busy_fraction")->as_number(), 0.625);

  const JsonValue* hs = doc.find("histograms");
  ASSERT_NE(hs, nullptr);
  const JsonValue* hist = hs->find("model.nlm.runtime.rel_error_abs");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_number(), 2.35);
  const auto& buckets = hist->find("buckets")->as_array();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0]->find("le")->as_number(), 0.1);
  EXPECT_DOUBLE_EQ(buckets[0]->find("count")->as_number(), 1.0);
  EXPECT_EQ(buckets[2]->find("le")->as_string(), "inf");
  EXPECT_DOUBLE_EQ(buckets[2]->find("count")->as_number(), 1.0);
}

TEST(Registry, FingerprintExportsFirstInJsonAndCsv) {
  MetricsRegistry reg;
  reg.counter("sched.decisions").inc();
  reg.set_fingerprint("seed", "42");
  reg.set_fingerprint("scheduler", "MIBS8-RT");

  std::ostringstream json;
  reg.write_json(json);
  JsonValue doc = parse_json(json.str());
  const JsonValue* fp = doc.find("fingerprint");
  ASSERT_NE(fp, nullptr);
  EXPECT_EQ(fp->find("seed")->as_string(), "42");
  EXPECT_EQ(fp->find("scheduler")->as_string(), "MIBS8-RT");
  // The fingerprint leads the document, so a human sees the run
  // identity before any metric.
  EXPECT_LT(json.str().find("\"fingerprint\""),
            json.str().find("\"counters\""));

  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_NE(csv.str().find("fingerprint,seed,value,42"), std::string::npos);
}

TEST(Registry, FingerprintKeyMustBeMetricShaped) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.set_fingerprint("Not A Key", "x"), std::invalid_argument);
  reg.set_fingerprint("run.build", "abc123");  // dotted paths are fine
  EXPECT_EQ(reg.fingerprint().at("run.build"), "abc123");
}

TEST(Registry, EmptyFingerprintStillExportsObject) {
  MetricsRegistry reg;
  reg.counter("a.c").inc();
  std::ostringstream os;
  reg.write_json(os);
  JsonValue doc = parse_json(os.str());
  const JsonValue* fp = doc.find("fingerprint");
  ASSERT_NE(fp, nullptr);
  EXPECT_TRUE(fp->is_object());
}

TEST(Registry, ExportsAreDeterministic) {
  auto build = [] {
    MetricsRegistry reg;
    reg.gauge("z.last").set(1.0 / 3.0);
    reg.counter("a.first").inc(3);
    reg.histogram("m.mid", {1.0, 2.0}).observe(1.7);
    std::ostringstream json, csv;
    reg.write_json(json);
    reg.write_csv(csv);
    return json.str() + "\x01" + csv.str();
  };
  EXPECT_EQ(build(), build());
}

TEST(Registry, CsvHasHeaderAndAllKinds) {
  MetricsRegistry reg;
  reg.counter("a.c").inc();
  reg.gauge("a.g").set(2.0);
  reg.histogram("a.h", {1.0}).observe(0.5);
  std::ostringstream os;
  reg.write_csv(os);
  std::string csv = os.str();
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,a.c,"), std::string::npos);
  EXPECT_NE(csv.find("gauge,a.g,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,a.h,"), std::string::npos);
}

TEST(Accuracy, RecordsSignedAndAbsoluteRelativeError) {
  MetricsRegistry reg;
  AccuracyTracker acc(reg, "NLM-noDom0", "runtime");
  acc.record(110.0, 100.0);  // +10% error
  acc.record(80.0, 100.0);   // -20% error

  const auto& hists = reg.histograms();
  auto sit = hists.find("model.nlm_nodom0.runtime.rel_error_signed");
  auto ait = hists.find("model.nlm_nodom0.runtime.rel_error_abs");
  ASSERT_NE(sit, hists.end());
  ASSERT_NE(ait, hists.end());
  EXPECT_EQ(sit->second.count(), 2u);
  EXPECT_NEAR(sit->second.sum(), -0.1, 1e-12);
  EXPECT_NEAR(ait->second.sum(), 0.3, 1e-12);
  EXPECT_EQ(
      reg.counters().at("model.nlm_nodom0.runtime.samples").value(), 2u);
}

TEST(Merge, CountersAndHistogramsSumGaugesLastWriterWins) {
  MetricsRegistry a, b;
  a.counter("c.hits").inc(10);
  b.counter("c.hits").inc(5);
  b.counter("c.only_b").inc(2);
  a.gauge("g.level").set(1.0);
  b.gauge("g.level").set(7.0);
  a.histogram("h.lat", {1.0, 2.0}).observe(0.5);
  b.histogram("h.lat", {1.0, 2.0}).observe(1.5);
  b.histogram("h.only_b", {4.0}).observe(9.0);
  a.set_fingerprint("seed", "1");
  b.set_fingerprint("seed", "2");
  b.set_fingerprint("shard", "b");

  a.merge(b);

  EXPECT_EQ(a.counter("c.hits").value(), 15u);
  EXPECT_EQ(a.counter("c.only_b").value(), 2u);
  EXPECT_DOUBLE_EQ(a.gauge("g.level").value(), 7.0);
  const Histogram& h = a.histogram("h.lat", {1.0, 2.0});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1.5);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(a.histogram("h.only_b", {4.0}).count(), 1u);
  EXPECT_EQ(a.fingerprint().at("seed"), "2");
  EXPECT_EQ(a.fingerprint().at("shard"), "b");
}

TEST(Merge, EmptySidesAreNoOps) {
  MetricsRegistry a, empty;
  a.counter("c.hits").inc(3);
  a.merge(empty);
  EXPECT_EQ(a.counter("c.hits").value(), 3u);
  MetricsRegistry b;
  b.merge(a);
  EXPECT_EQ(b.counter("c.hits").value(), 3u);
}

TEST(Merge, MismatchedHistogramBoundsThrow) {
  MetricsRegistry a, b;
  a.histogram("h.lat", {1.0}).observe(0.5);
  b.histogram("h.lat", {2.0}).observe(0.5);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Json, ParserHandlesEscapesAndRejectsGarbage) {
  JsonValue v = parse_json(R"({"s": "a\"b\n", "arr": [1, -2.5e1, true,
                              null]})");
  EXPECT_EQ(v.find("s")->as_string(), "a\"b\n");
  const auto& arr = v.find("arr")->as_array();
  ASSERT_EQ(arr.size(), 4u);
  EXPECT_DOUBLE_EQ(arr[1]->as_number(), -25.0);
  EXPECT_TRUE(arr[2]->as_bool());
  EXPECT_TRUE(arr[3]->is_null());
  EXPECT_THROW(parse_json("{"), std::invalid_argument);
  EXPECT_THROW(parse_json("{} trailing"), std::invalid_argument);
  EXPECT_THROW(parse_json("nope"), std::invalid_argument);
}

TEST(Json, NestingIsBoundedWellAboveWhatTheTreeWrites) {
  auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(parse_json(nested(256)).is_array());
  EXPECT_THROW(parse_json(nested(257)), std::invalid_argument);
  // Far past the bound: an error, not a stack overflow.
  EXPECT_THROW(parse_json(std::string(200000, '[')), std::invalid_argument);
}

TEST(Json, CountAndIndexFieldsTakeOnlyRepresentableIntegers) {
  JsonValue v = parse_json(
      R"({"zero": 0, "big": 18446744073709549568, "frac": 1.5, "neg": -1,)"
      R"( "huge": 1e300, "inf": 1e400, "two64": 18446744073709551616,)"
      R"( "text": "3"})");
  EXPECT_EQ(count_field(v, "zero", "doc"), 0u);
  EXPECT_EQ(count_field(v, "big", "doc"), 18446744073709549568ull);
  EXPECT_EQ(index_field(v, "zero", "doc"), std::size_t{0});
  for (const char* key : {"frac", "neg", "huge", "inf", "two64"}) {
    EXPECT_THROW(count_field(v, key, "doc"), std::invalid_argument) << key;
    EXPECT_THROW(index_field(v, key, "doc"), std::invalid_argument) << key;
  }
  for (const char* key : {"text", "missing"}) {
    EXPECT_THROW(count_field(v, key, "doc"), std::invalid_argument) << key;
  }
  try {
    count_field(v, "neg", "metrics series record");
    ADD_FAILURE() << "negative count accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "metrics series record \"neg\" is not a non-negative "
                 "integer: -1");
  }
}

/// What JsonlBuffer::number(value, digits) writes.
std::string general_number(double value, int digits) {
  std::ostringstream os;
  JsonlBuffer out(os);
  out.number(value, digits).flush();
  return os.str();
}

TEST(Jsonl, GeneralNumberPrintsWhatPrintfAndOstreamPrint) {
  // format_double and the tracer's exports were printf("%.10g") and a
  // default std::ostream ("%g") before they shared std::to_chars; no
  // byte may move.
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.5, 0.1, 1e-5, 1e-4, 123456.0, 1234567.0,
      9.9999999995, 99999.95, 999999.5, 1e16, 1.0 / 3.0, 5e-324,
      2.2250738585072014e-308, 1.7976931348623157e308,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  tracon::Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    values.push_back(rng.normal(0.0, 1.0) *
                     std::pow(10.0, static_cast<double>(
                                        rng.uniform_int(-30, 30))));
  }
  for (double v : values) {
    for (int digits : {6, 10, 17}) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.*g", digits, v);
      EXPECT_EQ(general_number(v, digits), buf) << v;
    }
    std::ostringstream os;
    os << v;
    EXPECT_EQ(general_number(v, 6), os.str()) << v;
    EXPECT_EQ(tracon::obs::format_double(v), general_number(v, 10)) << v;
  }
}

TEST(Jsonl, BufferFormatsStringsMapsAndLogHeaders) {
  std::ostringstream os;
  JsonlBuffer out(os);
  out.string("a\"b\\c\n\x01").end_line();
  // The buffer holds its text until a block fills or flush().
  EXPECT_EQ(os.str(), "");
  out.flush();
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\n\\u0001\"\n");
  out.log_header("tracon.example", {{"seed", "7"}, {"build", "x\"y"}})
      .end_line();
  out.string_map({}).end_line();
  out.integer(7).raw(",").number(0.1).raw(",").number(0.1, 3).end_line();
  out.flush();
  std::istringstream lines(os.str());
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(parse_json(line).as_string(), "a\"b\\c\n\x01");
  std::getline(lines, line);
  EXPECT_EQ(line, "{\"schema\": \"tracon.example\", \"version\": " +
                      std::to_string(tracon::obs::kJsonlSchemaVersion) +
                      ", \"fingerprint\": {\"build\": \"x\\\"y\", "
                      "\"seed\": \"7\"}}");
  EXPECT_EQ(tracon::obs::require_schema(parse_json(line), "tracon.example"),
            tracon::obs::kJsonlSchemaVersion);
  std::getline(lines, line);
  EXPECT_EQ(line, "{}");
  std::getline(lines, line);
  EXPECT_EQ(line, "7,0.1,0.1");
}

}  // namespace
