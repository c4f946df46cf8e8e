#include "obs/jsonl.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stamp_merge.hpp"

namespace tracon::obs {

namespace {

/// Appends `raw` to `out`, escaped for a JSON string literal.
void append_escaped(std::string& out, std::string_view raw) {
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// format_number's `digits` for the shortest round-trip representation.
constexpr int kShortest = 0;

/// The one double formatter: general format at `digits` significant
/// digits, or the shortest round-trip representation for kShortest.
/// Returns the end of the text written from `buf`.
char* format_number(char (&buf)[32], double value, int digits) {
  // Shortest round trip: the parsed double is bit-identical to `value`,
  // which is what lets a replayed trace reproduce its recording exactly
  // (%.10g would quantize arrival times and fork the two simulations).
  const std::to_chars_result result =
      digits == kShortest
          ? std::to_chars(buf, buf + sizeof(buf), value)
          : std::to_chars(buf, buf + sizeof(buf), value,
                          std::chars_format::general, digits);
  return result.ptr;
}

}  // namespace

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  append_escaped(out, raw);
  return out;
}

std::string json_number(double value) {
  char buf[32];
  return std::string(buf, format_number(buf, value, kShortest));
}

std::string format_double(double value) {
  char buf[32];
  return std::string(buf, format_number(buf, value, 10));
}

// TRACON_ANALYZE_ALLOW(require-guard): any stream will do; its writer
// checks the stream state once the file is written.
JsonlBuffer::JsonlBuffer(std::ostream& os) : os_(&os) {}

// TRACON_ANALYZE_ALLOW(require-guard): any string will do; its text is
// cleared and only its capacity reused.
JsonlBuffer::JsonlBuffer(std::string storage) : text_(std::move(storage)) {
  text_.clear();
}

JsonlBuffer& JsonlBuffer::string(std::string_view text) {
  text_ += '"';
  append_escaped(text_, text);
  text_ += '"';
  return *this;
}

JsonlBuffer& JsonlBuffer::string_map(
    const std::map<std::string, std::string>& map) {
  text_ += '{';
  const char* sep = "";
  for (const auto& [key, value] : map) {
    raw(sep).string(key).raw(": ").string(value);
    sep = ", ";
  }
  text_ += '}';
  return *this;
}

JsonlBuffer& JsonlBuffer::number(double value) {
  return number(value, kShortest);
}

JsonlBuffer& JsonlBuffer::number(double value, int digits) {
  char buf[32];
  text_.append(buf, format_number(buf, value, digits));
  return *this;
}

JsonlBuffer& JsonlBuffer::integer(std::uint64_t value) {
  char buf[24];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  text_.append(buf, result.ptr);
  return *this;
}

JsonlBuffer& JsonlBuffer::log_header(
    std::string_view schema,
    const std::map<std::string, std::string>& fingerprint) {
  return raw("{\"schema\": ")
      .string(schema)
      .raw(", \"version\": ")
      .integer(kJsonlSchemaVersion)
      .raw(", \"fingerprint\": ")
      .string_map(fingerprint)
      .raw("}");
}

void JsonlBuffer::flush() {
  TRACON_REQUIRE(os_ != nullptr, "a JsonlBuffer without a stream has "
                                 "nothing to flush to");
  os_->write(text_.data(), static_cast<std::streamsize>(text_.size()));
  text_.clear();
}

void write_merged(
    std::ostream& os, std::size_t threads,
    const std::vector<std::size_t>& sizes, std::size_t own,
    const std::function<double(std::size_t, std::size_t)>& stamp,
    const std::function<void(JsonlBuffer&, std::size_t, std::size_t)>&
        format) {
  const std::vector<double> cuts =
      stamp_cuts(sizes, stamp, kMergedChunkRecords);
  const bool any_part = std::any_of(sizes.begin(), sizes.end(),
                                    [](std::size_t n) { return n > 0; });
  const std::size_t windows = any_part ? cuts.size() + 1 : 0;
  const std::size_t chunks =
      windows + (own + kMergedChunkRecords - 1) / kMergedChunkRecords;
  // More formatters than cores would only take turns on them.
  const std::size_t workers =
      std::clamp<std::size_t>(threads, 1, hardware_threads());
  // Chunk c's text lives in slots[c % in_flight] from the moment its
  // worker hands it over until the caller has written it. Each worker
  // formats into a buffer of its own, so no two workers append to
  // neighbouring string headers.
  const std::size_t in_flight = 2 * workers;
  std::vector<std::string> slots(in_flight);
  parallel_ordered(
      workers, chunks, in_flight,
      [&](std::size_t c) {
        JsonlBuffer out(std::move(slots[c % in_flight]));
        if (c < windows) {
          merge_by_stamp(stamp_window(sizes, stamp, cuts, c), stamp,
                         [&](std::size_t p, std::size_t i) {
                           format(out, p, i);
                         });
        } else {
          const std::size_t begin = (c - windows) * kMergedChunkRecords;
          const std::size_t end = std::min(own, begin + kMergedChunkRecords);
          for (std::size_t i = begin; i < end; ++i)
            format(out, sizes.size(), i);
        }
        slots[c % in_flight] = out.take();
      },
      [&](std::size_t c) {
        const std::string& text = slots[c % in_flight];
        os.write(text.data(), static_cast<std::streamsize>(text.size()));
      });
}

int require_schema(const JsonValue& header, std::string_view schema) {
  if (!header.is_object()) {
    throw std::invalid_argument("jsonl header is not a JSON object");
  }
  const JsonValue* s = header.find("schema");
  if (s == nullptr || !s->is_string() || s->as_string() != schema) {
    throw std::invalid_argument("jsonl header schema mismatch: expected \"" +
                                std::string(schema) + "\"");
  }
  const std::uint64_t version = count_field(header, "version", "jsonl header");
  if (version < 1 || version > kJsonlSchemaVersion) {
    throw std::invalid_argument("unsupported jsonl schema version " +
                                std::to_string(version));
  }
  return static_cast<int>(version);
}

namespace {

/// Member `key` of `obj` when it has kind `kind`; throws "<what> lacks
/// <noun> "<key>"" otherwise.
const JsonValue& typed_member(const JsonValue& obj, std::string_view key,
                              std::string_view what, JsonValue::Kind kind,
                              const char* noun) {
  const JsonValue* v = obj.find(std::string(key));
  if (v == nullptr || v->kind() != kind) {
    throw std::invalid_argument(std::string(what) + " lacks " + noun + " \"" +
                                std::string(key) + "\"");
  }
  return *v;
}

}  // namespace

double double_field(const JsonValue& obj, std::string_view key,
                    std::string_view what) {
  return typed_member(obj, key, what, JsonValue::Kind::kNumber, "numeric")
      .as_number();
}

bool is_count(double x) {
  // 2^64 is the first double out of range; NaN fails every comparison.
  return x >= 0.0 && x < 18446744073709551616.0 && x == std::floor(x);
}

std::uint64_t count_field(const JsonValue& obj, std::string_view key,
                          std::string_view what) {
  const double x = double_field(obj, key, what);
  if (!is_count(x)) {
    throw std::invalid_argument(std::string(what) + " \"" + std::string(key) +
                                "\" is not a non-negative integer: " +
                                json_number(x));
  }
  return static_cast<std::uint64_t>(x);
}

std::size_t index_field(const JsonValue& obj, std::string_view key,
                        std::string_view what) {
  static_assert(sizeof(std::size_t) >= sizeof(std::uint64_t),
                "every count must fit an index");
  return static_cast<std::size_t>(count_field(obj, key, what));
}

const std::string& text_field(const JsonValue& obj, std::string_view key,
                              std::string_view what) {
  return typed_member(obj, key, what, JsonValue::Kind::kString, "string")
      .as_string();
}

std::optional<std::size_t> corunner_field(const JsonValue& obj,
                                          std::string_view key,
                                          std::string_view what) {
  const JsonValue* v = obj.find(std::string(key));
  if (v != nullptr && v->is_string() && v->as_string() == "empty") {
    return std::nullopt;
  }
  if (v != nullptr && v->is_number()) return index_field(obj, key, what);
  throw std::invalid_argument(std::string(what) + " \"" + std::string(key) +
                              "\" must be \"empty\" or a number");
}

std::map<std::string, double> number_map_field(const JsonValue& obj,
                                               std::string_view key,
                                               std::string_view what) {
  std::map<std::string, double> out;
  for (const auto& [name, value] :
       typed_member(obj, key, what, JsonValue::Kind::kObject, "object")
           .as_object()) {
    if (!value->is_number()) {
      throw std::invalid_argument(std::string(what) + " " + std::string(key) +
                                  " entry \"" + name + "\" is not a number");
    }
    out.emplace(name, value->as_number());
  }
  return out;
}

std::map<std::string, std::string> string_map_field(const JsonValue& obj,
                                                    std::string_view key,
                                                    std::string_view what) {
  std::map<std::string, std::string> out;
  for (const auto& [name, value] :
       typed_member(obj, key, what, JsonValue::Kind::kObject, "object")
           .as_object()) {
    if (!value->is_string()) {
      throw std::invalid_argument(std::string(what) + " " + std::string(key) +
                                  " entry \"" + name + "\" is not a string");
    }
    out.emplace(name, value->as_string());
  }
  return out;
}

int read_jsonl(std::string_view text, std::string_view schema,
               std::string_view doc,
               const std::function<void(const JsonValue&)>& on_header,
               const std::function<void(const JsonValue&)>& on_record) {
  int version = 0;
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    try {
      const JsonValue obj = parse_json(line);
      if (version == 0) {
        version = require_schema(obj, schema);
        on_header(obj);
      } else {
        on_record(obj);
      }
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string(doc) + " line " +
                                  std::to_string(line_no) + ": " + e.what());
    }
  }
  if (version == 0) {
    throw std::invalid_argument(std::string(doc) + " has no header line");
  }
  return version;
}

}  // namespace tracon::obs
