#include "obs/jsonl.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stamp_merge.hpp"

namespace tracon::obs {

namespace {

/// Bytes a formatted number may take: the shortest round trip is at
/// most 24 (-2.2250738585072014e-308), the general format at 17 digits
/// no more.
constexpr std::size_t kNumberBytes = 32;

/// Writes `raw` from `out`, escaped for a JSON string literal, taking at
/// most 6 bytes per byte of `raw`. Returns the end of the text written.
char* escape(char* out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : raw) {
    char letter = 0;  // what follows the backslash of a short escape
    switch (c) {
      case '"': letter = '"'; break;
      case '\\': letter = '\\'; break;
      case '\b': letter = 'b'; break;
      case '\f': letter = 'f'; break;
      case '\n': letter = 'n'; break;
      case '\r': letter = 'r'; break;
      case '\t': letter = 't'; break;
      default: break;
    }
    const auto byte = static_cast<unsigned char>(c);
    if (letter != 0) {
      *out++ = '\\';
      *out++ = letter;
    } else if (byte < 0x20) {
      out = std::copy_n("\\u00", 4, out);
      *out++ = kHex[byte >> 4];
      *out++ = kHex[byte & 0xf];
    } else {
      *out++ = c;
    }
  }
  return out;
}

/// format_number's `digits` for the shortest round-trip representation.
constexpr int kShortest = 0;

/// The one double formatter: general format at `digits` significant
/// digits, or the shortest round-trip representation for kShortest,
/// written from `out`, which has kNumberBytes of room. Returns the end
/// of the text written.
char* format_number(char* out, double value, int digits) {
  // Shortest round trip: the parsed double is bit-identical to `value`,
  // which is what lets a replayed trace reproduce its recording exactly
  // (%.10g would quantize arrival times and fork the two simulations).
  const std::to_chars_result result =
      digits == kShortest
          ? std::to_chars(out, out + kNumberBytes, value)
          : std::to_chars(out, out + kNumberBytes, value,
                          std::chars_format::general, digits);
  TRACON_ASSERT(result.ec == std::errc{}, "a number outgrew its room");
  return result.ptr;
}

/// The memo slot of a double's bit pattern: the top bits of a Fibonacci
/// hash, which mixes the exponent and the high mantissa bits that the
/// logs' values differ in.
std::size_t memo_slot(std::uint64_t bits) {
  static_assert(std::has_single_bit(JsonlBuffer::kMemoEntries));
  constexpr int kShift = 64 - std::countr_zero(JsonlBuffer::kMemoEntries);
  return static_cast<std::size_t>((bits * 0x9e3779b97f4a7c15u) >> kShift);
}

}  // namespace

std::string json_escape(std::string_view raw) {
  std::string out(6 * raw.size(), '\0');
  out.resize(static_cast<std::size_t>(escape(out.data(), raw) - out.data()));
  return out;
}

std::string json_number(double value) {
  char buf[kNumberBytes];
  return std::string(buf, format_number(buf, value, kShortest));
}

std::string format_double(double value) {
  char buf[kNumberBytes];
  return std::string(buf, format_number(buf, value, 10));
}

// TRACON_ANALYZE_ALLOW(require-guard): any stream will do; its writer
// checks the stream state once the file is written.
JsonlBuffer::JsonlBuffer(std::ostream& os) : os_(&os) {}

void JsonlBuffer::grow(std::size_t n) {
  // Doubling keeps the copies linear in the text. The new room is left
  // uninitialized, so its pages are touched only as fields fill them.
  const std::size_t capacity =
      std::max({2 * capacity_, size_ + n, std::size_t{4096}});
  std::unique_ptr<char[]> text = std::make_unique_for_overwrite<char[]>(
      capacity);
  if (size_ > 0) std::memcpy(text.get(), text_.get(), size_);
  text_ = std::move(text);
  capacity_ = capacity;
}

JsonlBuffer& JsonlBuffer::string(std::string_view text) {
  char* out = room(6 * text.size() + 2);
  *out++ = '"';
  out = escape(out, text);
  *out++ = '"';
  size_ = static_cast<std::size_t>(out - text_.get());
  return *this;
}

JsonlBuffer& JsonlBuffer::string_map(
    const std::map<std::string, std::string>& map) {
  raw("{");
  const char* sep = "";
  for (const auto& [key, value] : map) {
    raw(sep).string(key).raw(": ").string(value);
    sep = ", ";
  }
  return raw("}");
}

JsonlBuffer& JsonlBuffer::number(double value) {
  char* out = room(kNumberBytes);
  const auto bits = std::bit_cast<std::uint64_t>(value);
  MemoEntry& entry = memo_[memo_slot(bits)];
  if (entry.bits == bits && entry.size != 0) {
    // A fixed-size copy: the room holds the whole entry, and the text
    // ends at entry.size.
    std::memcpy(out, entry.text, sizeof entry.text);
    size_ += entry.size;
    return *this;
  }
  const std::size_t size =
      static_cast<std::size_t>(format_number(out, value, kShortest) - out);
  TRACON_ASSERT(size <= sizeof entry.text,
                "a shortest double outgrew its memo entry");
  entry.bits = bits;
  entry.size = static_cast<std::uint8_t>(size);
  std::memcpy(entry.text, out, size);
  size_ += size;
  return *this;
}

JsonlBuffer& JsonlBuffer::number(double value, int digits) {
  char* out = room(kNumberBytes);
  size_ = static_cast<std::size_t>(format_number(out, value, digits) -
                                   text_.get());
  return *this;
}

JsonlBuffer& JsonlBuffer::integer(std::uint64_t value) {
  constexpr std::size_t kDigits = 20;  // 18446744073709551615
  char* out = room(kDigits);
  size_ = static_cast<std::size_t>(
      std::to_chars(out, out + kDigits, value).ptr - text_.get());
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
  write_to(*os_);
}

void JsonlBuffer::write_to(std::ostream& os) {
  if (size_ > 0) os.write(text_.get(), static_cast<std::streamsize>(size_));
  size_ = 0;
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
  // Chunk c is formatted into slots[c % in_flight], whose text waits
  // there until the caller has written it, and whose memo carries the
  // repeated doubles' text from chunk to chunk. A slot fills a cache
  // line of its own, so no two workers store to one line.
  struct alignas(64) Slot {
    JsonlBuffer out;
  };
  const std::size_t in_flight = 2 * workers;
  std::vector<Slot> slots(in_flight);
  parallel_ordered(
      workers, chunks, in_flight,
      [&](std::size_t c) {
        JsonlBuffer& out = slots[c % in_flight].out;
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
      },
      [&](std::size_t c) { slots[c % in_flight].out.write_to(os); });
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
