#include "obs/jsonl.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace tracon::obs {

std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
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
  return out;
}

std::string json_number(double value) {
  char buf[32];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

void JsonLineWriter::key(std::string_view k) {
  if (!first_) body_ += ", ";
  first_ = false;
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\": ";
}

JsonLineWriter& JsonLineWriter::field(std::string_view k,
                                      std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonLineWriter& JsonLineWriter::field(std::string_view k, const char* value) {
  return field(k, std::string_view(value));
}

JsonLineWriter& JsonLineWriter::field(std::string_view k, double value) {
  key(k);
  // Shortest round-trip representation (std::to_chars default): the
  // parsed double is bit-identical to `value`, which is what lets a
  // replayed trace reproduce its recording exactly — %.10g would
  // quantize arrival times and quietly fork the two simulations.
  char buf[32];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  body_.append(buf, result.ptr);
  return *this;
}

JsonLineWriter& JsonLineWriter::field(std::string_view k,
                                      std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonLineWriter& JsonLineWriter::field(std::string_view k, int value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonLineWriter& JsonLineWriter::raw_field(std::string_view k,
                                          std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

std::string JsonLineWriter::str() const { return body_ + "}"; }

// TRACON_ANALYZE_ALLOW(require-guard): any stream will do; its writer
// checks the stream state once the log is written.
JsonlBuffer::JsonlBuffer(std::ostream& os) : os_(os) {
  // One block plus room for the line that crosses it.
  text_.reserve(kBlockBytes + kBlockBytes / 8);
}

JsonlBuffer& JsonlBuffer::number(double value) {
  char buf[32];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  text_.append(buf, result.ptr);
  return *this;
}

JsonlBuffer& JsonlBuffer::integer(std::uint64_t value) {
  char buf[24];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  text_.append(buf, result.ptr);
  return *this;
}

void JsonlBuffer::flush() {
  os_.write(text_.data(), static_cast<std::streamsize>(text_.size()));
  text_.clear();
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

std::uint64_t count_field(const JsonValue& obj, std::string_view key,
                          std::string_view what) {
  const double x = double_field(obj, key, what);
  // 2^64 is the first double out of range; NaN fails every comparison.
  if (!(x >= 0.0 && x < 18446744073709551616.0 && x == std::floor(x))) {
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
