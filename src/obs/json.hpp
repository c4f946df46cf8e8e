// Minimal JSON reader used by every reader of the tracon exports (the
// JSONL logs through obs::read_jsonl, the metrics and trace documents
// whole) to parse back what they write. Supports the full JSON grammar we
// emit (objects, arrays, strings with standard escapes, numbers, bools,
// null); it is NOT a general-purpose parser — no streaming, no \u
// surrogate pairs beyond the BMP, whole document held in memory.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace tracon::obs {

class JsonValue;
using JsonValuePtr = std::shared_ptr<JsonValue>;

/// Parsed JSON node. Objects preserve key lookup via a map (duplicate
/// keys keep the last occurrence, matching common parser behaviour).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::logic_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValuePtr>& as_array() const;
  const std::map<std::string, JsonValuePtr>& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValuePtr> array_;
  std::map<std::string, JsonValuePtr> object_;
};

/// Parses a complete JSON document; throws std::invalid_argument on
/// malformed input or trailing garbage.
JsonValue parse_json(std::string_view text);

}  // namespace tracon::obs
