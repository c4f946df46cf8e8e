#include "obs/json.hpp"

#include <cstdlib>
#include <stdexcept>

namespace tracon::obs {

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::logic_error("json: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw std::logic_error("json: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw std::logic_error("json: not a string");
  return string_;
}

const std::vector<JsonValuePtr>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) throw std::logic_error("json: not an array");
  return array_;
}

const std::map<std::string, JsonValuePtr>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) throw std::logic_error("json: not an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : it->second.get();
}

namespace {

struct Parser {
  /// Deepest nesting accepted. The tree writes at most a handful of
  /// levels; the bound keeps parse_value's recursion off the stack limit
  /// on hostile input.
  static constexpr int kMaxDepth = 256;

  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;

  [[noreturn]] void fail(const char* what) const {
    throw std::invalid_argument(std::string("json parse error at offset ") +
                                std::to_string(pos) + ": " + what);
  }

  bool at_end() const { return pos >= text.size(); }
  char peek() const { return at_end() ? '\0' : text[pos]; }

  void skip_ws() {
    while (!at_end() && (text[pos] == ' ' || text[pos] == '\t' ||
                         text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  std::string parse_string_body() {
    expect('"');
    std::string out;
    while (true) {
      if (at_end()) fail("unterminated string");
      char c = text[pos++];
      if (c == '"') break;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) fail("unterminated escape");
      char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
    return out;
  }

  JsonValue parse_object() {
    ++pos;
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string_body();
      skip_ws();
      expect(':');
      v.object_[key] = std::make_shared<JsonValue>(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    ++pos;
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos;
      return v;
    }
    while (true) {
      v.array_.push_back(std::make_shared<JsonValue>(parse_value()));
      skip_ws();
      if (peek() == ',') {
        ++pos;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_value() {
    skip_ws();
    if (at_end()) fail("unexpected end of input");
    JsonValue v;
    char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) fail("nesting deeper than 256 levels");
      ++depth;
      v = c == '{' ? parse_object() : parse_array();
      --depth;
      return v;
    }
    if (c == '"') {
      v.kind_ = JsonValue::Kind::kString;
      v.string_ = parse_string_body();
      return v;
    }
    if (consume_literal("true")) {
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind_ = JsonValue::Kind::kBool;
      v.bool_ = false;
      return v;
    }
    if (consume_literal("null")) {
      v.kind_ = JsonValue::Kind::kNull;
      return v;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      // strtod needs a NUL-terminated buffer; copy the number's span.
      std::size_t end = pos;
      while (end < text.size() &&
             (text[end] == '-' || text[end] == '+' || text[end] == '.' ||
              text[end] == 'e' || text[end] == 'E' ||
              (text[end] >= '0' && text[end] <= '9'))) {
        ++end;
      }
      std::string num(text.substr(pos, end - pos));
      char* parse_end = nullptr;
      double parsed = std::strtod(num.c_str(), &parse_end);
      if (parse_end == num.c_str()) fail("malformed number");
      pos += static_cast<std::size_t>(parse_end - num.c_str());
      v.kind_ = JsonValue::Kind::kNumber;
      v.number_ = parsed;
      return v;
    }
    fail("unexpected token");
  }
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  Parser parser{text};
  JsonValue v = parser.parse_value();
  parser.skip_ws();
  if (!parser.at_end()) parser.fail("trailing garbage after document");
  return v;
}

}  // namespace tracon::obs
