#include "json/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include "util/fmt.h"
#include <fstream>
#include <sstream>

namespace elastisim::json {

// ---------------------------------------------------------------------------
// Object
// ---------------------------------------------------------------------------

Value& Object::operator[](const std::string& key) {
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(key, Value());
  return members_.back().second;
}

const Value* Object::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value* Object::find(std::string_view key) {
  for (auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

Value::Type Value::type() const {
  return static_cast<Type>(data_.index());
}

namespace {
[[noreturn]] void type_error(const char* expected, Value::Type actual) {
  static constexpr const char* kNames[] = {"null", "bool", "number", "string", "array", "object"};
  throw std::runtime_error(util::fmt("JSON type mismatch: expected {}, got {}", expected,
                                       kNames[static_cast<int>(actual)]));
}
}  // namespace

bool Value::as_bool() const {
  if (auto* b = std::get_if<bool>(&data_)) return *b;
  type_error("bool", type());
}

double Value::as_double() const {
  if (auto* d = std::get_if<double>(&data_)) return *d;
  type_error("number", type());
}

std::int64_t Value::as_int() const {
  const double d = as_double();
  return static_cast<std::int64_t>(std::llround(d));
}

const std::string& Value::as_string() const {
  if (auto* s = std::get_if<std::string>(&data_)) return *s;
  type_error("string", type());
}

const Array& Value::as_array() const {
  if (auto* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", type());
}

Array& Value::as_array() {
  if (auto* a = std::get_if<Array>(&data_)) return *a;
  type_error("array", type());
}

const Object& Value::as_object() const {
  if (auto* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", type());
}

Object& Value::as_object() {
  if (auto* o = std::get_if<Object>(&data_)) return *o;
  type_error("object", type());
}

bool Value::get_or(bool fallback) const {
  if (auto* b = std::get_if<bool>(&data_)) return *b;
  return fallback;
}

double Value::get_or(double fallback) const {
  if (auto* d = std::get_if<double>(&data_)) return *d;
  return fallback;
}

std::int64_t Value::get_or(std::int64_t fallback) const {
  if (auto* d = std::get_if<double>(&data_)) return static_cast<std::int64_t>(std::llround(*d));
  return fallback;
}

std::string Value::get_or(const std::string& fallback) const {
  if (auto* s = std::get_if<std::string>(&data_)) return *s;
  return fallback;
}

const Value* Value::find(std::string_view key) const {
  if (auto* o = std::get_if<Object>(&data_)) return o->find(key);
  return nullptr;
}

bool Value::operator==(const Value& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case Type::kNull: return true;
    case Type::kBool: return as_bool() == other.as_bool();
    case Type::kNumber: return as_double() == other.as_double();
    case Type::kString: return as_string() == other.as_string();
    case Type::kArray: return as_array() == other.as_array();
    case Type::kObject: {
      const Object& a = as_object();
      const Object& b = other.as_object();
      if (a.size() != b.size()) return false;
      for (const auto& [key, value] : a) {
        const Value* bv = b.find(key);
        // elsim-lint: allow(float-equality) -- deep equality compares numbers exactly
        if (!bv || !(*bv == value)) return false;
      }
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_whitespace();
    Value value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw ParseError(util::fmt("JSON parse error at {}:{}: {}", line, column, message), line,
                     column);
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (advance() != c) {
      --pos_;
      fail(util::fmt("expected '{}'", c));
    }
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(object));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected string key");
      std::string key = parse_string();
      if (object.contains(key)) fail(util::fmt("duplicate key \"{}\"", key));
      skip_whitespace();
      expect(':');
      object[key] = parse_value();
      skip_whitespace();
      const char c = advance();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return Value(std::move(object));
  }

  Value parse_array() {
    expect('[');
    Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = advance();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return Value(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = advance();
      if (c == '"') break;
      if (c == '\\') {
        const char escape = advance();
        switch (escape) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': append_unicode_escape(out); break;
          default: --pos_; fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = advance();
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else {
        --pos_;
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate; must be followed by \uXXXX low surrogate.
      if (!consume_literal("\\u")) fail("unpaired surrogate in \\u escape");
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate in \\u escape");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate in \\u escape");
    }
    // Encode as UTF-8.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      pos_ = start;
      fail("invalid number");
    }
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid number: expected digit after '.'");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid number: expected exponent digits");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    double value = 0.0;
    auto [ptr, ec] = std::from_chars(text_.data() + start, text_.data() + pos_, value);
    (void)ptr;
    if (ec != std::errc{}) fail("number out of range");
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void escape_string_to(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
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
          char escaped[8];
          std::snprintf(escaped, sizeof(escaped), "\\u%04x", static_cast<unsigned char>(c));
          out += escaped;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void number_to(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no Inf/NaN; emit null like most serializers
    return;
  }
  // Integral doubles print without fraction for readability.
  // elsim-lint: allow(float-equality) -- floor() comparison detects integral values
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    out += std::to_string(static_cast<long long>(d));
    return;
  }
  char buffer[64];
  auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), d);
  if (ec == std::errc{}) out.append(buffer, ptr);
}

void dump_to(const Value& value, std::string& out, int indent, int depth) {
  const bool pretty = indent > 0;
  auto newline = [&](int level) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * level), ' ');
  };
  switch (value.type()) {
    case Value::Type::kNull: out += "null"; break;
    case Value::Type::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Value::Type::kNumber: number_to(value.as_double(), out); break;
    case Value::Type::kString: escape_string_to(value.as_string(), out); break;
    case Value::Type::kArray: {
      const Array& array = value.as_array();
      if (array.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i) out.push_back(',');
        newline(depth + 1);
        dump_to(array[i], out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Value::Type::kObject: {
      const Object& object = value.as_object();
      if (object.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : object) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        escape_string_to(key, out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        dump_to(member, out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

const char* type_name(const Value& value) {
  switch (value.type()) {
    case Value::Type::kNull:
      return "null";
    case Value::Type::kBool:
      return "boolean";
    case Value::Type::kNumber:
      return "number";
    case Value::Type::kString:
      return "string";
    case Value::Type::kArray:
      return "array";
    case Value::Type::kObject:
      return "object";
  }
  return "unknown";
}

std::string describe(const Value& value, std::size_t max_chars) {
  std::string out = dump(value);
  if (out.size() > max_chars) {
    out.resize(max_chars);
    out += "...";
  }
  return out;
}

std::string dump(const Value& value) {
  std::string out;
  dump_to(value, out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string dump_pretty(const Value& value) {
  std::string out;
  dump_to(value, out, /*indent=*/2, /*depth=*/0);
  return out;
}

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

Value load_file(const std::string& path) {
  try {
    return parse_file(path);
  } catch (const ParseError& error) {
    throw util::LoadError(path, "$", "valid JSON",
                          util::fmt("parse error at line {} column {}: {}", error.line(),
                                    error.column(), error.what()));
  } catch (const std::exception& error) {
    throw util::LoadError(path, "", "", error.what());
  }
}

void write_file(const std::string& path, const Value& value) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  out << dump_pretty(value) << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace elastisim::json
