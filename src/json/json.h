// Dependency-free JSON value model, parser, and serializer (RFC 8259).
//
// Used for platform descriptions, workload files, and experiment output.
// The parser reports errors with line/column positions; numbers are stored
// as doubles (sufficient for simulator quantities). Object member order is
// preserved to keep serialized files diff-friendly.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/load_error.h"

namespace elastisim::json {

class Value;

using Array = std::vector<Value>;

/// Insertion-ordered object: linear member list plus no duplicate keys.
class Object {
 public:
  Value& operator[](const std::string& key);
  const Value* find(std::string_view key) const;
  Value* find(std::string_view key);
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  auto begin() const { return members_.begin(); }
  auto end() const { return members_.end(); }
  auto begin() { return members_.begin(); }
  auto end() { return members_.end(); }

 private:
  std::vector<std::pair<std::string, Value>> members_;
};

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}
  Value(bool b) : data_(b) {}
  Value(double d) : data_(d) {}
  Value(int i) : data_(static_cast<double>(i)) {}
  Value(std::int64_t i) : data_(static_cast<double>(i)) {}
  Value(std::size_t i) : data_(static_cast<double>(i)) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(Array a) : data_(std::move(a)) {}
  Value(Object o) : data_(std::move(o)) {}

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Lenient accessors with fallback; never throw.
  bool get_or(bool fallback) const;
  double get_or(double fallback) const;
  std::int64_t get_or(std::int64_t fallback) const;
  std::string get_or(const std::string& fallback) const;

  /// Object member lookup ("" semantics): returns nullptr when this value is
  /// not an object or the key is absent.
  const Value* find(std::string_view key) const;

  /// Object member with fallback, e.g. v.member_or("cores", 1).
  template <typename T>
  T member_or(std::string_view key, T fallback) const {
    const Value* member = find(key);
    return member ? member->get_or(fallback) : fallback;
  }
  std::string member_or(std::string_view key, const char* fallback) const {
    const Value* member = find(key);
    return member ? member->get_or(std::string(fallback)) : std::string(fallback);
  }

  bool operator==(const Value& other) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Thrown by parse() on malformed input; message contains line/column.
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, std::size_t line, std::size_t column)
      : std::runtime_error(message), line_(line), column_(column) {}
  std::size_t line() const { return line_; }
  std::size_t column() const { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// Human-readable name of a value's type ("object", "array", "number", ...);
/// for "expected X, found Y" diagnostics.
const char* type_name(const Value& value);

/// Compact one-line rendering of `value` for diagnostics, truncated with an
/// ellipsis past `max_chars`.
std::string describe(const Value& value, std::size_t max_chars = 40);

/// Parses a complete JSON document. Trailing non-whitespace is an error.
Value parse(std::string_view text);

/// Serializes compactly (no whitespace).
std::string dump(const Value& value);

/// Serializes with two-space indentation.
std::string dump_pretty(const Value& value);

/// Reads and parses a file; throws std::runtime_error if unreadable.
Value parse_file(const std::string& path);

/// Reads a user input file and hands it to `parse`. An unreadable file, a
/// syntax error and a util::LoadError from `parse` all surface as a
/// util::LoadError naming the file.
Value load_file(const std::string& path);
template <typename Parse>
auto load_file(const std::string& path, Parse&& parse) {
  const Value value = load_file(path);
  try {
    return parse(value);
  } catch (const util::LoadError& error) {
    throw error.with_file(path);
  }
}

/// Writes value to a file (pretty-printed); throws on I/O failure.
void write_file(const std::string& path, const Value& value);

}  // namespace elastisim::json
