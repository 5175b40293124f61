#include "json/reader.h"

#include <cmath>

#include "util/flags.h"
#include "util/fmt.h"
#include "util/load_error.h"
#include "util/units.h"

namespace elastisim::json {

namespace {

/// "a positive integer", "a non-negative integer below 2^53", ...: the
/// bounds a value `number` (NaN when it is none) violates or must meet.
std::string integer_expected(std::int64_t low, std::int64_t high, double number,
                             std::string_view noun) {
  std::string text =
      util::fmt("{} {}", low == 0 ? "a non-negative" : low == 1 ? "a positive" : "an", noun);
  if (low > 1 || (low < 0 && number < static_cast<double>(low))) {
    text += util::fmt(" no smaller than {}", low);
  }
  if (number > static_cast<double>(high)) {
    text += high == kMaxSafeInteger ? " below 2^53" : util::fmt(" no greater than {}", high);
  }
  return text;
}

}  // namespace

std::vector<Element> elements(const Value& value, const std::string& path,
                              std::string_view expected) {
  if (!value.is_array()) throw util::LoadError("", path, std::string(expected), describe(value));
  std::vector<Element> out;
  const Array& entries = value.as_array();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out.push_back({entries[i], util::fmt("{}[{}]", path, i)});
  }
  return out;
}

std::int64_t read_integer(const Value& value, const std::string& path, std::int64_t min,
                          std::int64_t max, std::string_view noun) {
  min = std::max(min, -kMaxSafeInteger);
  max = std::min(max, kMaxSafeInteger);
  const double number = value.is_number() ? value.as_double() : std::nan("");
  // elsim-lint: allow(float-equality) -- an integrality test wants exactness
  const bool integral = number == std::floor(number);
  if (!(integral && number >= static_cast<double>(min) && number <= static_cast<double>(max))) {
    throw util::LoadError("", path, integer_expected(min, max, number, noun), describe(value));
  }
  return static_cast<std::int64_t>(number);
}

Reader::Reader(const Value& value, std::string path, std::string_view what)
    : value_(value), path_(std::move(path)) {
  if (!value.is_object()) throw util::LoadError("", path_, std::string(what), describe(value));
}

std::int64_t Reader::read_int(std::string_view key, std::optional<std::int64_t> fallback,
                              std::int64_t min, std::int64_t max, std::string_view noun) {
  const Value* member = take(key);
  if (member != nullptr) return read_integer(*member, path_of(key), min, max, noun);
  if (!fallback) fail(key, integer_expected(min, max, std::nan(""), noun));
  return *fallback;
}

double Reader::number(std::string_view key, std::optional<double> fallback) {
  return read<double>(key, fallback, "a number", [](const Value& member) {
    return member.is_number() ? std::optional(member.as_double()) : std::nullopt;
  });
}

double Reader::quantity(std::string_view key, std::optional<double> fallback,
                        UnitParser parser, Min bound) {
  const bool zero_ok = bound == Min::kZero;
  const char* noun = parser == util::parse_duration    ? "duration"
                     : parser == util::parse_bandwidth ? "bandwidth"
                     : parser == util::parse_bytes     ? "byte count"
                                                       : "FLOP quantity";
  const std::string expected = util::fmt("a {} {}", zero_ok ? "non-negative" : "positive", noun);
  return read<double>(key, fallback, expected, [&](const Value& member) {
    const std::optional<double> value = member.is_number()   ? member.as_double()
                                        : member.is_string() ? parser(member.as_string())
                                                             : std::nullopt;
    const bool in_range =
        value && std::isfinite(*value) && (*value > 0.0 || (zero_ok && *value >= 0.0));
    return in_range ? value : std::nullopt;
  });
}

bool Reader::boolean(std::string_view key, std::optional<bool> fallback) {
  return read<bool>(key, fallback, "true or false", [](const Value& member) {
    return member.is_bool() ? std::optional(member.as_bool()) : std::nullopt;
  });
}

std::string Reader::string(std::string_view key, std::optional<std::string> fallback) {
  return read<std::string>(key, std::move(fallback), "a string", [](const Value& member) {
    return member.is_string() ? std::optional(member.as_string()) : std::nullopt;
  });
}

std::optional<Reader> Reader::find(std::string_view key, std::string_view what) {
  const Value* member = take(key);
  if (member == nullptr) return std::nullopt;
  return Reader(*member, path_of(key), what);
}

std::vector<Element> Reader::array(std::string_view key, std::string_view expected,
                                   bool required) {
  const Value* member = take(key);
  if (member != nullptr) return elements(*member, path_of(key), expected);
  if (required) fail(key, expected);
  return {};
}

void Reader::finish() const {
  for (const auto& [key, member] : value_.as_object()) {
    if (asked_.count(key) != 0) continue;
    const std::string near = util::closest_name(key, asked_);
    const std::string hint = near.empty() ? "" : util::fmt(" (did you mean \"{}\"?)", near);
    throw util::LoadError("", path_of(key), "a known key", util::fmt("\"{}\"{}", key, hint));
  }
}

void Reader::fail(std::string_view key, std::string_view expected) const {
  const Value* member = value_.find(key);
  throw util::LoadError("", path_of(key), std::string(expected),
                        member != nullptr ? describe(*member) : "nothing");
}

const Value* Reader::take(std::string_view key) {
  asked_.emplace(key);
  return value_.find(key);
}

std::string Reader::path_of(std::string_view key) const { return util::fmt("{}.{}", path_, key); }

}  // namespace elastisim::json
