// Strict reading of user input files: the platform, workload, sweep spec and
// failure trace loaders read every member through a json::Reader.
//
// A Reader wraps one JSON object and its path ("$.jobs[3].application").
// Each getter reads one member, checks its type, integrality and range, and
// throws util::LoadError at "<path>.<key>" when the member is malformed. An
// absent member takes the getter's fallback; a std::nullopt fallback makes
// the member required. The reader records every key a getter asked for, and
// finish() rejects any other member, naming the closest known key. There is
// no lenient mode: a typo or a wrong type never runs on a default.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <type_traits>

#include "json/json.h"

namespace elastisim::json {

/// Integers are read within +-(2^53 - 1), where a JSON number is the literal
/// written (the I-JSON safe range, RFC 7493).
inline constexpr std::int64_t kMaxSafeInteger = (std::int64_t{1} << 53) - 1;

/// A util/units.h parser: "2GF", "64MiB", "12.5GBps", "90s".
using UnitParser = std::optional<double> (*)(std::string_view);

/// The lower bound of a quantity: zero included, or excluded.
enum class Min { kZero, kAboveZero };

/// An array entry and its JSON path ("$.jobs[3]").
struct Element {
  const Value& value;
  std::string path;
};

/// The entries of `value`, which must be an array (`expected` otherwise).
std::vector<Element> elements(const Value& value, const std::string& path,
                              std::string_view expected);

/// An integral number in [min, max] and within +-kMaxSafeInteger. The error
/// names the bounds, as "a positive <noun>" or "a non-negative <noun> below
/// 2^53".
std::int64_t read_integer(const Value& value, const std::string& path, std::int64_t min,
                          std::int64_t max, std::string_view noun = "integer");

class Reader {
 public:
  /// `value`, found at `path`, must be an object (`what` otherwise).
  Reader(const Value& value, std::string path, std::string_view what = "an object");

  /// read_integer() over the range of T from `min` up.
  template <typename T>
  T integer(std::string_view key, std::type_identity_t<std::optional<T>> fallback,
            std::type_identity_t<T> min = std::numeric_limits<T>::min(),
            std::string_view noun = "integer") {
    const auto max = std::min<std::uint64_t>(std::numeric_limits<T>::max(), kMaxSafeInteger);
    return static_cast<T>(read_int(key, fallback, min, static_cast<std::int64_t>(max), noun));
  }
  double number(std::string_view key, std::optional<double> fallback);
  /// A number, or a string `parser` accepts; finite and no smaller than
  /// `bound` allows.
  double quantity(std::string_view key, std::optional<double> fallback, UnitParser parser,
                  Min bound);
  bool boolean(std::string_view key, std::optional<bool> fallback);
  std::string string(std::string_view key, std::optional<std::string> fallback);
  /// A name `from_string` accepts.
  template <typename T>
  T choice(std::string_view key, std::type_identity_t<std::optional<T>> fallback,
           std::optional<T> (*from_string)(std::string_view), std::string_view expected) {
    return read<T>(key, fallback, expected, [from_string](const Value& member) {
      return member.is_string() ? from_string(member.as_string()) : std::nullopt;
    });
  }

  /// The object member `key`, or nullopt when it is absent.
  std::optional<Reader> find(std::string_view key, std::string_view what = "an object");
  /// The entries of the array member `key`; an absent one has none, unless
  /// `required`.
  std::vector<Element> array(std::string_view key, std::string_view expected, bool required);

  /// Throws at the first member no getter asked for.
  void finish() const;
  /// Throws at member `key`, describing its value or "nothing".
  [[noreturn]] void fail(std::string_view key, std::string_view expected) const;

 private:
  std::int64_t read_int(std::string_view key, std::optional<std::int64_t> fallback,
                        std::int64_t min, std::int64_t max, std::string_view noun);
  const Value* take(std::string_view key);
  std::string path_of(std::string_view key) const;

  template <typename T, typename Get>
  T read(std::string_view key, std::optional<T> fallback, std::string_view expected, Get get) {
    const Value* member = take(key);
    if (member == nullptr && fallback) return *std::move(fallback);
    if (member != nullptr) {
      if (std::optional<T> value = get(*member)) return *std::move(value);
    }
    fail(key, expected);
  }

  const Value& value_;
  std::string path_;
  std::set<std::string, std::less<>> asked_;
};

}  // namespace elastisim::json
