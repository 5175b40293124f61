// Tiny command-line flag parser for the example binaries and bench harnesses.
//
// Supports "--name=value", "--name value", and boolean "--name". Positional
// arguments are collected in order. No registration step: callers query by
// name with a default, which keeps example code short.
//
// A numeric getter throws FlagError when the value does not parse in full
// ("--interval abc", "--interval 5x"): a typo never runs with a silent
// default.
//
// Caveat of the registration-free design: "--name token" cannot tell a
// boolean flag from a valued one, so a bare "--flag path" swallows the path
// as the flag's value. Callers mixing boolean flags with positional
// arguments should pass the boolean names via `boolean_flags`; those never
// consume the next token.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace elastisim::util {

/// A malformed flag value. what() reads "--<name>: expected <expected>, got
/// \"<value>\"".
class FlagError : public std::runtime_error {
 public:
  FlagError(const std::string& name, const std::string& value, const std::string& expected);
};

/// The name in `known` closest to `name`: within 2 edits, or 3 for names of
/// 8+ characters, so "schedular" finds "scheduler" and "frobnicate" nothing
/// ("" then). Used for unknown flags and unknown JSON keys alike.
std::string closest_name(std::string_view name, const std::set<std::string, std::less<>>& known);

class Flags {
 public:
  Flags(int argc, const char* const* argv);
  /// Names in `boolean_flags` are presence-only: "--quiet src" keeps "src"
  /// positional instead of parsing it as the value of --quiet.
  Flags(int argc, const char* const* argv, const std::set<std::string>& boolean_flags);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  double get(const std::string& name, double fallback) const;
  std::int64_t get(const std::string& name, std::int64_t fallback) const;
  /// An integer in [min, max]: a value outside it throws FlagError ("an
  /// integer in [min, max]") instead of wrapping in a narrower type.
  std::int64_t get(const std::string& name, std::int64_t fallback, std::int64_t min,
                   std::int64_t max) const;
  bool get(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Names seen on the command line but never queried; useful for catching
  /// typos in example invocations.
  std::vector<std::string> unused() const;

  /// Flags given more than once on the command line (the last value wins);
  /// in command-line order, deduplicated. CLIs warn on these.
  const std::vector<std::string>& duplicates() const { return duplicates_; }

  /// Marks `names` as known without reading them, so flags that are only
  /// queried on some code paths (e.g. --swf-* in the SWF branch) never show
  /// up as "unknown" on the paths that skip them.
  void note_known(std::initializer_list<const char*> names) const;

  /// Unknown flag diagnosis: each unused flag paired with closest_name()
  /// among the known (queried or noted) names. Call after all get()/has()
  /// queries.
  std::vector<std::pair<std::string, std::string>> unknown_with_suggestions() const;

  /// Prints "error: unknown flag --x (did you mean --y?)" to stderr for each
  /// unknown flag; returns whether there was one.
  bool report_unknown() const;

  /// Levenshtein distance; exposed for tests.
  static std::size_t edit_distance(std::string_view a, std::string_view b);

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string, std::less<>> queried_;
  std::vector<std::string> positional_;
  std::vector<std::string> duplicates_;
};

}  // namespace elastisim::util
