#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace elastisim::util {

namespace {

template <typename T>
T parse_in_full(const std::string& name, const std::string& value, const char* expected) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) throw FlagError(name, value, expected);
  return out;
}

}  // namespace

FlagError::FlagError(const std::string& name, const std::string& value,
                     const std::string& expected)
    : std::runtime_error("--" + name + ": expected " + expected + ", got \"" + value + "\"") {}

Flags::Flags(int argc, const char* const* argv) : Flags(argc, argv, {}) {}

Flags::Flags(int argc, const char* const* argv, const std::set<std::string>& boolean_flags) {
  if (argc > 0) program_ = argv[0];
  const auto record = [this](std::string name, std::string value) {
    if (values_.count(name) != 0 &&
        std::find(duplicates_.begin(), duplicates_.end(), name) == duplicates_.end()) {
      duplicates_.push_back(name);
    }
    values_[std::move(name)] = std::move(value);
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      record(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (boolean_flags.count(arg) == 0 && i + 1 < argc &&
               std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      record(std::move(arg), argv[++i]);
    } else {
      record(std::move(arg), "true");
    }
  }
}

bool Flags::has(const std::string& name) const {
  queried_.insert(name);
  return values_.count(name) > 0;
}

std::optional<std::string> Flags::raw(const std::string& name) const {
  queried_.insert(name);
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  return raw(name).value_or(fallback);
}

double Flags::get(const std::string& name, double fallback) const {
  const auto value = raw(name);
  return value ? parse_in_full<double>(name, *value, "a number") : fallback;
}

std::int64_t Flags::get(const std::string& name, std::int64_t fallback) const {
  const auto value = raw(name);
  return value ? parse_in_full<std::int64_t>(name, *value, "an integer") : fallback;
}

std::int64_t Flags::get(const std::string& name, std::int64_t fallback, std::int64_t min,
                        std::int64_t max) const {
  const auto value = raw(name);
  if (!value) return fallback;
  const std::string expected =
      "an integer in [" + std::to_string(min) + ", " + std::to_string(max) + "]";
  const auto parsed = parse_in_full<std::int64_t>(name, *value, expected.c_str());
  if (parsed < min || parsed > max) throw FlagError(name, *value, expected);
  return parsed;
}

bool Flags::get(const std::string& name, bool fallback) const {
  auto value = raw(name);
  if (!value) return fallback;
  return *value == "true" || *value == "1" || *value == "yes" || *value == "on";
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : values_) {
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

void Flags::note_known(std::initializer_list<const char*> names) const {
  queried_.insert(names.begin(), names.end());
}

std::size_t Flags::edit_distance(std::string_view a, std::string_view b) {
  // Classic two-row Levenshtein; flag names are short, so O(|a||b|) is fine.
  std::vector<std::size_t> previous(b.size() + 1);
  std::vector<std::size_t> current(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) previous[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    current[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      // elsim-lint: allow(float-equality) -- char comparison
      const std::size_t substitution = previous[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      current[j] = std::min({previous[j] + 1, current[j - 1] + 1, substitution});
    }
    std::swap(previous, current);
  }
  return previous[b.size()];
}

std::string closest_name(std::string_view name, const std::set<std::string, std::less<>>& known) {
  std::string best;
  std::size_t best_distance = name.size() >= 8 ? 3 : 2;
  for (const std::string& candidate : known) {
    const std::size_t distance = Flags::edit_distance(name, candidate);
    if (distance <= best_distance && (best.empty() || distance < best_distance)) {
      best = candidate;
      best_distance = distance;
    }
  }
  return best;
}

std::vector<std::pair<std::string, std::string>> Flags::unknown_with_suggestions() const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& name : unused()) out.emplace_back(name, closest_name(name, queried_));
  return out;
}

bool Flags::report_unknown() const {
  const auto unknown = unknown_with_suggestions();
  for (const auto& [name, suggestion] : unknown) {
    const std::string hint = suggestion.empty() ? "" : " (did you mean --" + suggestion + "?)";
    std::fprintf(stderr, "error: unknown flag --%s%s\n", name.c_str(), hint.c_str());
  }
  return !unknown.empty();
}

}  // namespace elastisim::util
