#include "stats/profiler.h"

#include <cassert>

#include "stats/telemetry.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace elastisim::stats::profiler {

namespace {

using detail::tick_now;

constexpr const char* kPhaseNames[kPhaseCount] = {
    "setup",           // kSetup
    "engine.dispatch", // kEngineDispatch
    "fluid.settle",    // kFluidSettle
    "fluid.solve",     // kFluidSolve
    "scheduler",       // kScheduler
    "sinks",           // kSinks
    "fault",           // kFault
    "output",          // kOutput
};

}  // namespace

const char* phase_name(Phase phase) noexcept {
  const int index = static_cast<int>(phase);
  assert(index >= 0 && index < kPhaseCount);
  return kPhaseNames[index];
}

void set_enabled(bool on) noexcept {
#if defined(ELSIM_NO_PROFILER)
  (void)on;
#else
  // Enabling always resets, even when already on: callers use
  // set_enabled(true) as "start a fresh profiled window" (bench cells do).
  if (on) Profiler::global().reset();
  detail::g_enabled = on;
#endif
}

std::uint64_t peak_rss_bytes() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

json::Value build_info_json() {
  json::Object build;
#if defined(__clang__)
  build["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  build["compiler"] = std::string("gcc ") + std::to_string(__GNUC__) + "." +
                      std::to_string(__GNUC_MINOR__) + "." +
                      std::to_string(__GNUC_PATCHLEVEL__);
#else
  build["compiler"] = "unknown";
#endif
#if defined(ELSIM_BUILD_TYPE)
  build["build_type"] = ELSIM_BUILD_TYPE;
#else
  build["build_type"] = "unknown";
#endif
#if defined(ELSIM_CXX_FLAGS)
  build["flags"] = ELSIM_CXX_FLAGS;
#else
  build["flags"] = "";
#endif
#if defined(NDEBUG)
  build["assertions"] = false;
#else
  build["assertions"] = true;
#endif
#if defined(ELSIM_SANITIZERS)
  build["sanitizers"] = true;
#else
  build["sanitizers"] = false;
#endif
  build["profiler_compiled"] = compiled();
  return json::Value(std::move(build));
}

double Profiler::ticks_per_second() const noexcept {
  const double wall = telemetry::wall_now() - window_start_wall_;
  const double ticks = static_cast<double>(tick_now() - window_start_ticks_);
  // Sub-microsecond windows cannot calibrate; report raw ticks as if they
  // were nanoseconds rather than divide by noise.
  if (wall <= 1e-6 || ticks <= 0.0) return 1e9;
  return ticks / wall;
}

PhaseStats Profiler::stats(Phase phase) const noexcept {
  const TickStats& ticks = stats_[static_cast<std::size_t>(phase)];
  const double scale = 1.0 / ticks_per_second();
  return PhaseStats{ticks.calls, ticks.inclusive_t * scale, ticks.exclusive_t * scale};
}

void Profiler::set_counter(const std::string& name, std::uint64_t value) {
  for (auto& [existing, slot] : counters_) {
    if (existing == name) {
      slot = value;
      return;
    }
  }
  counters_.emplace_back(name, value);
}

void Profiler::reset() noexcept {
  stats_ = {};
  depth_ = {};
  parent_t_ = {};
  stack_.clear();
  counters_.clear();
  window_start_wall_ = telemetry::wall_now();
  window_start_ticks_ = tick_now();
}

double Profiler::window_s() const noexcept { return telemetry::wall_now() - window_start_wall_; }

json::Value Profiler::report() const {
  json::Object out;
  out["schema"] = "elastisim-profile-v1";
  out["build"] = build_info_json();
  out["wall_s"] = window_s();
  out["peak_rss_bytes"] = static_cast<std::int64_t>(peak_rss_bytes());

  json::Object counters;
  for (const auto& [name, value] : counters_) {
    counters[name] = static_cast<std::int64_t>(value);
  }
  out["counters"] = std::move(counters);

  // Every phase appears, zero-call ones included, in enum order: the row set
  // and key order are part of the schema contract (cli_determinism_smoke
  // asserts key-order stability). One calibration for the whole report keeps
  // the rows mutually consistent.
  const double scale = 1.0 / ticks_per_second();
  json::Array phases;
  for (int p = 0; p < kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    const TickStats& ticks = stats_[static_cast<std::size_t>(p)];
    json::Object entry;
    entry["name"] = phase_name(phase);
    entry["calls"] = static_cast<std::int64_t>(ticks.calls);
    entry["inclusive_s"] = ticks.inclusive_t * scale;
    entry["exclusive_s"] = ticks.exclusive_t * scale;
    json::Object parents;
    const double root_edge = parent_t_[static_cast<std::size_t>(p)][kPhaseCount] * scale;
    if (root_edge > 0.0) parents["<root>"] = root_edge;
    for (int q = 0; q < kPhaseCount; ++q) {
      const double edge =
          parent_t_[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)] * scale;
      if (edge > 0.0) parents[phase_name(static_cast<Phase>(q))] = edge;
    }
    entry["parents"] = std::move(parents);
    phases.push_back(json::Value(std::move(entry)));
  }
  out["phases"] = std::move(phases);
  return json::Value(std::move(out));
}

Profiler& Profiler::global() noexcept {
  // elsim-lint: allow(mutable-static) -- intentional process-wide singleton; Profiler serialises access internally
  static Profiler profiler;
  return profiler;
}

}  // namespace elastisim::stats::profiler
