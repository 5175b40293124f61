// Self-profiler: hierarchical phase accounting for the simulator's own wall
// time, the yardstick the hot-path performance work is measured against.
//
// Unlike the telemetry registry (free-form named metrics, sampled timelines),
// the profiler is a fixed taxonomy: a closed enum of phases (setup, event
// dispatch, fluid settles/solves, scheduler invocations, sink writes,
// fault-injector paths, artifact output) accumulated into flat arrays, so the
// enabled cost is two clock reads and a handful of array stores per scope and
// the report schema is byte-stable across runs (fixed key order, fixed row
// set). A runtime stack attributes nested scopes to their parent, yielding
// exclusive (self) time per phase alongside inclusive time and call counts.
//
// Collection follows the telemetry pattern: a process-wide enabled flag, off
// by default, one predictable branch per site when off. For a measured-zero
// disabled path, configure with -DELSIM_NO_PROFILER=ON: every ELSIM_PROFILE_*
// macro compiles to nothing and the profiler cannot be enabled at runtime.
//
// Enabled scopes are kept cheap by accumulating raw timestamp-counter ticks
// (rdtsc on x86, steady_clock nanoseconds elsewhere) and deferring the
// ticks-to-seconds conversion to query time, where the tick rate is
// calibrated against the wall clock over the whole profiled window.
//
// Single-threaded, like the simulator. Enable via `elastisim --profile
// <file.json>`, the ELSIM_PROFILE environment variable, or set_enabled(true)
// from code (see docs/OBSERVABILITY.md).
#pragma once

#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "json/json.h"

namespace elastisim::stats::profiler {

/// The closed phase taxonomy. Order here is report order; phase_name() must
/// stay in sync. Adding a phase is an output-schema change — document it in
/// docs/FORMATS.md.
enum class Phase : int {
  /// Input parsing, workload generation, failure-schedule drawing, and job
  /// submission — everything before the event loop starts.
  kSetup = 0,
  /// One event-queue pop plus the event callback it dispatches. Covers the
  /// whole engine loop; the phases below nest inside it.
  kEngineDispatch,
  /// Accruing activity progress to the current instant (FluidModel::settle).
  /// Reserved: settle is currently unscoped (too hot for the attribution to
  /// pay for itself) and bills to its enclosing phase.
  kFluidSettle,
  /// A bounded max-min-fairness solve: rate recomputation plus completion
  /// rescheduling (FluidModel::rebalance).
  kFluidSolve,
  /// Scheduler::schedule rounds inside one scheduling point, for whichever
  /// policy is installed (the policy name is a report counter).
  kScheduler,
  /// Per-scheduling-point sink work: journal commit, state sample, Chrome
  /// counter tracks.
  kSinks,
  /// Failure/repair/drain handlers in the batch system (the fault-injector
  /// paths), excluding the scheduler invocations they trigger.
  kFault,
  /// End-of-run artifact writes (jobs.csv, summary.json, trace.csv, ...).
  kOutput,
  kCount,
};

inline constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

/// Stable display/report name ("engine.dispatch", "fluid.solve", ...).
const char* phase_name(Phase phase) noexcept;

struct PhaseStats {
  std::uint64_t calls = 0;
  /// Wall seconds from scope begin to end, children included. Recursive
  /// nesting of the same phase counts the outermost scope only.
  double inclusive_s = 0.0;
  /// Wall seconds spent in the phase itself, child phases excluded. Exclusive
  /// times of all phases sum to the total profiled wall time actually covered
  /// by scopes.
  double exclusive_s = 0.0;
};

namespace detail {
// elsim-lint: allow(mutable-static) -- toggled once at process start before engines run; an atomic here would tax every profiling probe
inline bool g_enabled = false;

/// The hot-path clock: raw timestamp-counter ticks, roughly 3x cheaper than
/// a steady_clock read on x86. The tick rate is unknown here; queries
/// calibrate it against the wall clock over the profiled window (invariant
/// TSCs on anything modern make this accurate to well under a percent).
inline std::uint64_t tick_now() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Thread-local phase-transition tap, independent of the aggregating
/// profiler above: fires on every ScopedPhase enter/exit even while the
/// profiler is disabled, so an observer (the core::FlightRecorder) can keep
/// a running phase stack without stats/ depending on core/. Raw function
/// pointer + context, one predictable branch per scope when unset.
using PhaseHook = void (*)(void* ctx, Phase phase, bool enter);
inline thread_local PhaseHook t_phase_hook = nullptr;
inline thread_local void* t_phase_ctx = nullptr;
}  // namespace detail

/// Installs (or, with nullptr, removes) this thread's phase-transition tap.
/// Returns the previous hook/context pair so callers can restore nesting.
inline std::pair<detail::PhaseHook, void*> set_phase_hook(detail::PhaseHook hook,
                                                          void* ctx) noexcept {
  const std::pair<detail::PhaseHook, void*> previous{detail::t_phase_hook,
                                                     detail::t_phase_ctx};
  detail::t_phase_hook = hook;
  detail::t_phase_ctx = ctx;
  return previous;
}

#if defined(ELSIM_NO_PROFILER)
inline constexpr bool compiled() noexcept { return false; }
inline constexpr bool enabled() noexcept { return false; }
#else
/// False when the build compiled the profiler out (-DELSIM_NO_PROFILER=ON).
inline constexpr bool compiled() noexcept { return true; }
/// Process-wide collection switch; scopes test it before touching the clock.
inline bool enabled() noexcept { return detail::g_enabled; }
#endif

/// Enables/disables collection. Enabling resets the accumulated stats and
/// starts the profiled window (report() totals are measured from here).
/// No-op in an ELSIM_NO_PROFILER build.
void set_enabled(bool on) noexcept;

/// Peak resident-set size of this process in bytes (getrusage; 0 where
/// unsupported). Always available, profiler enabled or not.
std::uint64_t peak_rss_bytes() noexcept;

/// Build provenance embedded in profile.json and BENCH_perf.json so
/// trajectory points are comparable across machines: compiler id/version,
/// optimization-relevant flags, build type, and whether telemetry collection
/// was live. Key order is fixed.
json::Value build_info_json();

class Profiler {
 public:
  // begin/end are the per-scope hot path; defined inline below so enabled
  // scopes cost two tick reads plus a handful of array stores, no calls.
  void begin(Phase phase) noexcept;
  void end(Phase phase) noexcept;

  /// Sets a named report counter (events processed, queue pushes, activities
  /// touched, ...). Counters appear in profile.json in first-set order;
  /// setting an existing name overwrites in place, keeping order stable.
  void set_counter(const std::string& name, std::uint64_t value);

  /// Accumulated stats for one phase, ticks converted to wall seconds with
  /// the current window calibration (hence by value, not by reference).
  PhaseStats stats(Phase phase) const noexcept;

  const std::vector<std::pair<std::string, std::uint64_t>>& counters() const noexcept {
    return counters_;
  }

  /// Drops all accumulated stats and counters and restarts the profiled
  /// window at the current instant.
  void reset() noexcept;

  /// Wall seconds since the last reset() / set_enabled(true).
  double window_s() const noexcept;

  /// The deterministic-schema profile report (docs/FORMATS.md):
  ///   {"schema", "build", "wall_s", "peak_rss_bytes", "counters",
  ///    "phases": [{"name", "calls", "inclusive_s", "exclusive_s",
  ///                "parents": {...}}, ...]}
  /// Key order and the phase row set are fixed; only values vary run to run.
  json::Value report() const;

  /// The process-wide instance all ELSIM_PROFILE_* scopes record into.
  static Profiler& global() noexcept;

 private:
  /// Per-phase accumulators in raw ticks; converted to seconds at query time
  /// so the hot path never touches floating-point clock conversions.
  struct TickStats {
    std::uint64_t calls = 0;
    double inclusive_t = 0.0;
    double exclusive_t = 0.0;
  };

  struct Frame {
    Phase phase;
    std::uint64_t start_ticks;
    /// Ticks consumed by directly nested scopes (subtracted from this
    /// frame's elapsed ticks to get its exclusive share).
    double child_t;
  };

  /// Ticks-per-second calibration for the current window: raw tick delta
  /// over wall-clock delta since the last reset().
  double ticks_per_second() const noexcept;

  std::array<TickStats, kPhaseCount> stats_{};
  /// Per-phase live nesting depth; inclusive time counts outermost scopes
  /// only, so recursion cannot double-bill.
  std::array<std::uint32_t, kPhaseCount> depth_{};
  /// parent_t_[child][parent] in ticks; index kPhaseCount = "no enclosing
  /// scope".
  std::array<std::array<double, kPhaseCount + 1>, kPhaseCount> parent_t_{};
  std::vector<Frame> stack_;
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  double window_start_wall_ = 0.0;
  std::uint64_t window_start_ticks_ = 0;
};

inline void Profiler::begin(Phase phase) noexcept {
  stack_.push_back(Frame{phase, detail::tick_now(), 0.0});
  ++depth_[static_cast<std::size_t>(phase)];
}

inline void Profiler::end(Phase phase) noexcept {
  // elsim-lint: allow(float-equality) -- enum comparison, not floating point
  assert(!stack_.empty() && stack_.back().phase == phase && "unbalanced profiler scope");
  if (stack_.empty()) return;
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double elapsed = static_cast<double>(detail::tick_now() - frame.start_ticks);
  const auto index = static_cast<std::size_t>(phase);
  TickStats& stats = stats_[index];
  ++stats.calls;
  stats.exclusive_t += elapsed - frame.child_t;
  // Inclusive time bills the outermost scope only, so same-phase recursion
  // cannot count the same wall seconds twice.
  if (--depth_[index] == 0) stats.inclusive_t += elapsed;
  if (stack_.empty()) {
    parent_t_[index][kPhaseCount] += elapsed;
  } else {
    stack_.back().child_t += elapsed;
    parent_t_[index][static_cast<std::size_t>(stack_.back().phase)] += elapsed;
  }
}

/// RAII phase scope: free when the profiler is disabled (one branch on each
/// end, no clock query). Prefer the ELSIM_PROFILE_SCOPE macro, which also
/// honors ELSIM_NO_PROFILER builds.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase) noexcept : phase_(phase) {
    if (enabled()) {
      live_ = true;
      Profiler::global().begin(phase);
    }
    // The flight-recorder tap sees every transition, profiler on or off; the
    // hook is latched here so an exit always pairs with its observed enter
    // even if the hook is swapped mid-scope.
    hook_ = detail::t_phase_hook;
    if (hook_ != nullptr) {
      ctx_ = detail::t_phase_ctx;
      hook_(ctx_, phase, /*enter=*/true);
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (hook_ != nullptr) hook_(ctx_, phase_, /*enter=*/false);
    if (live_) Profiler::global().end(phase_);
  }

 private:
  Phase phase_;
  bool live_ = false;
  detail::PhaseHook hook_ = nullptr;
  void* ctx_ = nullptr;
};

}  // namespace elastisim::stats::profiler

#if defined(ELSIM_NO_PROFILER)
#define ELSIM_PROFILE_SCOPE(phase) static_cast<void>(0)
#else
#define ELSIM_PROFILE_SCOPE_CONCAT2(a, b) a##b
#define ELSIM_PROFILE_SCOPE_CONCAT(a, b) ELSIM_PROFILE_SCOPE_CONCAT2(a, b)
#define ELSIM_PROFILE_SCOPE(phase)                                     \
  ::elastisim::stats::profiler::ScopedPhase ELSIM_PROFILE_SCOPE_CONCAT( \
      elsim_profile_scope_, __LINE__)(phase)
#endif
