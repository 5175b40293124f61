// Flight recorder: the always-on black box behind crash postmortems.
//
// A fixed-capacity ring of compact 32-byte POD records continuously captures
// the simulator's recent past — engine events, scheduler invocations with
// verdict counts, profiler phase transitions, batch events (job and node
// transitions, run begin/end, named by stats::BatchEventKind), and
// cancellation — so an abnormal end (uncaught exception, InvariantChecker
// trip, watchdog timeout/stall, SIGINT, or a fatal signal) can dump
// `postmortem.json` explaining what the run was doing when it died, without
// re-running anything.
//
// Design constraints, in the self-profiler's style:
//   * Single-writer: one recorder per simulating thread (thread_current()),
//     so the hot path is branch + array store, no atomics, no locks.
//   * Bounded memory: power-of-two ring (default 4096 records = 128 KiB);
//     old records are overwritten, `recorded - capacity` counts the drops.
//   * Cheap timestamps: raw rdtsc/steady-clock ticks (profiler::tick_now),
//     calibrated against the wall clock only when a dump is rendered.
//   * Determinism-neutral: the recorder observes, it never feeds anything
//     back into the simulation, so sinks stay byte-identical with it on.
//   * Self-wiring: thread_current() taps its thread's profiler phases, and
//     BatchSystem::set_flight_recorder() hooks the engine's per-event tap.
//
// One writer: write_postmortem_fd() renders the `elastisim-postmortem-v2`
// document (schema in docs/FORMATS.md) async-signal-safely — no allocation,
// no locks, manual number formatting straight into write(2). The
// SIGSEGV/SIGABRT handler calls it directly; write_postmortem() opens a file
// for it.
//
// Disable process-wide with ELSIM_FLIGHT=0 (the knob the ≤2% overhead budget
// is measured against; see docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "stats/batch_event.h"
#include "stats/profiler.h"

namespace elastisim::core {

/// What one ring record describes. Order is stable (records store the raw
/// value); to_string() must stay in sync.
enum class FlightKind : std::uint16_t {
  /// One engine event dispatched; recorded before the callback runs, so the
  /// last such record names the event a crash died inside. b = events
  /// processed so far.
  kEngineEvent = 0,
  /// Profiler phase entered/left (ScopedPhase tap); code = Phase.
  kPhaseEnter,
  kPhaseExit,
  /// One scheduling point completed; code = JournalCause, a = queue depth
  /// after, b packs (rounds << 32 | jobs started).
  kSchedulerInvoke,
  /// One batch event; code = stats::BatchEventKind, a = nodes involved,
  /// b = the job id, the node id (node events) or the count (run begin/end).
  kBatchEvent,
  /// Cooperative cancellation observed; code = sim::CancelReason, b = events
  /// processed at that point.
  kCancel,
};

const char* to_string(FlightKind kind) noexcept;

/// Run markers for callers that drive the engine themselves
/// (kRunBegin, kRunEnd); note_mark() records them as batch events.
using FlightMark = stats::BatchEventKind;

/// One ring slot. POD on purpose: written on the hot path, read from a
/// signal handler.
struct FlightRecord {
  std::uint64_t ticks = 0;   ///< profiler::detail::tick_now() at record time.
  double sim_time = 0.0;     ///< Simulated seconds (last known for wall-side records).
  std::uint16_t kind = 0;    ///< FlightKind.
  std::uint16_t code = 0;    ///< Kind-specific discriminator (phase, event, cause...).
  std::uint32_t a = 0;       ///< Kind-specific small payload.
  std::uint64_t b = 0;       ///< Kind-specific wide payload (job id, counters).
};

static_assert(std::is_trivially_copyable_v<FlightRecord>, "ring slots must be POD");
static_assert(sizeof(FlightRecord) == 32, "keep ring slots cache-friendly");

/// Coarse simulator state refreshed at every scheduling point, so a dump can
/// describe the queue/cluster/fluid shape at death from plain PODs without
/// walking live (possibly corrupt) structures.
struct FlightSnapshot {
  double sim_time = 0.0;
  std::uint64_t events = 0;
  std::uint64_t pending_events = 0;
  std::uint32_t jobs_queued = 0;
  std::uint32_t jobs_running = 0;
  std::uint32_t nodes_free = 0;
  std::uint32_t nodes_failed = 0;
  std::uint32_t nodes_drained = 0;
  std::uint32_t nodes_total = 0;
};

class FlightRecorder final : public stats::BatchSubscriber {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr int kMaxPhaseDepth = 16;

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Disarms this thread's phase tap if it still points here.
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide switch, read once: ELSIM_FLIGHT=0 disables recording (the
  /// overhead-measurement baseline). Default on.
  static bool enabled() noexcept;

  /// This thread's recorder, created on first use with the thread's phase
  /// tap armed. One per thread keeps the writer single even under the sweep
  /// worker pool.
  static FlightRecorder& thread_current();

  /// Drops all records, the phase stack, the snapshot, and context; restarts
  /// the calibration window. Called per sweep-cell attempt.
  void reset();

  // --- hot path -----------------------------------------------------------

  void note(FlightKind kind, double sim_time, std::uint16_t code, std::uint32_t a,
            std::uint64_t b) noexcept {
    FlightRecord& slot = ring_[head_ & mask_];
    slot.ticks = stats::profiler::detail::tick_now();
    slot.sim_time = sim_time;
    slot.kind = static_cast<std::uint16_t>(kind);
    slot.code = code;
    slot.a = a;
    slot.b = b;
    ++head_;
  }

  void note_engine_event(double sim_time, std::uint64_t events) noexcept {
    last_sim_time_ = sim_time;
    note(FlightKind::kEngineEvent, sim_time, 0, 0, events);
  }

  /// Trampoline for sim::Engine::set_event_hook.
  static void engine_event_hook(void* ctx, double now, std::uint64_t events) noexcept {
    static_cast<FlightRecorder*>(ctx)->note_engine_event(now, events);
  }

  void note_scheduler_invoke(double sim_time, std::uint16_t cause, std::uint32_t queued,
                             std::uint32_t rounds, std::uint32_t started) noexcept {
    note(FlightKind::kSchedulerInvoke, sim_time, cause, queued,
         (static_cast<std::uint64_t>(rounds) << 32U) | started);
  }

  void note_cancel(double sim_time, int reason, std::uint64_t events) noexcept {
    cancel_reason_ = reason;
    note(FlightKind::kCancel, sim_time, static_cast<std::uint16_t>(reason), 0, events);
  }

  /// Records a run marker as a batch event; `value` is what BatchSystem puts
  /// in BatchEvent::count (jobs accepted, engine events).
  void note_mark(double sim_time, FlightMark mark, std::uint64_t value) noexcept {
    note(FlightKind::kBatchEvent, sim_time, static_cast<std::uint16_t>(mark), 0, value);
  }

  /// Batch event stream: job and node transitions and the run begin/end as
  /// kBatchEvent records, and one record per scheduling point (which also
  /// refreshes the snapshot).
  void on_event(const stats::BatchEvent& event) override;

  // --- phase tap ----------------------------------------------------------

  /// Routes this thread's profiler phase transitions (ScopedPhase tap) into
  /// this recorder. Returns the previous hook so scopes can nest; pass the
  /// result to stats::profiler::set_phase_hook to restore. Re-arming the
  /// recorder already tapped changes nothing.
  std::pair<stats::profiler::detail::PhaseHook, void*> arm_phase_tap() noexcept;

  /// Maintains the live phase stack and records the transition.
  void on_phase(stats::profiler::Phase phase, bool enter) noexcept;

  // --- cold-path state for dumps ------------------------------------------

  void set_snapshot(const FlightSnapshot& snapshot) noexcept { snapshot_ = snapshot; }
  const FlightSnapshot& snapshot() const noexcept { return snapshot_; }

  /// Sets (or overwrites) a context string embedded verbatim in dumps:
  /// scheduler name, input paths, sweep cell coordinates, seed.
  void set_context(const std::string& key, const std::string& value);

  std::size_t capacity() const noexcept { return ring_.size(); }
  /// Total records ever written since reset(); min(recorded, capacity) are
  /// still in the ring.
  std::uint64_t recorded() const noexcept { return head_; }
  std::size_t size() const noexcept;

  /// Live records, oldest first.
  std::vector<FlightRecord> decode() const;

  /// Active profiler phases, outermost first ("engine.dispatch scheduler").
  std::vector<const char*> phase_stack() const;

  /// Last phase ever entered (-1 = none). Unlike the live stack — which stack
  /// unwinding pops before an exception-path dump runs — this survives, so
  /// postmortems can still name the dying phase.
  int last_phase() const noexcept { return last_phase_; }

  int cancel_reason() const noexcept { return cancel_reason_; }

  // --- dumps --------------------------------------------------------------

  /// The postmortem document (schema "elastisim-postmortem-v2") written to
  /// `fd`: cause and detail, build provenance, context, peak RSS, cancel
  /// reason, phase stack, snapshot, and the ring, one record per line. The
  /// only postmortem writer, and async-signal-safe: no allocation, no locks,
  /// numbers formatted by hand (six decimals) into write(2). Returns bytes
  /// written (0 on failure).
  std::size_t write_postmortem_fd(int fd, std::string_view cause,
                                  std::string_view detail = {}) const noexcept;

  /// write_postmortem_fd() into `path`, parent directories created. Throws
  /// std::runtime_error when the file cannot be written.
  void write_postmortem(const std::string& path, std::string_view cause,
                        std::string_view detail) const;

  /// Arms a process-wide SIGSEGV/SIGABRT handler that dumps `recorder` to
  /// `path` and re-raises with default disposition. Pass nullptr to disarm.
  /// Best-effort: the path is truncated to an internal fixed buffer.
  static void install_crash_handler(FlightRecorder* recorder, const std::string& path);

 private:
  /// Ticks→seconds over the window since reset(), calibrated lazily against
  /// the wall clock (profiler style). Returns 0 when uncalibratable.
  double ticks_per_second() const noexcept;

  std::vector<FlightRecord> ring_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;
  double last_sim_time_ = 0.0;
  int cancel_reason_ = 0;

  FlightSnapshot snapshot_;
  int phase_stack_[kMaxPhaseDepth] = {};
  int phase_depth_ = 0;
  int last_phase_ = -1;

  std::uint64_t window_start_ticks_ = 0;
  double window_start_wall_ = 0.0;

  std::vector<std::pair<std::string, std::string>> context_;
  /// Jobs started since the current scheduling point began.
  std::uint32_t started_in_point_ = 0;
};

}  // namespace elastisim::core
