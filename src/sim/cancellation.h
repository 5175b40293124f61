// Cooperative cancellation for simulation runs.
//
// A CancellationToken is shared between the thread driving an Engine and a
// controller (a sweep watchdog, a SIGINT handler): the controller calls
// cancel() with a reason, the engine checks cancelled() between events and
// stops dispatching, and the run surfaces as *partial* rather than being
// torn down mid-callback. The engine also publishes its progress (events
// dispatched, simulated time) through the token, which is what a stall
// watchdog samples to tell "slow" from "livelocked".
//
// All members are relaxed atomics: cancel() is safe to call from a signal
// handler or another thread, and the per-event cost on the engine side is
// two uncontended stores.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace elastisim::sim {

/// Why a run was asked to stop; kNone while the run is live.
enum class CancelReason : int {
  kNone = 0,
  /// The run exceeded its wall-clock budget.
  kTimeout,
  /// The run stopped making event/simulated-time progress.
  kStalled,
  /// SIGINT/SIGTERM or an explicit operator request.
  kInterrupted,
};

/// A static string, so the postmortem writer can print it from a signal handler.
const char* to_string(CancelReason reason) noexcept;

class CancellationToken {
 public:
  /// Requests the run to stop. The first reason wins; later calls keep the
  /// original. Async-signal-safe (lock-free atomic stores only).
  void cancel(CancelReason reason = CancelReason::kInterrupted) {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_relaxed);
  }

  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_relaxed));
  }

  /// Called by the engine after each dispatched event. Watchdogs read the
  /// counters back; a value that stops changing is a stall.
  void note_progress(std::uint64_t events, double sim_time) {
    events_.store(events, std::memory_order_relaxed);
    sim_time_.store(sim_time, std::memory_order_relaxed);
  }

  std::uint64_t events() const { return events_.load(std::memory_order_relaxed); }
  double sim_time() const { return sim_time_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int> reason_{0};
  std::atomic<std::uint64_t> events_{0};
  std::atomic<double> sim_time_{0.0};
};

}  // namespace elastisim::sim
