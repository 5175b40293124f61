// Runtime state validator (the --validate machinery).
//
// The batch system's correctness rests on a handful of conservation laws:
// every cluster node is in exactly one of {free, failed, drained, allocated
// to one job}, the queue/running lists agree with the per-job states (each
// running entry with its job's record: start time, size, pending target),
// simulated time and trace sequence numbers only move forward, fluid-model
// progress stays within [0, 1], and the journal/sampler snapshots agree with
// the live queue. In debug builds scattered assert()s cover fragments of
// this; the InvariantChecker re-verifies the whole state machine in release
// builds, at every scheduling point and (cheaply) at every engine event.
//
// Each check lives with the state it checks: NodePool::check() for the node
// table and free set, BatchSystem::check() for the job lists and node
// ownership (it runs the pool's check too), FluidModel::check_invariants()
// for the fluid model. The checker orchestrates them through public calls
// only, and itself checks the clocks and the sinks it is handed.
//
// Wire-up: construct one checker per run with the trace, journal and sampler
// it should cross-check (each may be null), and attach() it to the engine
// and the batch system after subscribing those sinks: it validates the clock
// and fluid model at every engine event and, as the last subscriber on the
// batch event stream, the whole batch state plus the named sinks at every
// scheduling point. A broken invariant throws InvariantViolation with a
// diagnostic naming the offending job/node and the last committed journal
// sequence number. Overhead: one walk over the running jobs and the node
// table per scheduling point, one branch per engine event; see
// docs/ANALYSIS.md.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "stats/batch_event.h"

namespace elastisim::sim {
class Engine;
}  // namespace elastisim::sim

namespace elastisim::stats {
class DecisionJournal;
class EventTrace;
class StateSampler;
}  // namespace elastisim::stats

namespace elastisim::core {

class BatchSystem;

/// Thrown on the first broken invariant; what() names the offending
/// job/node, the simulated time, and the last committed journal seq.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& what) : std::runtime_error(what) {}
};

class InvariantChecker final : public stats::BatchSubscriber {
 public:
  /// The sinks to cross-check at every scheduling point (not owned; each
  /// may be null, and each must be subscribed to the batch system and
  /// outlive the run).
  struct Sinks {
    const stats::EventTrace* trace = nullptr;
    const stats::DecisionJournal* journal = nullptr;
    const stats::StateSampler* sampler = nullptr;
  };

  InvariantChecker() = default;
  explicit InvariantChecker(Sinks sinks) : sinks_(sinks) {}

  /// Installs the per-event hook on `engine` and subscribes to `batch`'s
  /// event stream. The checker must outlive the run.
  void attach(sim::Engine& engine, BatchSystem& batch);

  /// kSchedulingBegin snapshots the queue counts the scheduler is about to
  /// see; kSchedulingEnd re-validates the whole batch state and cross-checks
  /// the journal record and state sample this scheduling point emitted.
  void on_event(const stats::BatchEvent& event) override;

  /// Number of full scheduling-point validations performed.
  std::uint64_t scheduling_point_checks() const { return checks_; }
  /// Number of engine events observed by the per-event hook.
  std::uint64_t events_checked() const { return events_checked_; }

 private:
  /// The per-event hook re-verifies the fluid model every kFluidStride engine
  /// events and otherwise only checks clock monotonicity, keeping the hot
  /// path to one comparison. The O(all jobs) walk and the re-derivation of
  /// the fluid fill's kept state run every kJobWalkStride scheduling points:
  /// violations are persistent, so a strided walk still catches them, a few
  /// points later.
  static constexpr std::uint32_t kFluidStride = 64;
  static constexpr std::uint32_t kJobWalkStride = 32;

  /// Throws InvariantViolation; `at_point` adds the last journal seq.
  [[noreturn]] void fail(bool at_point, double now, const std::string& what) const;
  void check_sinks(double now);
  void on_engine_event(double now);

  Sinks sinks_;
  sim::Engine* engine_ = nullptr;
  const BatchSystem* batch_ = nullptr;

  std::uint32_t events_since_fluid_check_ = 0;
  std::uint32_t points_since_job_walk_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t events_checked_ = 0;

  // Monotonicity watermarks.
  double last_event_time_ = 0.0;
  double last_point_time_ = 0.0;
  std::uint64_t last_trace_checked_ = 0;  // trace entries validated so far
  std::uint64_t last_trace_seq_ = 0;
  double last_trace_time_ = 0.0;
  std::uint64_t last_journal_seq_ = 0;

  // Queue snapshot captured by the begin hook, cross-checked against the
  // journal record the scheduling point commits.
  bool begin_seen_ = false;
  int begin_queued_ = 0;
  int begin_running_ = 0;
  int begin_free_ = 0;
  int begin_total_ = 0;
  std::size_t begin_journal_size_ = 0;
};

}  // namespace elastisim::core
