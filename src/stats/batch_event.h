// The batch system's one observability stream: at every lifecycle site
// core::BatchSystem emits one typed BatchEvent to the subscribers attached
// with BatchSystem::subscribe(), in subscription order. Each subscriber
// formats its own artifact (trace row, journal verdict, state sample, Chrome
// slice, telemetry counter, flight-recorder record); the batch system formats
// nothing. Payload fields are valid only during the call (spans point into
// batch state); a subscriber copies what it keeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "workload/job.h"

namespace elastisim::stats {

// Journal vocabulary (stats/journal.h), which itself builds on this header.
enum class JournalCause;
enum class HoldReason;

enum class BatchEventKind : std::uint8_t {
  kSubmit,           ///< The job reached its submit time.
  kHeld,             ///< It waits on unfinished dependencies.
  kQueued,           ///< It entered the queue (at submit or on release).
  kCancel,           ///< A dependency failed before it ran.
  kStart,            ///< Started on `nodes` nodes, listed in `node_list`.
  kRestart,          ///< The job just started resumes from a checkpoint.
  kBoundary,         ///< Paused at a phase boundary holding `nodes` nodes.
  kEvolvingRequest,  ///< Asked for `previous_nodes` -> `nodes`; `granted`.
  kTarget,           ///< The scheduler set a resize target.
  kExpand,           ///< Grew `previous_nodes` -> `nodes`; `node_list` = added.
  kShrink,           ///< A shrink to `nodes` completed (nodes released).
  kRelease,          ///< Let go of `node`; `freed` = it rejoined the free pool.
  kFinish,           ///< Ran to completion.
  kKill,             ///< Terminated early, see `kill_cause`.
  kRequeue,          ///< Evicted by `node`'s failure back into the queue.
  kExplain,          ///< The scheduler held the job: `reason`, `text`.
  kNodeFail,         ///< Node events: `node`.
  kNodeRestore,
  kNodeDrain,
  kNodeUndrain,
  kSchedulingBegin,  ///< Before the scheduler runs; `cause`.
  kSchedulingEnd,    ///< After it converged; `cause`, `rounds`, `queue`.
  kSample,           ///< Fixed-cadence tick (BatchSubscriber::sample_interval).
  kRunBegin,         ///< The event loop is about to start; `count` = jobs accepted.
  kRunEnd,           ///< The event loop returned; `count` = engine events.
};

/// The event's name in trace.csv and postmortems ("start", "node-fail",
/// "run-begin"): the one event vocabulary. A static string, so a signal
/// handler can print it.
const char* to_string(BatchEventKind kind) noexcept;

/// Why a kKill ended a job: its walltime, `node` failing under
/// FailurePolicy::kKill, or `node` failing once more than
/// BatchConfig::max_requeues allows.
enum class KillCause : std::uint8_t { kWalltime, kNodeFailure, kMaxRequeues };

/// Cumulative lifecycle tallies. The batch system keeps the one copy, updated
/// in event order, and stamps it into every event.
struct BatchTallies {
  std::uint64_t finished = 0;
  std::uint64_t killed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expansions = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t evolving_grants = 0;
  std::uint64_t requeues = 0;
  std::uint64_t checkpoint_restarts = 0;
  double lost_node_seconds = 0.0;
};

/// Queue and node state at the moment an event is emitted.
struct BatchState {
  int queued = 0;
  int running = 0;
  int free_nodes = 0;
  int failed = 0;
  int drained = 0;
  int cluster_nodes = 0;  ///< In service or not.
  BatchTallies tallies;

  /// Nodes in service: what schedulers see as the machine size.
  int in_service() const { return cluster_nodes - failed - drained; }
};

/// One entry of the batch system's job queue: the job and the scheduling
/// keys the backfill walk and the ranked policies read, so that a pass over
/// the queue reads no job record. core::queued_job() fills the keys when the
/// job enters the queue; `->` and `*` reach the job. It is declared with the
/// event stream because kSchedulingEnd carries the queue as the batch system
/// keeps it.
struct QueuedJob {
  const workload::Job* job = nullptr;
  /// Smallest size the job can start at: `requested_nodes` when rigid,
  /// `min_nodes` otherwise.
  int min_start = 0;
  /// The size it starts at when that many nodes are free: `requested_nodes`
  /// when rigid, min(`requested_nodes`, `max_nodes`) otherwise.
  int preferred_start = 0;
  double walltime_limit = 0.0;
  /// The owner's slot in the Recorder that interned it at submit: entries
  /// with equal slots belong to one user.
  std::uint32_t user = 0;

  const workload::Job* operator->() const { return job; }
  const workload::Job& operator*() const { return *job; }
};

struct BatchEvent {
  BatchEventKind kind;
  /// The job concerned; null for node, scheduling-point and run events.
  const workload::Job* job = nullptr;
  /// Allocation size (kStart, kBoundary, kShrink, kExpand) or requested size
  /// (kEvolvingRequest, kTarget).
  int nodes = 0;
  /// Size before (kEvolvingRequest, kTarget, kExpand, kShrink, kRequeue).
  int previous_nodes = 0;
  /// Nodes newly occupied (kStart, kExpand).
  std::span<const std::uint32_t> node_list{};
  /// Node events, kRelease, and the failed node of a kKill or kRequeue.
  std::uint32_t node = 0;
  /// kEvolvingRequest: the scheduler granted it.
  bool granted = false;
  /// kRelease: the node went back to the free pool (rather than staying
  /// failed or leaving service for a drain).
  bool freed = false;
  KillCause kill_cause = KillCause::kWalltime;
  /// kRequeue: node-seconds of work discarded.
  double lost_node_seconds = 0.0;
  /// kRestart, and kRequeue with `from_checkpoint`: the durable checkpoint.
  bool from_checkpoint = false;
  std::size_t checkpoint_phase = 0;
  int checkpoint_iteration = 0;
  /// kExplain.
  HoldReason reason{};
  std::string_view text{};
  /// Scheduling points: what triggered it.
  JournalCause cause{};
  /// kSchedulingEnd: scheduler passes run, and the queue after, in order.
  std::uint32_t rounds = 0;
  std::span<const QueuedJob> queue{};
  /// kRunBegin: jobs accepted. kRunEnd, kSchedulingEnd: engine events so far.
  std::uint64_t count = 0;
  /// kSchedulingEnd: live engine events.
  std::uint64_t pending_events = 0;
  /// kRunEnd: the sim::CancelReason that stopped the run; 0 = ran to the end.
  int cancel_reason = 0;

  // Stamped by the batch system when it emits the event.
  double time = 0.0;
  BatchState state{};

  /// Sequence number of the EventTrace row recorded for this event (0 =
  /// none). An EventTrace stamps it; subscribers after the trace (the
  /// journal) link their records to it.
  mutable std::uint64_t trace_seq = 0;

  workload::JobId job_id() const { return job != nullptr ? job->id : 0; }
};

/// Human-readable detail of an event ("16->32", "+8 granted", "node 3
/// failed, lost 120 node-seconds"): the trace's detail column and the
/// journal's verdict detail. Empty for kinds without one.
std::string event_detail(const BatchEvent& event);

/// Writes event_detail(event), so a log line formats it only when it is on.
std::ostream& operator<<(std::ostream& out, const BatchEvent& event);

/// A sink on the batch event stream.
class BatchSubscriber {
 public:
  virtual ~BatchSubscriber() = default;
  virtual void on_event(const BatchEvent& event) = 0;

  /// > 0 asks for kSample ticks every that many simulated seconds while jobs
  /// are pending (the smallest interval asked for wins). Read at subscribe().
  virtual double sample_interval() const { return 0.0; }

  /// True when this subscriber records the scheduler's hold explanations
  /// (kExplain); schedulers only compose them while some subscriber does.
  /// Read at subscribe().
  virtual bool wants_explanations() const { return false; }
};

}  // namespace elastisim::stats
