// Scheduling-algorithm interface.
//
// The batch system invokes the scheduler at *scheduling points*: job
// submission, job completion, applied reconfigurations, walltime kills,
// evolving requests, and (optionally) a periodic timer. The scheduler reads
// the batch system's own queue and running lists (no copies; every entry is
// current at every read) and issues two kinds of decisions:
//
//   start(job, nodes)        — allocate and launch a queued job now.
//   set_target(job, nodes)   — desired size for a running malleable job; the
//                              batch system applies it at the job's next
//                              phase boundary (shrink always succeeds, growth
//                              is limited by free nodes at that moment).
//
// Schedulers decide *counts*; the batch system picks the concrete node ids.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats/batch_event.h"
#include "stats/journal.h"
#include "workload/job.h"

namespace elastisim::core {

/// A queued job with its scheduling keys; it has waited `now() - submit_time`
/// seconds.
using QueuedJob = stats::QueuedJob;

/// `job`'s queue entry, owned by user slot `user`: the one place its keys are
/// derived. The batch system fills an entry when the job enters the queue
/// (submit, dependency release, requeue); check() re-derives every entry.
QueuedJob queued_job(const workload::Job& job, std::uint32_t user);

struct RunningJob {
  const workload::Job* job;
  double start_time;
  /// Current allocation size (including a reconfiguration in progress).
  int nodes;
  /// Pending resize target (equal to `nodes` when none).
  int pending_target;
};

/// Walltime-based upper bound on `running`'s remaining runtime at `now`
/// (the estimate backfilling relies on): never negative, infinite without a
/// walltime limit.
double estimated_remaining(const RunningJob& running, double now);

/// The read/decide surface handed to Scheduler::schedule(). Implemented by
/// the batch system; decisions are validated there in every build (starting
/// a job twice, overallocating, or resizing a rigid job throws
/// util::CheckError naming the call).
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  virtual double now() const = 0;
  virtual int total_nodes() const = 0;
  virtual int free_nodes() const = 0;
  /// Queued jobs in queue order (submission, then release or requeue), each
  /// with the keys queued_job() derived from it. The batch system's own list,
  /// current at every read.
  virtual const std::vector<QueuedJob>& queue() const = 0;
  /// Running jobs in start order. The batch system's own list, current at
  /// every read.
  virtual const std::vector<RunningJob>& running() const = 0;
  /// Node-seconds the user has consumed so far (finished + accrued running);
  /// the signal fair-share policies rank by. Unknown users report 0. Costs a
  /// lookup of the user's name plus O(that user's running jobs), and one
  /// refold of the user's job records after one of that user's jobs accrued
  /// (finished, resized or was requeued). Fair-share asks once per user
  /// present in the queue per scheduling point.
  virtual double user_usage(const std::string& user) const = 0;

  /// Starts a queued job on `nodes` nodes. Requires nodes in the job's
  /// [min, max] range (exactly `requested` for rigid jobs) and
  /// nodes <= free_nodes(). Erases the job from queue() and appends it to
  /// running(), which invalidates references into both.
  virtual void start_job(workload::JobId id, int nodes) = 0;

  /// Sets the desired size of a running malleable/evolving job. Clamped to
  /// the job's range. Passing its current size clears any pending target.
  /// Rewrites the job's running() entry in place.
  virtual void set_target(workload::JobId id, int nodes) = 0;

  /// True when a subscriber (a decision journal) records hold explanations.
  /// Schedulers test this once per pass and skip building explanations
  /// entirely otherwise, so a run without a journal pays one virtual call
  /// per pass.
  virtual bool explaining() const { return false; }

  /// Records why queued job `id` cannot start at this scheduling point
  /// (journal verdict "held" with a machine-readable reason code). Within one
  /// scheduling point a later explain() for the same job replaces the earlier
  /// one — refining passes win — and starting the job erases it. No-op while
  /// explaining() is false.
  virtual void explain(workload::JobId id, stats::HoldReason reason,
                       std::string detail = std::string()) {
    (void)id;
    (void)reason;
    (void)detail;
  }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Invoked at every scheduling point.
  virtual void schedule(SchedulerContext& ctx) = 0;

  /// Invoked when an evolving job asks to resize by `delta` at a phase
  /// boundary. Returning true grants the request (growth still limited by
  /// free nodes). The default grants shrinks unconditionally and grows when
  /// enough nodes are free.
  virtual bool on_evolving_request(SchedulerContext& ctx, workload::JobId id, int delta);
};

/// Instantiates a scheduler by name:
///   "fcfs", "easy", "conservative", "fcfs-malleable", "easy-malleable",
///   "equal-share", "priority", "fair-share".
/// Returns nullptr for unknown names.
std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

/// All names make_scheduler() accepts, in comparison order.
std::vector<std::string> scheduler_names();

}  // namespace elastisim::core
