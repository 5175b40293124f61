// The batch system: job queue, scheduling points, and the
// malleable-reconfiguration protocol. Node state and placement live in its
// NodePool; the batch system decides when nodes move and runs the scheduler
// after each node event.
//
// Scheduling points (each triggers Scheduler::schedule):
//   - job submission,
//   - job completion and walltime kill,
//   - an application phase boundary (where pending resize decisions and
//     evolving requests are mediated),
//   - completion of a shrink's data redistribution (nodes become free),
//   - an optional periodic timer.
//
// Resize protocol: the scheduler records a *target size* for a running
// malleable/evolving job at any scheduling point; the batch system applies
// it at the job's next phase boundary. Shrinks always apply; growth is
// limited by the nodes free at that moment. Expansion occupies the new nodes
// when redistribution starts; shrunk-away nodes are released only after the
// redistribution transfer completes.
//
// Observability: every lifecycle site emits one stats::BatchEvent to the
// subscribers attached with subscribe() — event trace, decision journal,
// state sampler, Chrome trace, telemetry, flight recorder, invariant
// checker, or any other stats::BatchSubscriber. The batch system keeps only
// the always-on counters (scheduler invocations/rounds/jobs scanned, job
// outcomes, the BatchTallies) and formats nothing itself; a new sink needs
// no change here. check() verifies its lists and node pool on demand (the
// InvariantChecker calls it at every scheduling point).
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/job_execution.h"
#include "core/node_pool.h"
#include "core/scheduler.h"
#include "platform/cluster.h"
#include "sim/engine.h"
#include "stats/batch_event.h"
#include "stats/journal.h"
#include "stats/metrics.h"
#include "workload/job.h"

namespace elastisim::core {

class FlightRecorder;

/// What happens to a job whose node fails underneath it.
enum class FailurePolicy {
  /// The job is terminated and recorded as killed.
  kKill,
  /// The job loses all progress and re-enters the queue (resubmission).
  kRequeue,
  /// The job re-enters the queue and, when restarted, resumes from its last
  /// completed checkpoint (IoTask::checkpoint) instead of from scratch,
  /// paying BatchConfig::restart_overhead. Jobs without checkpoints behave
  /// exactly like kRequeue.
  kRequeueRestart,
};

std::string to_string(FailurePolicy policy);
std::optional<FailurePolicy> failure_policy_from_string(std::string_view name);

struct BatchConfig {
  /// Periodic scheduler invocation interval; 0 disables the timer (the
  /// scheduler still runs at every event-driven scheduling point).
  double scheduling_interval = 0.0;
  /// Model the data-redistribution cost of reconfigurations. Disabling it
  /// makes resizes free (the R7 ablation).
  bool charge_reconfiguration = true;
  /// Reaction to injected node failures.
  FailurePolicy failure_policy = FailurePolicy::kRequeue;
  /// Seconds of recovery work (checkpoint read-back, re-initialization) a
  /// kRequeueRestart job pays on its allocation before resuming.
  double restart_overhead = 0.0;
  /// Requeues a job may accumulate before a further eviction kills it
  /// instead (guards against requeue thrashing under heavy churn);
  /// 0 = unlimited.
  int max_requeues = 0;
  /// Node-selection strategy for starts and expansions.
  PlacementPolicy placement = PlacementPolicy::kLowestId;
};

class BatchSystem final : public SchedulerContext {
 public:
  BatchSystem(sim::Engine& engine, const platform::Cluster& cluster,
              std::unique_ptr<Scheduler> scheduler, stats::Recorder& recorder,
              BatchConfig config = {});
  ~BatchSystem() override;

  /// Registers a job; it enters the queue at job.submit_time. Jobs whose
  /// minimum size exceeds the cluster are rejected (returns false).
  bool submit(workload::Job job);
  std::size_t submit_all(std::vector<workload::Job> jobs);

  /// Attaches a subscriber to the event stream (not owned; must outlive the
  /// batch system). Subscribers receive every event in subscription order,
  /// so subscribe an EventTrace before a DecisionJournal that should link to
  /// it, and an InvariantChecker (via InvariantChecker::attach) last. nullptr
  /// is ignored.
  void subscribe(stats::BatchSubscriber* subscriber);

  /// subscribe() for the always-on flight recorder; a non-null recorder
  /// also takes the engine's per-event hook.
  void set_flight_recorder(FlightRecorder* recorder);

  /// Brackets the event loop for subscribers with kRunBegin (jobs accepted)
  /// and kRunEnd (events processed, cancel reason); core::run_scenario calls
  /// them around Engine::run().
  void begin_run();
  void end_run();

  /// Test-only corruption hook: re-inserts the first node allocated to `job`
  /// into the free pool, deliberately breaking allocation conservation so
  /// tests can prove the InvariantChecker catches a double allocation.
  /// Returns false when the job holds no nodes.
  bool test_corrupt_double_allocation(workload::JobId job);
  /// Test-only corruption hook: raises the minimum start size in queued job
  /// `job`'s queue entry by one, a stale key the validator must name.
  /// Returns false when the job is not queued.
  bool test_corrupt_queue_key(workload::JobId job);
  /// Test-only corruption hook: moves queued job `job` to the next user slot
  /// in its queue entry and its stored slot alike, so that only a slot
  /// re-derived from the job's user name shows the fault. Returns false when
  /// the job is not queued.
  bool test_corrupt_user_slot(workload::JobId job);

  /// Verifies the running list in start order, each entry against its job's
  /// record (same job, start time bit for bit, size, pending target); each
  /// node a running job holds in bounds, owned by that job in the node pool,
  /// not failed and held once; every owned node held by its owner; then the
  /// pool's own check(). With `all_jobs`, also walks every job: the per-state
  /// counts against the queue, the running list and the unfinished count,
  /// and no job that is not running holding nodes; re-derives every queue
  /// entry's keys from its job (queued_job(), the user slot looked up by the
  /// job's user name in the recorder) and the recorder's per-user running
  /// index from the running jobs. O(running jobs + nodes), plus
  /// O(all jobs) with `all_jobs`. Returns the first broken rule, formatted
  /// only then.
  std::optional<std::string> check(bool all_jobs) const;

  /// Schedules node `node` to fail at `fail_time` and (optionally) return to
  /// service at `repair_time`. A failed node leaves the free pool; a job
  /// running on it is killed or requeued per BatchConfig::failure_policy.
  /// Overlapping injections for one node union their outage windows: the
  /// node returns to service only once the latest scheduled repair passes.
  /// Call before or during the simulation. Returns false (and injects
  /// nothing) for invalid input: a node outside the cluster, a non-finite or
  /// negative fail time, or a repair before the failure.
  bool inject_failure(platform::NodeId node, double fail_time,
                      double repair_time = std::numeric_limits<double>::infinity());

  /// Graceful maintenance drain: from `when`, the node accepts no new work;
  /// if busy, the running job finishes (or resizes away) normally and only
  /// then does the node leave service; if down, it stays out after repair.
  /// undrain at `until` (infinity = stay drained). Returns false (and
  /// schedules nothing) for the input inject_failure rejects: a node outside
  /// the cluster, a non-finite or negative start, or an end before it.
  bool drain_node(platform::NodeId node, double when,
                  double until = std::numeric_limits<double>::infinity());

  /// Post-run introspection.
  std::size_t finished_jobs() const { return tallies_.finished; }
  std::size_t killed_jobs() const { return tallies_.killed; }
  std::size_t cancelled_jobs() const { return tallies_.cancelled; }
  std::size_t held_jobs() const;
  std::size_t requeued_jobs() const { return tallies_.requeues; }
  std::size_t failed_nodes_now() const { return pool_.failed_count(); }
  std::size_t drained_nodes_now() const { return pool_.drained_count(); }
  std::size_t queued_jobs() const { return queue_.size(); }
  std::size_t running_jobs() const { return running_.size(); }

  /// Scheduling points executed and scheduler passes inside them (always
  /// counted).
  std::uint64_t scheduler_invocations() const { return scheduler_invocations_; }
  std::uint64_t scheduler_rounds() const { return scheduler_rounds_; }

  /// Jobs presented to the scheduler summed over every round (queued +
  /// running lists); the per-invocation rescan cost that dominates large
  /// workloads. Always counted, like the invocation/round counters.
  std::uint64_t scheduler_jobs_scanned() const { return scheduler_jobs_scanned_; }

  /// Concrete nodes a job currently occupies (empty when not running).
  std::vector<platform::NodeId> nodes_of(workload::JobId id) const { return managed(id).nodes; }

  /// Ids of jobs still queued or running — the "stuck" population when the
  /// event queue drains with work left over (queue order, then run order).
  std::vector<workload::JobId> unfinished_job_ids() const;

  // --- SchedulerContext ----------------------------------------------------
  double now() const override { return engine_->now(); }
  /// Nodes in service: failures and drains shrink the machine (drain-pending
  /// nodes still count; their jobs are still running).
  int total_nodes() const override {
    return static_cast<int>(cluster_->node_count() - pool_.failed_count() - pool_.drained_count());
  }
  int free_nodes() const override { return static_cast<int>(pool_.free_set().size()); }
  const std::vector<QueuedJob>& queue() const override { return queue_; }
  const std::vector<RunningJob>& running() const override { return running_; }
  double user_usage(const std::string& user) const override {
    return recorder_->user_node_seconds(user, engine_->now());
  }
  void start_job(workload::JobId id, int nodes) override;
  void set_target(workload::JobId id, int nodes) override;
  bool explaining() const override { return explaining_; }
  void explain(workload::JobId id, stats::HoldReason reason,
               std::string detail = std::string()) override;

 private:
  enum class JobState {
    kPending,    // submitted, submit_time not reached
    kHeld,       // waiting on dependencies
    kQueued,
    kRunning,    // paused at a phase boundary when execution->at_boundary()
    kFinished,
    kKilled,
    kCancelled,  // dependency failed before the job ran
  };

  struct Managed {
    workload::Job job;
    JobState state = JobState::kPending;
    std::vector<platform::NodeId> nodes;
    std::unique_ptr<JobExecution> execution;
    double start_time = -1.0;
    sim::EventId walltime_event = sim::kInvalidEventId;
    /// Durable progress carried across requeues (kRequeueRestart): the next
    /// start resumes here instead of the first iteration.
    ExecutionProgress checkpoint;
    /// Evictions this job has survived (the max_requeues guard's counter).
    int requeue_count = 0;
    /// Scheduler-requested size; -1 = none.
    int pending_target = -1;
    /// The owner's user slot, interned by the recorder at submit; every
    /// queue entry of the job carries it.
    std::uint32_t user_slot = 0;
    /// Dependencies not yet finished (held jobs only).
    std::set<workload::JobId> outstanding_deps;
  };

  const Managed& managed(workload::JobId id) const;
  /// Accepted jobs not yet finished, killed or cancelled; timers stop at 0.
  std::size_t unfinished() const {
    return jobs_.size() - tallies_.finished - tallies_.killed - tallies_.cancelled;
  }
  Managed& managed(workload::JobId id) {
    return const_cast<Managed&>(std::as_const(*this).managed(id));
  }
  /// check()'s O(all jobs) walk.
  std::optional<std::string> check_jobs() const;

  void enter_queue(workload::JobId id);
  /// Appends `job`'s entry, keys filled by queued_job(), to queue_.
  void push_queue(const Managed& job);
  /// Erases `job`'s entry from queue_.
  void erase_queue(const Managed& job);
  /// Dependency bookkeeping: release or cancel the dependents of `id`.
  void resolve_dependents(workload::JobId id, bool succeeded);
  void cancel_job(Managed& job);
  void fail_node(platform::NodeId node, double repair_time);
  void restore_node(platform::NodeId node);
  /// Terminal kill of a job whose allocation is already gone (walltime, the
  /// kKill failure policy, the max_requeues guard).
  void kill_job(Managed& job, stats::KillCause cause, platform::NodeId failed_node);
  void start_drain(platform::NodeId node);
  void undrain_node(platform::NodeId node);
  /// Releases a node a job gave up to the pool; it is freed unless failed or
  /// draining.
  void return_node(platform::NodeId node);
  /// Evicts the victim of `failed_node`'s failure (requeue or kill per the
  /// failure policy); the node id rides on the event so the requeue cause is
  /// attributable.
  void evict_job(Managed& job, platform::NodeId failed_node);
  void process_boundary(workload::JobId id);
  void apply_resize(Managed& job, int target);
  void handle_completion(workload::JobId id);
  void handle_walltime(workload::JobId id);
  /// Takes a job off its allocation: cancels its walltime event, returns its
  /// nodes and drops it from running_.
  void stop_running(Managed& job);
  /// Rewrites `job`'s running_ entry after its nodes or pending target
  /// changed: {&job, start_time, nodes.size(), pending_target, or the size
  /// when none is pending}.
  void refresh_running(const Managed& job);

  /// Runs the scheduler to quiescence; `cause` is what triggered the
  /// scheduling point (recorded as the journal record's cause).
  void invoke_scheduler(stats::JournalCause cause);
  /// Arms the periodic scheduler timer and the kSample cadence, each only
  /// when configured and not already pending.
  void arm_timers();
  /// Runs `tick` every `interval` simulated seconds while jobs are pending;
  /// `armed` marks a tick in flight.
  void arm_periodic(double interval, bool& armed, std::function<void()> tick);
  /// Updates the tallies and hands `event`, stamped with the current time
  /// and state, to every subscriber.
  void emit(stats::BatchEvent event);

  sim::Engine* engine_;
  const platform::Cluster* cluster_;
  std::unique_ptr<Scheduler> scheduler_;
  stats::Recorder* recorder_;
  BatchConfig config_;
  std::vector<stats::BatchSubscriber*> subscribers_;
  /// Smallest positive sample interval any subscriber asked for (0 = none).
  double sample_interval_ = 0.0;
  /// Some subscriber records the scheduler's hold explanations.
  bool explaining_ = false;
  stats::BatchTallies tallies_;

  std::unordered_map<workload::JobId, std::unique_ptr<Managed>> jobs_;
  std::unordered_map<workload::JobId, std::vector<workload::JobId>> dependents_;
  /// The scheduler's views, one list per job state: queued jobs in queue
  /// order, running jobs in start order. Updated wherever a job enters a
  /// list, leaves it or changes.
  std::vector<QueuedJob> queue_;
  std::vector<RunningJob> running_;
  NodePool pool_;
  /// check()'s per-node hold marks, reused so a clean check allocates
  /// nothing.
  mutable std::vector<std::uint8_t> held_marks_;

  std::uint64_t scheduler_invocations_ = 0;
  std::uint64_t scheduler_rounds_ = 0;
  std::uint64_t scheduler_jobs_scanned_ = 0;

  bool in_scheduler_ = false;
  bool rerun_scheduler_ = false;
  bool timer_armed_ = false;
  bool sample_timer_armed_ = false;
};

}  // namespace elastisim::core
