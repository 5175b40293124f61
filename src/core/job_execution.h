// Drives one job's application through the fluid model.
//
// Executes phases iteration by iteration: within an iteration, task groups
// run in order and the tasks inside a group run concurrently. After every
// iteration the execution pauses at a *scheduling point* and notifies the
// batch system, which resumes it — unchanged, or with a new node set (a
// reconfiguration, optionally charged with a data-redistribution transfer).
// A task's activities are costed once per node set: built at the phase's
// first launch and relaunched unchanged by every later iteration. A node-set
// or phase change rebuilds them into the storage they already hold.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "platform/cluster.h"
#include "sim/engine.h"
#include "workload/job.h"
#include "workload/patterns.h"

namespace elastisim::core {

/// A position in an application's (phase, iteration) grid — the granularity
/// at which checkpoint/restart recovery resumes a job.
struct ExecutionProgress {
  std::size_t phase = 0;
  int iteration = 0;

  bool at_origin() const { return phase == 0 && iteration == 0; }
  friend bool operator==(const ExecutionProgress&, const ExecutionProgress&) = default;
};

class JobExecution {
 public:
  /// Fired at each scheduling point; evolving_delta() holds the upcoming
  /// phase's resize request. The batch system must eventually call resume() /
  /// resume_with_nodes().
  using BoundaryCallback = std::function<void()>;
  /// Fired when the application's last phase iteration completes.
  using CompletionCallback = std::function<void()>;

  JobExecution(sim::Engine& engine, const platform::Cluster& cluster, const workload::Job& job,
               std::vector<platform::NodeId> nodes, BoundaryCallback on_boundary,
               CompletionCallback on_complete);
  ~JobExecution();

  JobExecution(const JobExecution&) = delete;
  JobExecution& operator=(const JobExecution&) = delete;

  /// Begins the first iteration. Must be called exactly once.
  void start();

  /// Begins execution at `from` (a durable_progress() value captured from a
  /// previous attempt) instead of the first iteration — checkpoint/restart
  /// recovery. When `restart_overhead` > 0, that many seconds of recovery
  /// work (checkpoint read-back, re-initialization) run on the allocation
  /// before the first resumed iteration. Must be called exactly once, in
  /// place of start().
  void start_from(ExecutionProgress from, double restart_overhead = 0.0);

  /// Continues past the current scheduling point without changes.
  void resume();

  /// Continues with a new allocation, copied from `nodes` (which need not
  /// outlive the call). When `charge_redistribution` is set and the
  /// application declares per-node state, a redistribution transfer runs
  /// before the next iteration starts. `on_applied` fires when the new
  /// allocation takes full effect (after the transfer), which is when the
  /// batch system releases shrunk-away nodes.
  void resume_with_nodes(std::span<const platform::NodeId> nodes, bool charge_redistribution,
                         std::function<void()> on_applied);

  /// Cancels all in-flight activities (walltime kill). The completion
  /// callback will not fire.
  void abort();

  /// Paused at a scheduling point, waiting for resume() / resume_with_nodes().
  bool at_boundary() const { return state_ == State::kAtBoundary; }
  /// The resize request of the phase this boundary enters (iteration 0); 0 at
  /// any other boundary and while not paused.
  int evolving_delta() const {
    return at_boundary() && iteration_ == 0 ? current_phase().evolving_delta : 0;
  }
  int node_count() const { return static_cast<int>(nodes_.size()); }

  /// Latest position this attempt could restart from: advances to the
  /// iteration after each completed iteration that wrote a checkpoint
  /// (IoTask::checkpoint). Starts at the position start()/start_from() began
  /// at, so progress is monotone across requeue attempts.
  ExecutionProgress durable_progress() const { return durable_; }
  /// Simulation time the durable position was last advanced (the attempt's
  /// start until the first checkpoint completes). Work performed after this
  /// instant is lost if the job is evicted.
  double durable_time() const { return durable_time_; }

 private:
  enum class State { kIdle, kRunningGroup, kAtBoundary, kRedistributing, kDone, kAborted };

  const workload::Phase& current_phase() const;
  /// Whether any task of `phase` is a durable checkpoint write.
  static bool phase_has_checkpoint(const workload::Phase& phase);
  void begin_iteration();
  /// Launches the next non-empty group, or finishes the iteration.
  void begin_group();
  void on_task_complete();
  void finish_iteration();
  /// Ends a reconfiguration: fires the resize callback, then resumes.
  void apply_reconfiguration();
  /// Advances (phase_, iteration_) past the just-finished iteration;
  /// returns false when the application is exhausted.
  bool advance_position();

  /// One task's activities on the current node set: built at the phase's
  /// first launch, relaunched unchanged by every later iteration, and
  /// rebuilt in place when the node set or the phase changes.
  struct TaskSpecs {
    /// `job<id>/<task>`, formatted once per phase.
    std::string label;
    /// The activity a launch starts: the task's own, or a transfer's
    /// latency step.
    sim::ActivitySpec first;
    /// The transfer a latency step leads to, run as the same logical task
    /// when `chained`. Kept while unused, so its storage outlives a node
    /// set without one.
    sim::ActivitySpec then;
    bool chained = false;
    /// The fallback warning the build found (a GPU task on a GPU-less node,
    /// I/O without a PFS), or empty. Every launch logs it, as every launch
    /// did when each one built its activities afresh.
    std::string warning;
  };

  /// Starts `spec` on the fluid model; `Done` runs when it completes, unless
  /// abort() came first.
  template <void (JobExecution::*Done)()>
  void run(const sim::ActivitySpec& spec);

  /// Launches task `task` of the current phase (its index in specs_).
  void launch_task(std::uint32_t task);
  /// Runs task `task`'s `then` once its first activity completes, or ends
  /// the task when there is none.
  void finish_first(std::uint32_t task);

  /// Rebuilds specs_ for every task of the current phase on nodes_ (the
  /// first launch after a phase or node-set change), labelling them first
  /// when the phase changed.
  void build_specs();
  /// Rebuilds `specs` as what one launch of `task` runs on nodes_.
  void build_task(const workload::Task& task, TaskSpecs& specs) const;
  void build_compute(const workload::ComputeTask& task, TaskSpecs& specs) const;
  void build_comm(const workload::CommTask& task, TaskSpecs& specs) const;
  void build_io(const workload::IoTask& task, TaskSpecs& specs) const;
  /// Makes `spec` one fluid activity carrying `flows` between `endpoints`;
  /// see DESIGN.md §2.1. Its label stays. Returns false, leaving the rest
  /// of `spec` unspecified, when there is nothing to transfer.
  bool build_transfer(std::span<const workload::Flow> flows,
                      std::span<const platform::NodeId> endpoints,
                      sim::ActivitySpec& spec) const;
  /// Builds redistribution_ as the state transfer from nodes_ to `next`;
  /// false when nothing moves.
  bool build_redistribution(std::span<const platform::NodeId> next);
  /// Frees the spec storage once the execution can launch nothing more.
  void release_specs();

  sim::Engine* engine_;
  const platform::Cluster* cluster_;
  const workload::Job* job_;
  std::vector<platform::NodeId> nodes_;
  BoundaryCallback on_boundary_;
  CompletionCallback on_complete_;
  std::function<void()> on_reconfig_applied_;

  State state_ = State::kIdle;
  /// specs_ carries the current phase's labels. (Both flags sit in the
  /// padding after state_: a finished execution lives on until the batch
  /// system's teardown, so its size counts once per job.)
  bool specs_labelled_ = false;
  /// specs_ costs the current phase on nodes_.
  bool specs_built_ = false;
  std::size_t phase_ = 0;
  int iteration_ = 0;
  ExecutionProgress durable_;
  double durable_time_ = 0.0;
  std::size_t group_ = 0;
  std::size_t outstanding_tasks_ = 0;
  std::vector<sim::ActivityId> active_;
  /// Generation counter guards stale activity callbacks after abort(). 32
  /// bits, so a callback's capture (this, generation, task) fits
  /// std::function's inline storage.
  std::uint32_t generation_ = 0;
  /// The current phase's tasks, group after group, then spare entries left
  /// by a phase with more tasks; every entry keeps its storage until
  /// release_specs().
  std::vector<TaskSpecs> specs_;
  /// Every reconfiguration's transfer: made and labelled at the first
  /// charged resize, rebuilt in place by the later ones.
  std::unique_ptr<sim::ActivitySpec> redistribution_;
};

}  // namespace elastisim::core
