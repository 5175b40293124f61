#include "core/batch_system.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "core/flight_recorder.h"
#include "stats/profiler.h"
#include "util/check.h"
#include "util/fmt.h"
#include "util/log.h"

namespace elastisim::core {

using workload::JobId;
using Kind = stats::BatchEventKind;

namespace {

/// BatchSystem::JobState names, in declaration order.
const char* state_name(int state) {
  static constexpr const char* kNames[] = {"pending",  "held",   "queued",   "running",
                                           "finished", "killed", "cancelled"};
  return kNames[state];
}

}  // namespace

std::string to_string(FailurePolicy policy) {
  switch (policy) {
    case FailurePolicy::kKill: return "kill";
    case FailurePolicy::kRequeue: return "requeue";
    case FailurePolicy::kRequeueRestart: return "requeue-restart";
  }
  return "?";
}

std::optional<FailurePolicy> failure_policy_from_string(std::string_view name) {
  if (name == "kill") return FailurePolicy::kKill;
  if (name == "requeue") return FailurePolicy::kRequeue;
  if (name == "requeue-restart") return FailurePolicy::kRequeueRestart;
  return std::nullopt;
}

BatchSystem::BatchSystem(sim::Engine& engine, const platform::Cluster& cluster,
                         std::unique_ptr<Scheduler> scheduler, stats::Recorder& recorder,
                         BatchConfig config)
    : engine_(&engine),
      cluster_(&cluster),
      scheduler_(std::move(scheduler)),
      recorder_(&recorder),
      config_(config),
      pool_(cluster, config.placement) {
  assert(scheduler_ && "batch system needs a scheduler");
  recorder_->set_total_nodes(static_cast<int>(cluster.node_count()));
}

BatchSystem::~BatchSystem() = default;

void BatchSystem::subscribe(stats::BatchSubscriber* subscriber) {
  if (subscriber == nullptr) return;
  subscribers_.push_back(subscriber);
  explaining_ = explaining_ || subscriber->wants_explanations();
  const double interval = subscriber->sample_interval();
  if (interval > 0.0 && (sample_interval_ <= 0.0 || interval < sample_interval_)) {
    sample_interval_ = interval;
  }
}

void BatchSystem::set_flight_recorder(FlightRecorder* recorder) {
  if (recorder != nullptr) engine_->set_event_hook(&FlightRecorder::engine_event_hook, recorder);
  subscribe(recorder);
}

void BatchSystem::begin_run() { emit({.kind = Kind::kRunBegin, .count = jobs_.size()}); }

void BatchSystem::end_run() {
  emit({.kind = Kind::kRunEnd, .count = engine_->events_processed(),
        .cancel_reason = static_cast<int>(engine_->cancel_reason())});
}

const BatchSystem::Managed& BatchSystem::managed(JobId id) const {
  auto it = jobs_.find(id);
  ELSIM_CHECK(it != jobs_.end(), "managed(job {}): unknown job id", id);
  return *it->second;
}

bool BatchSystem::submit(workload::Job job) {
  if (auto error = job.validate()) {
    ELSIM_ERROR("rejecting job {}: {}", job.id, *error);
    return false;
  }
  if (job.min_nodes > static_cast<int>(cluster_->node_count())) {
    ELSIM_WARN("rejecting job {}: needs {} nodes, cluster has {}", job.id, job.min_nodes,
               cluster_->node_count());
    return false;
  }
  const double node_memory = cluster_->config().memory_bytes;
  if (job.memory_bytes_per_node > 0.0 && node_memory > 0.0 &&
      job.memory_bytes_per_node > node_memory) {
    ELSIM_WARN("rejecting job {}: needs {} bytes/node, nodes have {}", job.id,
               job.memory_bytes_per_node, node_memory);
    return false;
  }
  for (JobId dep : job.dependencies) {
    if (dep == job.id || !jobs_.count(dep)) {
      ELSIM_WARN("rejecting job {}: dependency {} not previously submitted", job.id, dep);
      return false;
    }
  }
  const JobId id = job.id;
  const double when = job.submit_time;
  auto entry = std::make_unique<Managed>();
  entry->job = std::move(job);
  const auto [slot, inserted] = jobs_.try_emplace(id, std::move(entry));
  if (!inserted) {
    ELSIM_ERROR("rejecting job {}: duplicate job id", id);
    return false;
  }
  for (JobId dep : slot->second->job.dependencies) dependents_[dep].push_back(id);
  engine_->schedule_at(when, [this, id] { enter_queue(id); });
  return true;
}

std::size_t BatchSystem::submit_all(std::vector<workload::Job> jobs) {
  std::size_t accepted = 0;
  for (workload::Job& job : jobs) accepted += submit(std::move(job)) ? 1 : 0;
  return accepted;
}

void BatchSystem::enter_queue(JobId id) {
  Managed& job = managed(id);
  assert(job.state == JobState::kPending);
  job.user_slot = recorder_->on_submit(job.job, engine_->now());
  emit({.kind = Kind::kSubmit, .job = &job.job});

  // Dependency gate: hold until every dependency finished; cancel right away
  // if one already failed.
  for (JobId dep : job.job.dependencies) {
    const Managed& parent = managed(dep);
    switch (parent.state) {
      case JobState::kFinished: break;  // satisfied
      case JobState::kKilled:
      case JobState::kCancelled:
        cancel_job(job);
        invoke_scheduler(stats::JournalCause::kCancel);
        return;
      default: job.outstanding_deps.insert(dep);
    }
  }
  if (!job.outstanding_deps.empty()) {
    job.state = JobState::kHeld;
    emit({.kind = Kind::kHeld, .job = &job.job});
    return;
  }
  job.state = JobState::kQueued;
  push_queue(job);
  emit({.kind = Kind::kQueued, .job = &job.job});
  arm_timers();
  invoke_scheduler(stats::JournalCause::kSubmit);
}

void BatchSystem::push_queue(const Managed& job) {
  queue_.push_back(queued_job(job.job, job.user_slot));
}

void BatchSystem::erase_queue(const Managed& job) {
  std::erase_if(queue_, [&job](const QueuedJob& queued) { return queued.job == &job.job; });
}

void BatchSystem::resolve_dependents(JobId id, bool succeeded) {
  auto it = dependents_.find(id);
  if (it == dependents_.end()) return;
  for (JobId child_id : it->second) {
    Managed& child = managed(child_id);
    if (child.state != JobState::kHeld) continue;  // pending or already cancelled
    if (!succeeded) {
      cancel_job(child);
      continue;
    }
    child.outstanding_deps.erase(id);
    if (child.outstanding_deps.empty()) {
      child.state = JobState::kQueued;
      push_queue(child);
      emit({.kind = Kind::kQueued, .job = &child.job});
      arm_timers();
    }
  }
}

void BatchSystem::cancel_job(Managed& job) {
  const JobId id = job.job.id;
  assert(job.state == JobState::kPending || job.state == JobState::kHeld ||
         job.state == JobState::kQueued);
  if (job.state == JobState::kQueued) erase_queue(job);
  job.state = JobState::kCancelled;
  recorder_->on_cancel(id, engine_->now());
  emit({.kind = Kind::kCancel, .job = &job.job});
  ELSIM_INFO("t={} job {} cancelled (dependency failed)", engine_->now(), id);
  // Cascade to this job's own dependents.
  resolve_dependents(id, /*succeeded=*/false);
}

// ---------------------------------------------------------------------------
// SchedulerContext
// ---------------------------------------------------------------------------

std::vector<JobId> BatchSystem::unfinished_job_ids() const {
  std::vector<JobId> ids;
  ids.reserve(queue_.size() + running_.size());
  for (const QueuedJob& queued : queue_) ids.push_back(queued->id);
  for (const RunningJob& running : running_) ids.push_back(running.job->id);
  return ids;
}

void BatchSystem::start_job(JobId id, int nodes) {
  Managed& job = managed(id);
  ELSIM_CHECK(job.state == JobState::kQueued, "start_job(job {}, {} nodes): the job is not queued",
              id, nodes);
  if (job.job.type == workload::JobType::kRigid) {
    ELSIM_CHECK(nodes == job.job.requested_nodes,
                "start_job(job {}, {} nodes): a rigid job starts at its requested {} nodes", id,
                nodes, job.job.requested_nodes);
  } else {
    ELSIM_CHECK(nodes >= job.job.min_nodes && nodes <= job.job.max_nodes,
                "start_job(job {}, {} nodes): size outside the job's range [{}, {}]", id, nodes,
                job.job.min_nodes, job.job.max_nodes);
  }
  ELSIM_CHECK(nodes <= free_nodes(), "start_job(job {}, {} nodes): only {} nodes are free", id,
              nodes, free_nodes());

  erase_queue(job);
  job.state = JobState::kRunning;
  job.start_time = engine_->now();
  assert(job.nodes.empty() && "a requeued job released its nodes");
  pool_.take(nodes, &job.job, job.nodes);
  running_.push_back({&job.job, job.start_time, nodes, nodes});
  recorder_->on_start(id, engine_->now(), nodes);
  emit({.kind = Kind::kStart, .job = &job.job, .nodes = nodes, .node_list = job.nodes});

  if (std::isfinite(job.job.walltime_limit)) {
    job.walltime_event = engine_->schedule_in(job.job.walltime_limit,
                                              [this, id] { handle_walltime(id); });
  }
  job.execution = std::make_unique<JobExecution>(
      *engine_, *cluster_, job.job, job.nodes,
      // Defer: the boundary may fire from inside another job's event; a
      // zero-delay event keeps scheduler invocations non-reentrant.
      [this, id] { engine_->schedule_in(0.0, [this, id] { process_boundary(id); }); },
      [this, id] { handle_completion(id); });
  // Only requeue-restart evictions move the checkpoint off the origin.
  if (!job.checkpoint.at_origin()) {
    emit({.kind = Kind::kRestart, .job = &job.job, .from_checkpoint = true,
          .checkpoint_phase = job.checkpoint.phase,
          .checkpoint_iteration = job.checkpoint.iteration});
  }
  job.execution->start_from(job.checkpoint, config_.restart_overhead);
}

void BatchSystem::set_target(JobId id, int nodes) {
  Managed& job = managed(id);
  ELSIM_CHECK(job.state == JobState::kRunning,
              "set_target(job {}, {} nodes): the job is not running", id, nodes);
  ELSIM_CHECK(job.job.can_resize_at_runtime(),
              "set_target(job {}, {} nodes): the job cannot resize at runtime", id, nodes);
  const int current = static_cast<int>(job.nodes.size());
  const int clamped = job.job.clamp_nodes(nodes);
  const int previous_target = job.pending_target;
  job.pending_target = clamped == current ? -1 : clamped;
  refresh_running(job);
  if (clamped != current && clamped != previous_target) {
    emit({.kind = Kind::kTarget, .job = &job.job, .nodes = clamped, .previous_nodes = current});
  }
}

// ---------------------------------------------------------------------------
// Scheduling points
// ---------------------------------------------------------------------------

void BatchSystem::process_boundary(JobId id) {
  Managed& job = managed(id);
  const auto paused = [&job] {
    return job.state == JobState::kRunning && job.execution->at_boundary();
  };
  if (!paused()) return;  // killed or evicted meanwhile
  emit({.kind = Kind::kBoundary, .job = &job.job, .nodes = static_cast<int>(job.nodes.size())});

  const int delta = job.execution->evolving_delta();
  if (delta != 0 && job.job.type == workload::JobType::kEvolving) {
    const int current = static_cast<int>(job.nodes.size());
    const int desired = job.job.clamp_nodes(current + delta);
    if (desired != current) {
      const bool granted =
          scheduler_->on_evolving_request(*this, id, desired - current);
      recorder_->on_evolving_request(id, granted);
      emit({.kind = Kind::kEvolvingRequest, .job = &job.job, .nodes = desired,
            .previous_nodes = current, .granted = granted});
      if (granted) {
        job.pending_target = desired;
        refresh_running(job);
      }
    }
  }

  // Let the scheduler revise targets with this job paused at its boundary.
  invoke_scheduler(stats::JournalCause::kBoundary);
  if (!paused()) return;  // killed by walltime during scheduling

  int target = job.pending_target >= 0 ? job.pending_target
                                       : static_cast<int>(job.nodes.size());
  job.pending_target = -1;
  refresh_running(job);
  const int current = static_cast<int>(job.nodes.size());
  if (target > current) {
    // Growth is bounded by what is free right now.
    target = std::min(target, current + free_nodes());
    target = job.job.clamp_nodes(target);
    if (target < job.job.min_nodes) target = current;
  }
  if (target == current || !job.job.can_resize_at_runtime()) {
    job.execution->resume();
    return;
  }
  apply_resize(job, target);
}

// elsim-hot: every expansion and shrink; the job's own node list carries both.
void BatchSystem::apply_resize(Managed& job, int target) {
  const JobId id = job.job.id;
  const int current = static_cast<int>(job.nodes.size());
  assert(target != current && target >= job.job.min_nodes && target <= job.job.max_nodes);
  if (target > current) {
    // Expansion: new nodes are busy from the start of redistribution.
    pool_.take(target - current, &job.job, job.nodes);
    refresh_running(job);
    recorder_->on_resize(id, engine_->now(), target);
    emit({.kind = Kind::kExpand, .job = &job.job, .nodes = target, .previous_nodes = current,
          .node_list = std::span(job.nodes).subspan(static_cast<std::size_t>(current))});
    job.execution->resume_with_nodes(job.nodes, config_.charge_reconfiguration, nullptr);
  } else {
    // Shrink: the execution moves to a prefix of the job's list now; the
    // list keeps the tail, released after redistribution. The execution's
    // node count is the target then, so the callback captures only the id
    // and fits std::function's inline buffer.
    job.execution->resume_with_nodes(
        std::span(job.nodes).first(static_cast<std::size_t>(target)),
        config_.charge_reconfiguration, [this, id] {
          Managed& shrunk = managed(id);
          const int previous = static_cast<int>(shrunk.nodes.size());
          const int kept = shrunk.execution->node_count();
          for (std::size_t i = static_cast<std::size_t>(kept); i < shrunk.nodes.size(); ++i) {
            return_node(shrunk.nodes[i]);
          }
          shrunk.nodes.resize(static_cast<std::size_t>(kept));
          refresh_running(shrunk);
          recorder_->on_resize(id, engine_->now(), kept);
          emit({.kind = Kind::kShrink, .job = &shrunk.job, .nodes = kept,
                .previous_nodes = previous});
          invoke_scheduler(stats::JournalCause::kShrinkComplete);
        });
  }
}

void BatchSystem::handle_completion(JobId id) {
  Managed& job = managed(id);
  assert(job.state == JobState::kRunning);
  job.state = JobState::kFinished;
  stop_running(job);
  recorder_->on_finish(id, engine_->now(), /*killed=*/false);
  emit({.kind = Kind::kFinish, .job = &job.job});
  resolve_dependents(id, /*succeeded=*/true);
  invoke_scheduler(stats::JournalCause::kFinish);
}

void BatchSystem::handle_walltime(JobId id) {
  Managed& job = managed(id);
  if (job.state != JobState::kRunning) return;
  job.walltime_event = sim::kInvalidEventId;  // firing right now
  job.execution->abort();
  stop_running(job);
  kill_job(job, stats::KillCause::kWalltime, 0);
  invoke_scheduler(stats::JournalCause::kWalltime);
}

void BatchSystem::return_node(platform::NodeId node) {
  const bool freed = pool_.release(node);
  if (!freed && !pool_.failed(node)) ELSIM_INFO("t={} node {} drained", engine_->now(), node);
  emit({.kind = Kind::kRelease, .node = node, .freed = freed});
}

void BatchSystem::stop_running(Managed& job) {
  if (job.walltime_event != sim::kInvalidEventId) {
    engine_->cancel(job.walltime_event);
    job.walltime_event = sim::kInvalidEventId;
  }
  for (platform::NodeId node : job.nodes) return_node(node);
  job.nodes.clear();
  std::erase_if(running_, [&job](const RunningJob& running) { return running.job == &job.job; });
}

void BatchSystem::refresh_running(const Managed& job) {
  const int nodes = static_cast<int>(job.nodes.size());
  *std::find_if(running_.begin(), running_.end(), [&job](const RunningJob& running) {
    return running.job == &job.job;
  }) = {&job.job, job.start_time, nodes, job.pending_target >= 0 ? job.pending_target : nodes};
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

bool BatchSystem::inject_failure(platform::NodeId node, double fail_time,
                                 double repair_time) {
  if (!pool_.valid_window("failure injection", node, fail_time, repair_time)) return false;
  engine_->schedule_at(fail_time, [this, node, repair_time] { fail_node(node, repair_time); });
  if (std::isfinite(repair_time)) {
    engine_->schedule_at(repair_time, [this, node] { restore_node(node); });
  }
  return true;
}

void BatchSystem::fail_node(platform::NodeId node, double repair_time) {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFault);
  if (!pool_.fail(node, repair_time)) return;  // a repeat failure extends the outage
  ELSIM_INFO("t={} node {} failed", engine_->now(), node);
  emit({.kind = Kind::kNodeFail, .node = node});
  if (const workload::Job* owner = pool_.owner(node)) evict_job(managed(owner->id), node);
  invoke_scheduler(stats::JournalCause::kFailure);
}

void BatchSystem::restore_node(platform::NodeId node) {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFault);
  // A later-injected outage may still cover this node.
  if (!pool_.restore(node, engine_->now())) return;
  ELSIM_INFO("t={} node {} restored", engine_->now(), node);
  emit({.kind = Kind::kNodeRestore, .node = node});
  if (pool_.draining(node)) ELSIM_INFO("t={} node {} repaired into drain", engine_->now(), node);
  invoke_scheduler(stats::JournalCause::kRepair);
}

bool BatchSystem::drain_node(platform::NodeId node, double when, double until) {
  if (!pool_.valid_window("drain", node, when, until)) return false;
  engine_->schedule_at(when, [this, node] { start_drain(node); });
  if (std::isfinite(until)) {
    engine_->schedule_at(until, [this, node] { undrain_node(node); });
  }
  return true;
}

void BatchSystem::start_drain(platform::NodeId node) {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFault);
  if (!pool_.drain(node)) return;
  emit({.kind = Kind::kNodeDrain, .node = node});
  if (pool_.owner(node) == nullptr && !pool_.failed(node)) {
    ELSIM_INFO("t={} node {} drained (was idle)", engine_->now(), node);
  } else {
    ELSIM_INFO("t={} node {} drain pending ({})", engine_->now(), node,
               pool_.failed(node) ? "down" : "busy");
  }
  invoke_scheduler(stats::JournalCause::kMaintenance);
}

void BatchSystem::undrain_node(platform::NodeId node) {
  ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kFault);
  // A busy or failed node never counted as drained; its release or repair
  // frees it.
  if (!pool_.undrain(node)) return;
  emit({.kind = Kind::kNodeUndrain, .node = node});
  ELSIM_INFO("t={} node {} back in service", engine_->now(), node);
  invoke_scheduler(stats::JournalCause::kMaintenance);
}

void BatchSystem::kill_job(Managed& job, stats::KillCause cause, platform::NodeId failed_node) {
  const stats::BatchEvent killed{.kind = Kind::kKill, .job = &job.job, .node = failed_node,
                                 .kill_cause = cause};
  ELSIM_INFO("t={} job {} killed ({})", engine_->now(), job.job.id, killed);
  job.state = JobState::kKilled;
  recorder_->on_finish(job.job.id, engine_->now(), /*killed=*/true);
  emit(killed);
  resolve_dependents(job.job.id, /*succeeded=*/false);
}

void BatchSystem::evict_job(Managed& job, platform::NodeId failed_node) {
  const JobId id = job.job.id;
  assert(job.state == JobState::kRunning);
  const double now = engine_->now();
  const int allocation = static_cast<int>(job.nodes.size());
  // Account the discarded work *before* tearing the execution down: a plain
  // requeue loses the whole attempt; requeue-restart only the span since the
  // last durable checkpoint.
  const bool restartable = config_.failure_policy == FailurePolicy::kRequeueRestart;
  const double anchor = restartable ? job.execution->durable_time() : job.start_time;
  const double lost_seconds = std::max(0.0, now - anchor);
  const double lost_node_seconds = lost_seconds * allocation;
  if (restartable) job.checkpoint = job.execution->durable_progress();
  job.execution->abort();
  stop_running(job);
  job.execution.reset();
  job.pending_target = -1;
  if (config_.failure_policy == FailurePolicy::kKill) {
    kill_job(job, stats::KillCause::kNodeFailure, failed_node);
    return;
  }
  ++job.requeue_count;
  if (config_.max_requeues > 0 && job.requeue_count > config_.max_requeues) {
    kill_job(job, stats::KillCause::kMaxRequeues, failed_node);
    return;
  }
  ELSIM_INFO("t={} job {} requeued after node failure ({} node-seconds lost)", now, id,
             lost_node_seconds);
  job.state = JobState::kQueued;
  job.start_time = -1.0;
  recorder_->on_requeue(id, now, lost_node_seconds, lost_seconds);
  emit({.kind = Kind::kRequeue, .job = &job.job, .previous_nodes = allocation,
        .node = failed_node, .lost_node_seconds = lost_node_seconds,
        .from_checkpoint = restartable && !job.checkpoint.at_origin(),
        .checkpoint_phase = job.checkpoint.phase,
        .checkpoint_iteration = job.checkpoint.iteration});
  push_queue(job);
}

// ---------------------------------------------------------------------------
// Scheduler invocation
// ---------------------------------------------------------------------------

// elsim-hot: the scheduling-point scan; fires on submit/finish/boundary.
void BatchSystem::invoke_scheduler(stats::JournalCause cause) {
  if (in_scheduler_) {
    rerun_scheduler_ = true;
    return;
  }
  in_scheduler_ = true;
  emit({.kind = Kind::kSchedulingBegin, .cause = cause});
  std::uint32_t rounds = 0;
  {
    ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kScheduler);
    do {
      rerun_scheduler_ = false;
      scheduler_jobs_scanned_ += static_cast<std::uint64_t>(queue_.size() + running_.size());
      // elsim-lint: allow(hot-virtual-loop) -- the virtual call IS the scheduler plugin API; one dispatch per convergence round, not per job
      scheduler_->schedule(*this);
      if (++rounds > 1000) {
        ELSIM_ERROR("scheduler did not converge after 1000 rounds at t={}; giving up",
                    // elsim-lint: allow(hot-virtual-loop) -- divergence error path, reached at most once per run; Engine::now is also non-virtual (name collides with SchedulerContext::now)
                    engine_->now());
        break;
      }
    } while (rerun_scheduler_);
  }
  ++scheduler_invocations_;
  scheduler_rounds_ += rounds;
  {
    ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kSinks);
    emit({.kind = Kind::kSchedulingEnd, .cause = cause, .rounds = rounds, .queue = queue_,
          .count = engine_->events_processed(), .pending_events = engine_->pending_events()});
  }
  in_scheduler_ = false;
}

bool BatchSystem::test_corrupt_double_allocation(workload::JobId id) {
  const Managed& job = managed(id);
  if (job.nodes.empty()) return false;
  pool_.test_corrupt_free_set(job.nodes.front());
  return true;
}

bool BatchSystem::test_corrupt_queue_key(workload::JobId id) {
  const auto entry = std::ranges::find(queue_, id, [](const QueuedJob& queued) {
    return queued->id;
  });
  if (entry == queue_.end()) return false;
  ++entry->min_start;
  return true;
}

bool BatchSystem::test_corrupt_user_slot(workload::JobId id) {
  const auto entry = std::ranges::find(queue_, id, [](const QueuedJob& queued) {
    return queued->id;
  });
  if (entry == queue_.end()) return false;
  ++entry->user;
  ++managed(id).user_slot;
  return true;
}

std::size_t BatchSystem::held_jobs() const {
  std::size_t held = 0;
  // elsim-lint: allow(unordered-iteration) -- counts only
  for (const auto& [id, job] : jobs_) held += job->state == JobState::kHeld;
  return held;
}

std::optional<std::string> BatchSystem::check(bool all_jobs) const {
  const std::size_t total = cluster_->node_count();
  held_marks_.assign(total, 0);
  for (const RunningJob& entry : running_) {
    const JobId id = entry.job->id;
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->state != JobState::kRunning) {
      return util::fmt("running list holds job {} which is not running", id);
    }
    const Managed& job = *it->second;
    const int nodes = static_cast<int>(job.nodes.size());
    const auto view = [id](const std::string& what) {
      return util::fmt("running view of job {}: {}", id, what);
    };
    if (entry.job != &job.job) return view("points at another job's record");
    if (std::bit_cast<std::uint64_t>(entry.start_time) !=
        std::bit_cast<std::uint64_t>(job.start_time)) {
      return view(util::fmt("start_time {}, record has {}", entry.start_time, job.start_time));
    }
    if (entry.nodes != nodes) {
      return view(util::fmt("nodes {}, record holds {}", entry.nodes, nodes));
    }
    if (entry.pending_target != (job.pending_target >= 0 ? job.pending_target : nodes)) {
      return view(job.pending_target >= 0
                      ? util::fmt("pending_target {}, record has {}", entry.pending_target,
                                  job.pending_target)
                      : util::fmt("pending_target {}, record has none ({} nodes)",
                                  entry.pending_target, nodes));
    }
    if (job.nodes.empty()) return util::fmt("job {} is running but holds no nodes", id);
    for (platform::NodeId node : job.nodes) {
      if (node >= total) {
        return util::fmt("job {} holds node {} outside the {}-node cluster", id, node, total);
      }
      const workload::Job* owner = pool_.owner(node);
      if (owner != &job.job) {
        return owner != nullptr
                   ? util::fmt("node {} allocated to both job {} and job {}", node, id, owner->id)
                   : util::fmt("node {} allocated to job {} has no owner in the node table",
                               node, id);
      }
      if (pool_.failed(node)) return util::fmt("job {} occupies failed node {}", id, node);
      if (held_marks_[node]++ != 0) {
        return util::fmt("node {} is owned by job {}, which holds it {} times", node, id,
                         std::count(job.nodes.begin(), job.nodes.end(), node));
      }
    }
  }
  // Every held node is owned by its one holder; an owned node nobody holds
  // has an owner that is not running, or one that lost track of it.
  for (platform::NodeId node = 0; node < total; ++node) {
    const workload::Job* owner = pool_.owner(node);
    if (owner == nullptr || held_marks_[node] != 0) continue;
    const Managed& job = managed(owner->id);
    return job.state != JobState::kRunning
               ? util::fmt("node {} is owned by job {}, which is {}", node, owner->id,
                           state_name(static_cast<int>(job.state)))
               : util::fmt("node {} is owned by job {}, which holds it 0 times", node, owner->id);
  }
  if (auto error = pool_.check()) return error;
  return all_jobs ? check_jobs() : std::nullopt;
}

std::optional<std::string> BatchSystem::check_jobs() const {
  std::size_t waiting = 0, queued = 0, running = 0;
  const Managed* stray = nullptr;  // the lowest-id job holding nodes while not running
  // elsim-lint: allow(unordered-iteration) -- counts, and a minimum by id
  for (const auto& [id, job] : jobs_) {
    switch (job->state) {
      case JobState::kPending:
      case JobState::kHeld: ++waiting; break;
      case JobState::kQueued: ++queued; break;
      case JobState::kRunning: ++running; continue;
      case JobState::kFinished:
      case JobState::kKilled:
      case JobState::kCancelled: break;
    }
    if (!job->nodes.empty() && (stray == nullptr || id < stray->job.id)) stray = job.get();
  }
  if (stray != nullptr) {
    return util::fmt("job {} is {} but still holds {} nodes (first: node {})", stray->job.id,
                     state_name(static_cast<int>(stray->state)), stray->nodes.size(),
                     stray->nodes.front());
  }
  if (queue_.size() != queued) {
    return util::fmt("queue lists {} jobs but {} jobs are queued", queue_.size(), queued);
  }
  for (const QueuedJob& entry : queue_) {
    const auto it = jobs_.find(entry->id);
    if (it == jobs_.end() || &it->second->job != entry.job ||
        it->second->state != JobState::kQueued) {
      return util::fmt("queue lists job {} which is not queued", entry->id);
    }
    // The user slot too is re-derived, from the job's user name: the slot
    // the entry was filled from could itself be wrong.
    const workload::Job& job = it->second->job;
    const std::optional<std::uint32_t> slot = recorder_->user_slot(job.user);
    if (!slot) {
      return util::fmt("queue lists job {} of user '{}', who never submitted", job.id, job.user);
    }
    const QueuedJob keys = queued_job(job, *slot);
    const auto stale = [&entry](const char* key, auto listed, auto derived) {
      return util::fmt("queue entry of job {}: {} {}, its job gives {}", entry->id, key, listed,
                       derived);
    };
    if (entry.min_start != keys.min_start) {
      return stale("min_start", entry.min_start, keys.min_start);
    }
    if (entry.preferred_start != keys.preferred_start) {
      return stale("preferred_start", entry.preferred_start, keys.preferred_start);
    }
    if (std::bit_cast<std::uint64_t>(entry.walltime_limit) !=
        std::bit_cast<std::uint64_t>(keys.walltime_limit)) {
      return stale("walltime_limit", entry.walltime_limit, keys.walltime_limit);
    }
    if (entry.user != keys.user) return stale("user slot", entry.user, keys.user);
  }
  if (running_.size() != running) {
    return util::fmt("running list holds {} jobs but {} jobs hold allocations", running_.size(),
                     running);
  }
  // The recorder charges usage to exactly the running jobs, each listed
  // under its owner's slot in the per-user index fair-share sums.
  if (recorder_->running_count() != running) {
    return util::fmt("the recorder counts {} running jobs, {} are running",
                     recorder_->running_count(), running);
  }
  for (const RunningJob& entry : running_) {
    if (!recorder_->is_running(entry.job->id)) {
      return util::fmt("running job {} is not running in the recorder", entry.job->id);
    }
  }
  if (auto error = recorder_->check_user_index()) return error;
  if (unfinished() != waiting + queued + running) {
    return util::fmt("unfinished counter is {} but {} jobs are unfinished", unfinished(),
                     waiting + queued + running);
  }
  return std::nullopt;
}

void BatchSystem::explain(workload::JobId id, stats::HoldReason reason, std::string detail) {
  if (!explaining_) return;
  emit({.kind = Kind::kExplain, .job = &managed(id).job, .reason = reason, .text = detail});
}

void BatchSystem::emit(stats::BatchEvent event) {
  switch (event.kind) {
    case Kind::kFinish: ++tallies_.finished; break;
    case Kind::kKill: ++tallies_.killed; break;
    case Kind::kCancel: ++tallies_.cancelled; break;
    case Kind::kExpand: ++tallies_.expansions; break;
    case Kind::kShrink: ++tallies_.shrinks; break;
    case Kind::kEvolvingRequest:
      if (event.granted) ++tallies_.evolving_grants;
      break;
    case Kind::kRestart: ++tallies_.checkpoint_restarts; break;
    case Kind::kRequeue:
      ++tallies_.requeues;
      tallies_.lost_node_seconds += event.lost_node_seconds;
      break;
    default: break;
  }
  if (subscribers_.empty()) return;
  event.time = engine_->now();
  event.state = {static_cast<int>(queue_.size()),
                 static_cast<int>(running_.size()),
                 static_cast<int>(pool_.free_set().size()),
                 static_cast<int>(pool_.failed_count()),
                 static_cast<int>(pool_.drained_count()),
                 static_cast<int>(cluster_->node_count()),
                 tallies_};
  // elsim-lint: allow(hot-virtual-loop) -- the virtual call IS the subscriber API; one dispatch per subscriber per event
  for (stats::BatchSubscriber* subscriber : subscribers_) subscriber->on_event(event);
}

void BatchSystem::arm_timers() {
  arm_periodic(config_.scheduling_interval, timer_armed_,
               [this] { invoke_scheduler(stats::JournalCause::kTimer); });
  arm_periodic(sample_interval_, sample_timer_armed_, [this] { emit({.kind = Kind::kSample}); });
}

void BatchSystem::arm_periodic(double interval, bool& armed, std::function<void()> tick) {
  if (interval <= 0.0 || armed) return;
  armed = true;
  engine_->schedule_in(interval, [this, interval, &armed, tick] {
    armed = false;
    if (unfinished() == 0) return;  // let the simulation drain
    tick();
    // Re-arm only while another event can still change the state: with
    // nothing but the periodic timers pending, the remaining jobs can never
    // start, and re-arming would keep a frozen run alive forever.
    const std::size_t timers = (timer_armed_ ? 1 : 0) + (sample_timer_armed_ ? 1 : 0);
    if (engine_->pending_events() > timers) arm_periodic(interval, armed, tick);
  });
}

}  // namespace elastisim::core
