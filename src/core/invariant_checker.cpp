#include "core/invariant_checker.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "core/batch_system.h"
#include "platform/cluster.h"
#include "sim/engine.h"
#include "sim/time.h"
#include "stats/journal.h"
#include "stats/state_sampler.h"
#include "stats/trace.h"
#include "util/fmt.h"

namespace elastisim::core {

using workload::JobId;

namespace {

/// BatchSystem::JobState names, in declaration order.
const char* state_name(int state) {
  static constexpr const char* kNames[] = {"pending",  "held",   "queued",   "running",
                                           "finished", "killed", "cancelled"};
  return kNames[state];
}

}  // namespace

void InvariantChecker::attach(BatchSystem& batch) {
  sim::Engine& engine = *batch.engine_;
  engine.set_event_validator(
      [this, &engine](sim::SimTime now) { on_engine_event(engine, now); });
  for (stats::BatchSubscriber* subscriber : batch.subscribers_) {
    if (auto* trace = dynamic_cast<const stats::EventTrace*>(subscriber)) trace_ = trace;
    if (auto* journal = dynamic_cast<const stats::DecisionJournal*>(subscriber)) {
      journal_ = journal;
    }
    if (auto* sampler = dynamic_cast<const stats::StateSampler*>(subscriber)) {
      sampler_ = sampler;
    }
  }
  batch_ = &batch;
  batch.subscribe(this);
}

void InvariantChecker::on_event(const stats::BatchEvent& event) {
  if (event.kind == stats::BatchEventKind::kSchedulingBegin) {
    begin_seen_ = true;
    begin_queued_ = static_cast<int>(batch_->queue_.size());
    begin_running_ = static_cast<int>(batch_->running_.size());
    begin_free_ = static_cast<int>(batch_->free_nodes_.size());
    begin_total_ = batch_->total_nodes();
    begin_journal_size_ = journal_ ? journal_->size() : 0;
  } else if (event.kind == stats::BatchEventKind::kSchedulingEnd) {
    ++checks_;
    const BatchSystem& batch = *batch_;
    const double now = batch.engine_->now();
    if (now + sim::kTimeEpsilon < last_point_time_) {
      fail(&batch, now,
           util::fmt("scheduling point at {} after one at {}", now, last_point_time_));
    }
    last_point_time_ = std::max(last_point_time_, now);
    check_allocations(batch, now);
    if (++points_since_job_walk_ >= kJobWalkStride) {
      points_since_job_walk_ = 0;
      check_jobs(batch, now);
    }
    check_sinks(batch);
    begin_seen_ = false;
  }
}

void InvariantChecker::on_engine_event(sim::Engine& engine, double now) {
  ++events_checked_;
  if (now + sim::kTimeEpsilon < last_event_time_) {
    fail(nullptr, now,
         util::fmt("engine clock moved backwards: {} after {}", now, last_event_time_));
  }
  last_event_time_ = std::max(last_event_time_, now);
  if (++events_since_fluid_check_ >= kFluidStride) {
    events_since_fluid_check_ = 0;
    if (auto error = engine.fluid().check_invariants()) fail(nullptr, now, *error);
  }
}

void InvariantChecker::check_allocations(const BatchSystem& batch, double now) const {
  const auto running = [](const BatchSystem::Managed& job) {
    return job.state == BatchSystem::JobState::kRunning;
  };
  const std::size_t total = batch.nodes_.size();
  std::size_t held = 0;
  for (const RunningJob& entry : batch.running_) {
    const JobId id = entry.job->id;
    const auto it = batch.jobs_.find(id);
    if (it == batch.jobs_.end() || !running(*it->second)) {
      fail(&batch, now, util::fmt("running list holds job {} which is not running", id));
    }
    const BatchSystem::Managed& job = *it->second;
    const int nodes = static_cast<int>(job.nodes.size());
    const auto view = [&](const std::string& what) {
      fail(&batch, now, util::fmt("running view of job {}: {}", id, what));
    };
    if (entry.job != &job.job) view("points at another job's record");
    if (std::bit_cast<std::uint64_t>(entry.start_time) !=
        std::bit_cast<std::uint64_t>(job.start_time)) {
      view(util::fmt("start_time {}, record has {}", entry.start_time, job.start_time));
    }
    if (entry.nodes != nodes) view(util::fmt("nodes {}, record holds {}", entry.nodes, nodes));
    if (entry.pending_target != (job.pending_target >= 0 ? job.pending_target : nodes)) {
      view(job.pending_target >= 0
               ? util::fmt("pending_target {}, record has {}", entry.pending_target,
                           job.pending_target)
               : util::fmt("pending_target {}, record has none ({} nodes)",
                           entry.pending_target, nodes));
    }
    if (job.nodes.empty()) {
      fail(&batch, now, util::fmt("job {} is {} but holds no nodes", id,
                                  state_name(static_cast<int>(job.state))));
    }
    for (platform::NodeId node : job.nodes) {
      if (node >= total) {
        fail(&batch, now,
             util::fmt("job {} holds node {} outside the {}-node cluster", id, node, total));
      }
      const BatchSystem::NodeStatus& status = batch.nodes_[node];
      if (status.owner != &job) {
        fail(&batch, now,
             status.owner != nullptr
                 ? util::fmt("node {} allocated to both job {} and job {}", node, id,
                             status.owner->job.id)
                 : util::fmt("node {} allocated to job {} has no owner in the node table",
                             node, id));
      }
      if (status.failed) fail(&batch, now, util::fmt("job {} occupies failed node {}", id, node));
    }
    held += job.nodes.size();
  }

  // Walk the node table by id alongside the (sorted) free pool.
  std::size_t owned = 0, failed = 0, drained = 0;
  auto free_it = batch.free_nodes_.begin();
  for (platform::NodeId node = 0; node < total; ++node) {
    const BatchSystem::NodeStatus& status = batch.nodes_[node];
    const bool listed_free = free_it != batch.free_nodes_.end() && *free_it == node;
    if (listed_free) ++free_it;
    const bool idle = status.owner == nullptr && !status.failed && !status.drain;
    if (listed_free != idle) {
      fail(&batch, now,
           !listed_free ? util::fmt("idle node {} is missing from the free pool", node)
           : status.owner != nullptr
               ? util::fmt("node {} allocated to job {} is also in the free pool", node,
                           status.owner->job.id)
               : util::fmt("node {} is both free and {}", node,
                           status.failed ? "failed" : "drained"));
    }
    if (status.owner != nullptr && !running(*status.owner)) {
      fail(&batch, now, util::fmt("node {} is owned by job {}, which is {}", node,
                                  status.owner->job.id,
                                  state_name(static_cast<int>(status.owner->state))));
    }
    owned += status.owner != nullptr;
    failed += status.failed;
    drained += status.drain && !status.failed && status.owner == nullptr;
  }
  if (free_it != batch.free_nodes_.end()) {
    fail(&batch, now, util::fmt("free pool holds node {} outside the cluster", *free_it));
  }
  // Each held node is owned by its holder and each owner is running, so a
  // count mismatch means some owner holds its node other than once: name the
  // lowest such node.
  for (platform::NodeId node = 0; owned != held && node < total; ++node) {
    const BatchSystem::Managed* owner = batch.nodes_[node].owner;
    const auto copies =
        owner ? std::count(owner->nodes.begin(), owner->nodes.end(), node) : std::ptrdiff_t{1};
    if (copies != 1) {
      fail(&batch, now, util::fmt("node {} is owned by job {}, which holds it {} times", node,
                                  owner->job.id, copies));
    }
  }
  if (failed != batch.failed_count_ || drained != batch.drained_count_) {
    fail(&batch, now,
         util::fmt("node counters say {} failed and {} drained, the node table {} and {}",
                   batch.failed_count_, batch.drained_count_, failed, drained));
  }
}

void InvariantChecker::check_jobs(const BatchSystem& batch, double now) const {
  using JobState = BatchSystem::JobState;
  std::size_t waiting = 0, queued = 0, running = 0;
  bool stray_nodes = false;
  // elsim-lint: allow(unordered-iteration) -- counts only; a stray holder is named in id order
  for (const auto& [id, job] : batch.jobs_) {
    switch (job->state) {
      case JobState::kPending:
      case JobState::kHeld: ++waiting; break;
      case JobState::kQueued: ++queued; break;
      case JobState::kRunning: ++running; continue;
      case JobState::kFinished:
      case JobState::kKilled:
      case JobState::kCancelled: break;
    }
    stray_nodes = stray_nodes || !job->nodes.empty();
  }
  if (stray_nodes) {
    std::vector<JobId> ids;
    // elsim-lint: allow(unordered-iteration) -- collected into a sorted vector
    for (const auto& [id, job] : batch.jobs_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (JobId id : ids) {
      const BatchSystem::Managed& job = *batch.jobs_.at(id);
      if (job.state != JobState::kRunning && !job.nodes.empty()) {
        fail(&batch, now,
             util::fmt("job {} is {} but still holds {} nodes (first: node {})", id,
                       state_name(static_cast<int>(job.state)), job.nodes.size(),
                       job.nodes.front()));
      }
    }
  }
  if (batch.queue_.size() != queued) {
    fail(&batch, now, util::fmt("queue lists {} jobs but {} jobs are queued",
                                batch.queue_.size(), queued));
  }
  for (QueuedJob entry : batch.queue_) {
    const auto it = batch.jobs_.find(entry->id);
    if (it == batch.jobs_.end() || &it->second->job != entry ||
        it->second->state != JobState::kQueued) {
      fail(&batch, now, util::fmt("queue lists job {} which is not queued", entry->id));
    }
  }
  if (batch.running_.size() != running) {
    fail(&batch, now, util::fmt("running list holds {} jobs but {} jobs hold allocations",
                                batch.running_.size(), running));
  }
  if (batch.unfinished() != waiting + queued + running) {
    fail(&batch, now, util::fmt("unfinished counter is {} but {} jobs are unfinished",
                                batch.unfinished(), waiting + queued + running));
  }
}

void InvariantChecker::check_sinks(const BatchSystem& batch) {
  const double now = batch.engine_->now();

  if (trace_ != nullptr) {
    const auto& entries = trace_->entries();
    for (std::size_t i = last_trace_checked_; i < entries.size(); ++i) {
      const stats::TraceEntry& entry = entries[i];
      if (entry.seq <= last_trace_seq_) {
        fail(&batch, now, util::fmt("trace seq not monotonic: seq {} after seq {}",
                                    entry.seq, last_trace_seq_));
      }
      if (entry.time + sim::kTimeEpsilon < last_trace_time_) {
        fail(&batch, now, util::fmt("trace time moved backwards: t={} (seq {}) after t={}",
                                    entry.time, entry.seq, last_trace_time_));
      }
      last_trace_seq_ = entry.seq;
      last_trace_time_ = std::max(last_trace_time_, entry.time);
    }
    last_trace_checked_ = entries.size();
  }

  if (journal_ != nullptr && begin_seen_ && journal_->size() > begin_journal_size_) {
    // The record this scheduling point committed must carry the snapshot the
    // scheduler actually saw (captured by the begin hook).
    const stats::JournalRecord& record = journal_->records()[begin_journal_size_];
    if (record.seq <= last_journal_seq_) {
      fail(&batch, now, util::fmt("journal seq not monotonic: seq {} after seq {}",
                                  record.seq, last_journal_seq_));
    }
    last_journal_seq_ = record.seq;
    if (record.queued != begin_queued_ || record.running != begin_running_ ||
        record.free_nodes != begin_free_ || record.total_nodes != begin_total_) {
      fail(&batch, now,
           util::fmt("journal record {} snapshot ({} queued, {} running, {} free, {} total) "
                     "disagrees with the live queue ({} queued, {} running, {} free, "
                     "{} total)",
                     record.seq, record.queued, record.running, record.free_nodes,
                     record.total_nodes, begin_queued_, begin_running_, begin_free_,
                     begin_total_));
    }
  }

  if (sampler_ != nullptr && !sampler_->samples().empty()) {
    const stats::StateSample& sample = sampler_->samples().back();
    const int queued = static_cast<int>(batch.queue_.size());
    const int running = static_cast<int>(batch.running_.size());
    const int free_nodes = static_cast<int>(batch.free_nodes_.size());
    const int down = static_cast<int>(batch.failed_count_ + batch.drained_count_);
    const int total = static_cast<int>(batch.cluster_->node_count());
    if (sample.queued != queued || sample.running != running ||
        sample.free_nodes != free_nodes || sample.down != down || sample.total != total) {
      fail(&batch, now,
           util::fmt("latest state sample ({} queued, {} running, {} free, {} down) "
                     "disagrees with the live state ({} queued, {} running, {} free, "
                     "{} down)",
                     sample.queued, sample.running, sample.free_nodes, sample.down, queued,
                     running, free_nodes, down));
    }
  }

  if (auto error = batch.engine_->fluid().check_invariants()) fail(&batch, now, *error);
}

void InvariantChecker::fail(const BatchSystem* batch, double now,
                            const std::string& what) const {
  std::uint64_t seq = 0;
  if (batch != nullptr && journal_ != nullptr && !journal_->records().empty()) {
    seq = journal_->records().back().seq;
  }
  throw InvariantViolation(
      util::fmt("invariant violation at t={}: {} (last journal seq {})", now, what, seq));
}

}  // namespace elastisim::core
