#include "core/invariant_checker.h"

#include <algorithm>
#include <bit>
#include <map>
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

const char* state_name(int state) {
  switch (state) {
    case 0: return "pending";
    case 1: return "held";
    case 2: return "queued";
    case 3: return "running";
    case 4: return "at-boundary";
    case 5: return "finished";
    case 6: return "killed";
    case 7: return "cancelled";
  }
  return "?";
}

/// Whether the running-list entry matches its job's record: the record's
/// job, start time (bit for bit), allocation size, and pending target (the
/// size itself when none is pending).
bool entry_matches(const RunningJob& entry, const workload::Job& job, double start_time,
                   std::size_t nodes, int pending_target) {
  const int size = static_cast<int>(nodes);
  return entry.job == &job &&
         std::bit_cast<std::uint64_t>(entry.start_time) ==
             std::bit_cast<std::uint64_t>(start_time) &&
         entry.nodes == size &&
         entry.pending_target == (pending_target >= 0 ? pending_target : size);
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
    check_batch_state(*batch_);
    check_sinks(*batch_);
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
  if (++events_since_fluid_check_ >= fluid_stride_) {
    events_since_fluid_check_ = 0;
    if (auto error = engine.fluid().check_invariants()) fail(nullptr, now, *error);
  }
}

void InvariantChecker::check_batch_state(const BatchSystem& batch) {
  const double now = batch.engine_->now();

  if (now + sim::kTimeEpsilon < last_point_time_) {
    fail(&batch, now,
         util::fmt("scheduling point at {} after one at {}", now, last_point_time_));
  }
  last_point_time_ = std::max(last_point_time_, now);

  // Fast allocation-free detection first; the sorted walk that composes a
  // deterministic diagnostic runs only once something is actually broken.
  // The O(active) check runs at every point, the O(all jobs) walk on a
  // stride (violations are persistent, so it still catches them).
  bool ok = quick_state_ok(batch);
  if (ok && ++points_since_full_walk_ >= full_state_stride_) {
    points_since_full_walk_ = 0;
    ok = batch_state_ok(batch);
  }
  if (ok) return;
  check_batch_state_detailed(batch);
  // The detailed walk re-detects everything the fast passes can; reaching
  // here means the passes disagree, which is itself a checker bug.
  fail(&batch, now, "state anomaly detected but not attributable");
}

bool InvariantChecker::quick_state_ok(const BatchSystem& batch) {
  const std::size_t total = batch.cluster_->node_count();
  using JobState = BatchSystem::JobState;
  constexpr std::uint64_t kNoOwner = ~std::uint64_t{0};

  owner_scratch_.assign(total, kNoOwner);
  std::size_t allocated = 0;
  for (const RunningJob& entry : batch.running_) {
    const workload::JobId id = entry.job->id;
    const auto it = batch.jobs_.find(id);
    if (it == batch.jobs_.end()) return false;
    const BatchSystem::Managed& job = *it->second;
    if (job.state != JobState::kRunning && job.state != JobState::kAtBoundary) return false;
    if (job.nodes.empty()) return false;
    if (!entry_matches(entry, job.job, job.start_time, job.nodes.size(), job.pending_target)) {
      return false;
    }
    for (platform::NodeId node : job.nodes) {
      if (node >= total) return false;
      if (owner_scratch_[node] != kNoOwner) return false;
      owner_scratch_[node] = id;
      ++allocated;
      if (batch.free_nodes_.count(node) != 0 || batch.failed_nodes_.count(node) != 0 ||
          batch.drained_nodes_.count(node) != 0) {
        return false;
      }
    }
  }
  for (platform::NodeId node : batch.free_nodes_) {
    if (node >= total || batch.failed_nodes_.count(node) != 0 ||
        batch.drained_nodes_.count(node) != 0) {
      return false;
    }
  }
  for (platform::NodeId node : batch.failed_nodes_) {
    if (node >= total || batch.drained_nodes_.count(node) != 0) return false;
  }
  for (platform::NodeId node : batch.drained_nodes_) {
    if (node >= total) return false;
  }
  return allocated + batch.free_nodes_.size() + batch.failed_nodes_.size() +
             batch.drained_nodes_.size() ==
         total;
}

bool InvariantChecker::batch_state_ok(const BatchSystem& batch) {
  using JobState = BatchSystem::JobState;
  std::size_t pending = 0, held = 0, queued = 0, running = 0, at_boundary = 0;
  // elsim-lint: allow(unordered-iteration) -- detection only; order-independent
  for (const auto& entry : batch.jobs_) {
    const BatchSystem::Managed& job = *entry.second;
    switch (job.state) {
      case JobState::kPending: ++pending; break;
      case JobState::kHeld: ++held; break;
      case JobState::kQueued: ++queued; break;
      case JobState::kRunning: ++running; break;
      case JobState::kAtBoundary: ++at_boundary; break;
      case JobState::kFinished:
      case JobState::kKilled:
      case JobState::kCancelled: break;
    }
    const bool holds_allocation =
        job.state == JobState::kRunning || job.state == JobState::kAtBoundary;
    if (holds_allocation == job.nodes.empty()) return false;
  }
  if (batch.queue_.size() != queued) return false;
  for (QueuedJob entry : batch.queue_) {
    const auto it = batch.jobs_.find(entry->id);
    if (it == batch.jobs_.end() || &it->second->job != entry ||
        it->second->state != JobState::kQueued) {
      return false;
    }
  }
  // quick_state_ok() already saw each running entry exactly once, running.
  if (batch.running_.size() != running + at_boundary) return false;
  return batch.unfinished() == pending + held + queued + running + at_boundary;
}

void InvariantChecker::check_batch_state_detailed(const BatchSystem& batch) {
  const double now = batch.engine_->now();
  const std::size_t total = batch.cluster_->node_count();
  using JobState = BatchSystem::JobState;

  // Walk jobs in ascending id so the first violation reported is the same
  // across runs regardless of hash order.
  std::vector<JobId> ids;
  ids.reserve(batch.jobs_.size());
  // elsim-lint: allow(unordered-iteration) -- collected into a sorted vector
  for (const auto& entry : batch.jobs_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());

  std::map<platform::NodeId, JobId> owner;
  std::size_t pending = 0, held = 0, queued = 0, running = 0, at_boundary = 0;
  for (JobId id : ids) {
    const BatchSystem::Managed& job = *batch.jobs_.at(id);
    switch (job.state) {
      case JobState::kPending: ++pending; break;
      case JobState::kHeld: ++held; break;
      case JobState::kQueued: ++queued; break;
      case JobState::kRunning: ++running; break;
      case JobState::kAtBoundary: ++at_boundary; break;
      case JobState::kFinished:
      case JobState::kKilled:
      case JobState::kCancelled: break;
    }
    const bool holds_allocation =
        job.state == JobState::kRunning || job.state == JobState::kAtBoundary;
    if (!holds_allocation && !job.nodes.empty()) {
      fail(&batch, now,
           util::fmt("job {} is {} but still holds {} nodes (first: node {})", id,
                     state_name(static_cast<int>(job.state)), job.nodes.size(),
                     job.nodes.front()));
    }
    if (holds_allocation && job.nodes.empty()) {
      fail(&batch, now, util::fmt("job {} is {} but holds no nodes", id,
                                  state_name(static_cast<int>(job.state))));
    }
    for (platform::NodeId node : job.nodes) {
      if (node >= total) {
        fail(&batch, now,
             util::fmt("job {} holds node {} outside the {}-node cluster", id, node, total));
      }
      const auto [it, inserted] = owner.emplace(node, id);
      if (!inserted) {
        fail(&batch, now, util::fmt("node {} allocated to both job {} and job {}", node,
                                    it->second, id));
      }
      if (batch.free_nodes_.count(node) != 0) {
        fail(&batch, now,
             util::fmt("node {} allocated to job {} is also in the free pool", node, id));
      }
      if (batch.failed_nodes_.count(node) != 0) {
        fail(&batch, now, util::fmt("job {} occupies failed node {}", id, node));
      }
      if (batch.drained_nodes_.count(node) != 0) {
        fail(&batch, now, util::fmt("job {} occupies drained node {}", id, node));
      }
    }
  }

  // The free/failed/drained pools must be pairwise disjoint and within
  // bounds; together with the allocation map they must partition the
  // cluster: allocated + free + down == total.
  for (platform::NodeId node : batch.free_nodes_) {
    if (node >= total) {
      fail(&batch, now, util::fmt("free pool holds node {} outside the cluster", node));
    }
    if (batch.failed_nodes_.count(node) != 0) {
      fail(&batch, now, util::fmt("node {} is both free and failed", node));
    }
    if (batch.drained_nodes_.count(node) != 0) {
      fail(&batch, now, util::fmt("node {} is both free and drained", node));
    }
  }
  for (platform::NodeId node : batch.failed_nodes_) {
    if (node >= total) {
      fail(&batch, now, util::fmt("failed pool holds node {} outside the cluster", node));
    }
    if (batch.drained_nodes_.count(node) != 0) {
      fail(&batch, now, util::fmt("node {} is both failed and drained", node));
    }
  }
  for (platform::NodeId node : batch.drained_nodes_) {
    if (node >= total) {
      fail(&batch, now, util::fmt("drained pool holds node {} outside the cluster", node));
    }
  }
  const std::size_t accounted = owner.size() + batch.free_nodes_.size() +
                                batch.failed_nodes_.size() + batch.drained_nodes_.size();
  if (accounted != total) {
    fail(&batch, now,
         util::fmt("node conservation broken: {} allocated + {} free + {} failed + "
                   "{} drained != {} total",
                   owner.size(), batch.free_nodes_.size(), batch.failed_nodes_.size(),
                   batch.drained_nodes_.size(), total));
  }

  // The queue and running lists must agree with the per-job states, and
  // each running entry with its job's record.
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
  if (batch.running_.size() != running + at_boundary) {
    fail(&batch, now, util::fmt("running list holds {} jobs but {} jobs hold allocations",
                                batch.running_.size(), running + at_boundary));
  }
  for (const RunningJob& entry : batch.running_) {
    const JobId id = entry.job->id;
    const auto it = batch.jobs_.find(id);
    if (it == batch.jobs_.end() || (it->second->state != JobState::kRunning &&
                                    it->second->state != JobState::kAtBoundary)) {
      fail(&batch, now, util::fmt("running list holds job {} which is not running", id));
    }
    const BatchSystem::Managed& job = *it->second;
    const std::string view = util::fmt("running view of job {}: ", id);
    const int nodes = static_cast<int>(job.nodes.size());
    if (entry.job != &job.job) fail(&batch, now, view + "points at another job's record");
    if (std::bit_cast<std::uint64_t>(entry.start_time) !=
        std::bit_cast<std::uint64_t>(job.start_time)) {
      fail(&batch, now, view + util::fmt("start_time {}, record has {}", entry.start_time,
                                         job.start_time));
    }
    if (entry.nodes != nodes) {
      fail(&batch, now, view + util::fmt("nodes {}, record holds {}", entry.nodes, nodes));
    }
    if (job.pending_target >= 0 && entry.pending_target != job.pending_target) {
      fail(&batch, now, view + util::fmt("pending_target {}, record has {}",
                                         entry.pending_target, job.pending_target));
    }
    if (job.pending_target < 0 && entry.pending_target != nodes) {
      fail(&batch, now, view + util::fmt("pending_target {}, record has none ({} nodes)",
                                         entry.pending_target, nodes));
    }
  }
  const std::size_t unfinished = pending + held + queued + running + at_boundary;
  if (batch.unfinished() != unfinished) {
    fail(&batch, now, util::fmt("unfinished counter is {} but {} jobs are unfinished",
                                batch.unfinished(), unfinished));
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
    const int down = static_cast<int>(batch.failed_nodes_.size() +
                                      batch.drained_nodes_.size());
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
