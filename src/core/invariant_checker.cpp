#include "core/invariant_checker.h"

#include <algorithm>

#include "core/batch_system.h"
#include "sim/engine.h"
#include "sim/time.h"
#include "stats/journal.h"
#include "stats/state_sampler.h"
#include "stats/trace.h"
#include "util/fmt.h"

namespace elastisim::core {

void InvariantChecker::attach(sim::Engine& engine, BatchSystem& batch) {
  engine.set_event_validator([this](sim::SimTime now) { on_engine_event(now); });
  engine_ = &engine;
  batch_ = &batch;
  batch.subscribe(this);
}

void InvariantChecker::on_event(const stats::BatchEvent& event) {
  if (event.kind == stats::BatchEventKind::kSchedulingBegin) {
    begin_seen_ = true;
    begin_queued_ = static_cast<int>(batch_->queued_jobs());
    begin_running_ = static_cast<int>(batch_->running_jobs());
    begin_free_ = batch_->free_nodes();
    begin_total_ = batch_->total_nodes();
    begin_journal_size_ = sinks_.journal ? sinks_.journal->size() : 0;
  } else if (event.kind == stats::BatchEventKind::kSchedulingEnd) {
    ++checks_;
    const double now = engine_->now();
    if (now + sim::kTimeEpsilon < last_point_time_) {
      fail(true, now, util::fmt("scheduling point at {} after one at {}", now, last_point_time_));
    }
    last_point_time_ = std::max(last_point_time_, now);
    const bool all_jobs = ++points_since_job_walk_ >= kJobWalkStride;
    if (all_jobs) points_since_job_walk_ = 0;
    if (auto error = batch_->check(all_jobs)) fail(true, now, *error);
    check_sinks(now);
    if (auto error = engine_->fluid().check_invariants(all_jobs)) fail(true, now, *error);
    begin_seen_ = false;
  }
}

void InvariantChecker::on_engine_event(double now) {
  ++events_checked_;
  if (now + sim::kTimeEpsilon < last_event_time_) {
    fail(false, now, util::fmt("engine clock moved backwards: {} after {}", now, last_event_time_));
  }
  last_event_time_ = std::max(last_event_time_, now);
  if (++events_since_fluid_check_ >= kFluidStride) {
    events_since_fluid_check_ = 0;
    if (auto error = engine_->fluid().check_invariants(true)) fail(false, now, *error);
  }
}

void InvariantChecker::check_sinks(double now) {
  if (sinks_.trace != nullptr) {
    const auto& entries = sinks_.trace->entries();
    for (std::size_t i = last_trace_checked_; i < entries.size(); ++i) {
      const stats::TraceEntry& entry = entries[i];
      if (entry.seq <= last_trace_seq_) {
        fail(true, now, util::fmt("trace seq not monotonic: seq {} after seq {}",
                                  entry.seq, last_trace_seq_));
      }
      if (entry.time + sim::kTimeEpsilon < last_trace_time_) {
        fail(true, now, util::fmt("trace time moved backwards: t={} (seq {}) after t={}",
                                  entry.time, entry.seq, last_trace_time_));
      }
      last_trace_seq_ = entry.seq;
      last_trace_time_ = std::max(last_trace_time_, entry.time);
    }
    last_trace_checked_ = entries.size();
  }

  if (sinks_.journal != nullptr && begin_seen_ && sinks_.journal->size() > begin_journal_size_) {
    // The record this scheduling point committed must carry the snapshot the
    // scheduler actually saw (captured by the begin hook).
    const stats::JournalRecord& record = sinks_.journal->records()[begin_journal_size_];
    if (record.seq <= last_journal_seq_) {
      fail(true, now, util::fmt("journal seq not monotonic: seq {} after seq {}",
                                record.seq, last_journal_seq_));
    }
    last_journal_seq_ = record.seq;
    if (record.queued != begin_queued_ || record.running != begin_running_ ||
        record.free_nodes != begin_free_ || record.total_nodes != begin_total_) {
      fail(true, now,
           util::fmt("journal record {} snapshot ({} queued, {} running, {} free, {} total) "
                     "disagrees with the live queue ({} queued, {} running, {} free, "
                     "{} total)",
                     record.seq, record.queued, record.running, record.free_nodes,
                     record.total_nodes, begin_queued_, begin_running_, begin_free_,
                     begin_total_));
    }
  }

  if (sinks_.sampler != nullptr && !sinks_.sampler->samples().empty()) {
    const stats::StateSample& sample = sinks_.sampler->samples().back();
    const int queued = static_cast<int>(batch_->queued_jobs());
    const int running = static_cast<int>(batch_->running_jobs());
    const int free_nodes = batch_->free_nodes();
    const int down = static_cast<int>(batch_->failed_nodes_now() + batch_->drained_nodes_now());
    // The nodes in service plus those out of it: the whole cluster.
    const int total = batch_->total_nodes() + down;
    if (sample.queued != queued || sample.running != running ||
        sample.free_nodes != free_nodes || sample.down != down || sample.total != total) {
      fail(true, now,
           util::fmt("latest state sample ({} queued, {} running, {} free, {} down) "
                     "disagrees with the live state ({} queued, {} running, {} free, "
                     "{} down)",
                     sample.queued, sample.running, sample.free_nodes, sample.down, queued,
                     running, free_nodes, down));
    }
  }
}

void InvariantChecker::fail(bool at_point, double now, const std::string& what) const {
  std::uint64_t seq = 0;
  if (at_point && sinks_.journal != nullptr && !sinks_.journal->records().empty()) {
    seq = sinks_.journal->records().back().seq;
  }
  throw InvariantViolation(
      util::fmt("invariant violation at t={}: {} (last journal seq {})", now, what, seq));
}

}  // namespace elastisim::core
