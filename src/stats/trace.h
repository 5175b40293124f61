// Chronological event trace of a simulation run.
//
// Where the Recorder keeps aggregated per-job records, the EventTrace keeps
// the raw sequence of batch-system events — the artifact you diff when two
// runs diverge, feed to external visualizers, or grep while debugging a
// scheduling policy. A subscriber on the batch event stream
// (BatchSystem::subscribe); has no cost when absent.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats/batch_event.h"
#include "workload/job.h"

namespace elastisim::stats {

struct TraceEntry {
  /// Monotonic 1-based sequence number: the stable tie-break for
  /// same-timestamp entries, so trace diffs are deterministic, and the key
  /// decision-journal verdicts link to.
  std::uint64_t seq;
  double time;
  BatchEventKind event;
  /// Job the event concerns; 0 for node-level events.
  workload::JobId job;
  /// Event-specific detail: node counts ("16->32"), request deltas ("+8
  /// granted"), or requeue/kill causes ("node 3 failed, ...").
  std::string detail;
};

class EventTrace final : public BatchSubscriber {
 public:
  /// Records the lifecycle and node events as rows and stamps each row's
  /// sequence number into the event (BatchEvent::trace_seq).
  void on_event(const BatchEvent& event) override;

  /// Appends an entry and returns its sequence number.
  std::uint64_t record(double time, BatchEventKind event, workload::JobId job,
                       std::string detail = "");

  const std::vector<TraceEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entries of one kind, in order.
  std::vector<TraceEntry> filtered(BatchEventKind event) const;

  /// "seq,time,event,job,detail" rows.
  void write_csv(std::ostream& out) const;

 private:
  std::vector<TraceEntry> entries_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace elastisim::stats
