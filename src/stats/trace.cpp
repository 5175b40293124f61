#include "stats/trace.h"

#include <ostream>

#include "util/csv.h"

namespace elastisim::stats {

std::string to_string(TraceEvent event) {
  switch (event) {
    case TraceEvent::kSubmit: return "submit";
    case TraceEvent::kStart: return "start";
    case TraceEvent::kExpand: return "expand";
    case TraceEvent::kShrink: return "shrink";
    case TraceEvent::kEvolvingRequest: return "evolving-request";
    case TraceEvent::kFinish: return "finish";
    case TraceEvent::kWalltimeKill: return "walltime-kill";
    case TraceEvent::kRequeue: return "requeue";
    case TraceEvent::kCancel: return "cancel";
    case TraceEvent::kNodeFail: return "node-fail";
    case TraceEvent::kNodeRestore: return "node-restore";
  }
  return "?";
}

void EventTrace::on_event(const BatchEvent& event) {
  using K = BatchEventKind;
  TraceEvent row;
  switch (event.kind) {
    case K::kSubmit: row = TraceEvent::kSubmit; break;
    case K::kStart:
    case K::kRestart: row = TraceEvent::kStart; break;
    case K::kExpand: row = TraceEvent::kExpand; break;
    case K::kShrink: row = TraceEvent::kShrink; break;
    case K::kEvolvingRequest: row = TraceEvent::kEvolvingRequest; break;
    case K::kFinish: row = TraceEvent::kFinish; break;
    case K::kKill: row = TraceEvent::kWalltimeKill; break;
    case K::kRequeue: row = TraceEvent::kRequeue; break;
    case K::kCancel: row = TraceEvent::kCancel; break;
    case K::kNodeFail: row = TraceEvent::kNodeFail; break;
    case K::kNodeRestore: row = TraceEvent::kNodeRestore; break;
    default: return;
  }
  event.trace_seq = record(event.time, row, event.job_id(), event_detail(event));
}

std::uint64_t EventTrace::record(double time, TraceEvent event, workload::JobId job,
                                 std::string detail) {
  const std::uint64_t seq = next_seq_++;
  entries_.push_back(TraceEntry{seq, time, event, job, std::move(detail)});
  return seq;
}

std::vector<TraceEntry> EventTrace::filtered(TraceEvent event) const {
  std::vector<TraceEntry> out;
  for (const TraceEntry& entry : entries_) {
    if (entry.event == event) out.push_back(entry);
  }
  return out;
}

void EventTrace::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.typed_row("seq", "time", "event", "job", "detail");
  for (const TraceEntry& entry : entries_) {
    csv.typed_row(entry.seq, entry.time, to_string(entry.event), entry.job, entry.detail);
  }
}

}  // namespace elastisim::stats
