#include "stats/trace.h"

#include <ostream>

#include "util/csv.h"

namespace elastisim::stats {

void EventTrace::on_event(const BatchEvent& event) {
  using K = BatchEventKind;
  switch (event.kind) {
    case K::kSubmit:
    case K::kStart:
    case K::kRestart:
    case K::kExpand:
    case K::kShrink:
    case K::kEvolvingRequest:
    case K::kFinish:
    case K::kKill:
    case K::kRequeue:
    case K::kCancel:
    case K::kNodeFail:
    case K::kNodeRestore: break;
    default: return;
  }
  event.trace_seq = record(event.time, event.kind, event.job_id(), event_detail(event));
}

std::uint64_t EventTrace::record(double time, BatchEventKind event, workload::JobId job,
                                 std::string detail) {
  const std::uint64_t seq = next_seq_++;
  entries_.push_back(TraceEntry{seq, time, event, job, std::move(detail)});
  return seq;
}

std::vector<TraceEntry> EventTrace::filtered(BatchEventKind event) const {
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
