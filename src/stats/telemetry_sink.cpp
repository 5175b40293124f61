#include "stats/telemetry_sink.h"

namespace elastisim::stats {

void TelemetrySink::on_event(const BatchEvent& event) {
  using K = BatchEventKind;
  const double free_nodes = static_cast<double>(event.state.free_nodes);
  switch (event.kind) {
    case K::kStart:
      jobs_started_.add();
      nodes_allocated_.add(static_cast<std::uint64_t>(event.nodes));
      return free_gauge_.set(event.time, free_nodes);
    case K::kExpand:
      expansions_.add();
      nodes_allocated_.add(static_cast<std::uint64_t>(event.nodes - event.previous_nodes));
      return free_gauge_.set(event.time, free_nodes);
    case K::kRelease:
      nodes_released_.add();
      if (event.freed) free_gauge_.set(event.time, free_nodes);
      return;
    case K::kShrink: return shrinks_.add();
    case K::kRestart: return checkpoint_restarts_.add();
    case K::kRequeue:
      requeues_.add();
      return lost_node_seconds_.record(event.lost_node_seconds);
    case K::kSchedulingBegin:
      return queue_gauge_.set(event.time, static_cast<double>(event.state.queued));
    case K::kSchedulingEnd:
      invocations_.add();
      return rounds_.add(event.rounds);
    default: return;
  }
}

}  // namespace elastisim::stats
