#include "stats/batch_event.h"

#include <ostream>

#include "util/fmt.h"

namespace elastisim::stats {

std::string event_detail(const BatchEvent& event) {
  switch (event.kind) {
    case BatchEventKind::kSubmit:
      return util::fmt("{} nodes, {}", event.job->requested_nodes,
                       workload::to_string(event.job->type));
    case BatchEventKind::kStart: return util::fmt("{} nodes", event.nodes);
    case BatchEventKind::kRestart:
      return util::fmt("restart from phase {} iter {}", event.checkpoint_phase,
                       event.checkpoint_iteration);
    case BatchEventKind::kTarget:
    case BatchEventKind::kExpand:
    case BatchEventKind::kShrink:
      return util::fmt("{}->{}", event.previous_nodes, event.nodes);
    case BatchEventKind::kEvolvingRequest: {
      const int delta = event.nodes - event.previous_nodes;
      return util::fmt("{}{} {}", delta >= 0 ? "+" : "", delta,
                       event.granted ? "granted" : "denied");
    }
    case BatchEventKind::kKill:
      switch (event.kill_cause) {
        case KillCause::kWalltime:
          return util::fmt("walltime limit {}s exceeded", event.job->walltime_limit);
        case KillCause::kNodeFailure: return util::fmt("node {} failed", event.node);
        case KillCause::kMaxRequeues:
          return util::fmt("max requeues exceeded (node {} failed)", event.node);
      }
      return std::string();
    case BatchEventKind::kRequeue:
      return util::fmt("node {} failed, lost {} node-seconds{}", event.node,
                       event.lost_node_seconds,
                       event.from_checkpoint
                           ? util::fmt(", checkpoint phase {} iter {}", event.checkpoint_phase,
                                       event.checkpoint_iteration)
                           : std::string());
    case BatchEventKind::kCancel: return "dependency failed";
    case BatchEventKind::kNodeFail:
    case BatchEventKind::kNodeRestore: return util::fmt("node {}", event.node);
    default: return std::string();
  }
}

std::ostream& operator<<(std::ostream& out, const BatchEvent& event) {
  return out << event_detail(event);
}

}  // namespace elastisim::stats
