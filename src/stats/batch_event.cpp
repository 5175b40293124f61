#include "stats/batch_event.h"

#include <ostream>

#include "util/fmt.h"

namespace elastisim::stats {

const char* to_string(BatchEventKind kind) noexcept {
  switch (kind) {
    case BatchEventKind::kSubmit: return "submit";
    case BatchEventKind::kHeld: return "held";
    case BatchEventKind::kQueued: return "queued";
    case BatchEventKind::kCancel: return "cancel";
    case BatchEventKind::kStart: return "start";
    case BatchEventKind::kRestart: return "restart";
    case BatchEventKind::kBoundary: return "boundary";
    case BatchEventKind::kEvolvingRequest: return "evolving-request";
    case BatchEventKind::kTarget: return "target";
    case BatchEventKind::kExpand: return "expand";
    case BatchEventKind::kShrink: return "shrink";
    case BatchEventKind::kRelease: return "release";
    case BatchEventKind::kFinish: return "finish";
    case BatchEventKind::kKill: return "kill";
    case BatchEventKind::kRequeue: return "requeue";
    case BatchEventKind::kExplain: return "explain";
    case BatchEventKind::kNodeFail: return "node-fail";
    case BatchEventKind::kNodeRestore: return "node-restore";
    case BatchEventKind::kNodeDrain: return "node-drain";
    case BatchEventKind::kNodeUndrain: return "node-undrain";
    case BatchEventKind::kSchedulingBegin: return "scheduling-begin";
    case BatchEventKind::kSchedulingEnd: return "scheduling-end";
    case BatchEventKind::kSample: return "sample";
    case BatchEventKind::kRunBegin: return "run-begin";
    case BatchEventKind::kRunEnd: return "run-end";
  }
  return "unknown";
}

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
