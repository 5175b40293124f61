#include <algorithm>
#include <vector>

#include "core/schedulers.h"
#include "stats/telemetry.h"

namespace elastisim::core {

namespace passes {

void expand_into_idle(SchedulerContext& ctx, Workspace& workspace) {
  // Any node still free at this point cannot start the queue head (the
  // FCFS/EASY pass ran first), so handing it to a running malleable job is
  // pure resource filling; shrink_to_admit_head() claws capacity back when
  // the queue needs it.
  // Budget: free nodes not already promised to pending growth.
  int budget = ctx.free_nodes();
  for (const RunningJob& running : ctx.running()) {
    budget -= std::max(0, running.pending_target - running.nodes);
  }
  if (budget <= 0) return;

  // Round-robin one node at a time, smallest allocation first, so expansion
  // stays balanced instead of feeding the first job everything.
  std::vector<ResizeCandidate>& candidates = workspace.candidates;
  candidates.clear();
  for (const RunningJob& running : ctx.running()) {
    if (!running.job->can_resize_at_runtime()) continue;
    if (running.pending_target < running.nodes) continue;  // pending shrink: leave it
    if (running.pending_target < running.job->max_nodes) {
      candidates.push_back({running.job->id, running.pending_target, running.job->max_nodes});
    }
  }
  if (candidates.empty()) return;
  std::sort(candidates.begin(), candidates.end(),
            [](const ResizeCandidate& a, const ResizeCandidate& b) {
              if (a.target != b.target) return a.target < b.target;
              return a.id < b.id;
            });
  bool progressed = true;
  while (budget > 0 && progressed) {
    progressed = false;
    for (ResizeCandidate& candidate : candidates) {
      if (budget == 0) break;
      if (candidate.target >= candidate.bound) continue;
      ++candidate.target;
      --budget;
      progressed = true;
    }
  }
  for (const ResizeCandidate& candidate : candidates) {
    ctx.set_target(candidate.id, candidate.target);
  }
  if (telemetry::enabled()) {
    telemetry::Registry::global()
        .counter("scheduler.expand_targets")
        .add(candidates.size());
  }
}

void shrink_to_admit_head(SchedulerContext& ctx, Workspace& workspace) {
  if (ctx.queue().empty()) return;
  const QueuedJob& head = ctx.queue().front();
  // A head larger than the in-service machine cannot start before a repair
  // or undrain, so no shrink would admit it.
  if (head.min_start > ctx.total_nodes()) return;
  // Count what is already free or already being shrunk away.
  int incoming = ctx.free_nodes();
  for (const RunningJob& running : ctx.running()) {
    incoming += std::max(0, running.nodes - std::min(running.pending_target, running.nodes));
  }
  if (incoming >= head->min_nodes) return;  // head will fit once shrinks land

  // Shrink the largest resizable jobs first, down to their minimum, until
  // the head's minimum size is covered.
  std::vector<ResizeCandidate>& candidates = workspace.candidates;
  candidates.clear();
  for (const RunningJob& running : ctx.running()) {
    if (!running.job->can_resize_at_runtime()) continue;
    const int effective = std::min(running.pending_target, running.nodes);
    if (effective > running.job->min_nodes) {
      candidates.push_back({running.job->id, effective, running.job->min_nodes});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ResizeCandidate& a, const ResizeCandidate& b) {
              if (a.target != b.target) return a.target > b.target;
              return a.id < b.id;
            });
  for (ResizeCandidate& candidate : candidates) {
    if (incoming >= head->min_nodes) break;
    const int give = std::min(candidate.target - candidate.bound,
                              head->min_nodes - incoming);
    candidate.target -= give;
    incoming += give;
    ctx.set_target(candidate.id, candidate.target);
    if (telemetry::enabled()) {
      telemetry::Registry::global().counter("scheduler.shrink_targets").add();
    }
  }
}

}  // namespace passes

void FcfsMalleableScheduler::schedule(SchedulerContext& ctx) {
  passes::fcfs_start(ctx);
  passes::shrink_to_admit_head(ctx, workspace_);
  passes::expand_into_idle(ctx, workspace_);
}

void EasyMalleableScheduler::schedule(SchedulerContext& ctx) {
  while (passes::easy_backfill_round(ctx, workspace_)) {
  }
  passes::shrink_to_admit_head(ctx, workspace_);
  passes::expand_into_idle(ctx, workspace_);
}

void EqualShareScheduler::schedule(SchedulerContext& ctx) {
  passes::fcfs_start(ctx);
  // Size every resizable running job toward an equal share of the machine,
  // leaving rigid allocations untouched.
  int resizable = 0;
  int rigid_nodes = 0;
  for (const RunningJob& running : ctx.running()) {
    if (running.job->can_resize_at_runtime()) {
      ++resizable;
    } else {
      rigid_nodes += running.nodes;
    }
  }
  if (resizable == 0) return;
  // Nodes the malleable pool may occupy; reserve nothing for an empty queue
  // or a head larger than the in-service machine (it cannot start before a
  // repair), the head's minimum otherwise (so shrinks admit it eventually).
  int reserved = 0;
  if (!ctx.queue().empty() && ctx.queue().front().min_start <= ctx.total_nodes()) {
    reserved = ctx.queue().front()->min_nodes;
  }
  const int pool = std::max(0, ctx.total_nodes() - rigid_nodes - reserved);
  const int share = std::max(1, pool / resizable);
  for (const RunningJob& running : ctx.running()) {
    if (!running.job->can_resize_at_runtime()) continue;
    ctx.set_target(running.job->id, running.job->clamp_nodes(share));
  }
}

}  // namespace elastisim::core
