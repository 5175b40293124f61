#include "core/schedulers.h"
#include "util/fmt.h"

namespace elastisim::core {

namespace passes {

void fcfs_start(SchedulerContext& ctx) {
  // A start erases the job from the queue, so always look at index 0.
  while (!ctx.queue().empty()) {
    const QueuedJob& head = ctx.queue().front();
    const int size = feasible_start_size(head, ctx.free_nodes());
    if (size < 0) break;
    ctx.start_job(head->id, size);
  }
  if (!ctx.explaining() || ctx.queue().empty()) return;
  // Strict FCFS holds everything behind its blocked head; backfilling
  // callers refine the non-head verdicts afterwards.
  const QueuedJob& head = ctx.queue().front();
  ctx.explain(head->id, stats::HoldReason::kInsufficientNodes,
              util::fmt("needs {} nodes, {} free", head.min_start, ctx.free_nodes()));
  for (std::size_t i = 1; i < ctx.queue().size(); ++i) {
    ctx.explain(ctx.queue()[i]->id, stats::HoldReason::kQueuedBehindHead,
                util::fmt("job {} blocks the queue", head->id));
  }
}

}  // namespace passes

void FcfsScheduler::schedule(SchedulerContext& ctx) { passes::fcfs_start(ctx); }

}  // namespace elastisim::core
