#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/schedulers.h"
#include "util/fmt.h"

namespace elastisim::core {

namespace passes {

void ranked_backfill(SchedulerContext& ctx, const RankFn& rank) {
  // Rank once. Keys are fixed within a scheduling point and a start only
  // removes its own job, so re-ranking the rest would give the same order.
  std::vector<std::pair<double, QueuedJob>> keyed;
  keyed.reserve(ctx.queue().size());
  for (QueuedJob queued : ctx.queue()) keyed.emplace_back(rank(queued), queued);
  std::ranges::stable_sort(keyed, {}, &std::pair<double, QueuedJob>::first);
  std::vector<QueuedJob> ranked(keyed.size());
  std::ranges::transform(keyed, ranked.begin(), &std::pair<double, QueuedJob>::second);

  // Start in rank order until a job blocks, then backfill behind it until the
  // walk starts nothing; a backfill only takes nodes, so the leader stays blocked.
  while (!ranked.empty()) {
    const workload::Job& leader = *ranked.front();
    const int size = feasible_start_size(leader, ctx.free_nodes());
    if (size >= 0) {
      ctx.start_job(leader.id, size);
      ranked.erase(ranked.begin());
      continue;
    }
    if (ctx.explaining()) {
      ctx.explain(leader.id, stats::HoldReason::kInsufficientNodes,
                  util::fmt("needs {} nodes, {} free", minimum_start_size(leader),
                            ctx.free_nodes()));
    }
    const std::size_t started = backfill_walk(ctx, ranked, "leader");
    if (started == 0) return;
    ranked.erase(ranked.begin() + static_cast<std::ptrdiff_t>(started));
  }
}

}  // namespace passes

void PriorityScheduler::schedule(SchedulerContext& ctx) {
  const double aging = aging_seconds_;
  passes::ranked_backfill(ctx, [aging, now = ctx.now()](const QueuedJob& queued) {
    const double aged = aging > 0.0 ? (now - queued->submit_time) / aging : 0.0;
    // Lower key = earlier; higher priority and longer waits sort first.
    return -(static_cast<double>(queued->priority) + aged);
  });
}

void FairShareScheduler::schedule(SchedulerContext& ctx) {
  // One usage query per user per scheduling point. Time stands still within
  // the point, and a job started at `now` adds nodes * 0.0 to its user's
  // running terms, which leaves the usage unchanged to the bit.
  std::unordered_map<std::string, double> usage;
  passes::ranked_backfill(ctx, [&ctx, &usage](const QueuedJob& queued) {
    // Users who have consumed the least go first; ties resolve FCFS via the
    // stable sort over the submission-ordered queue.
    const auto [it, inserted] = usage.try_emplace(queued->user, 0.0);
    if (inserted) it->second = ctx.user_usage(queued->user);
    return it->second;
  });
}

}  // namespace elastisim::core
