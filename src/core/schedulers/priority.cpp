#include <algorithm>
#include <vector>

#include "core/schedulers.h"
#include "util/fmt.h"

namespace elastisim::core {

namespace passes {

void ranked_backfill(SchedulerContext& ctx, const RankFn& rank, Ranking& ranking) {
  // Rank once. Keys are fixed within a scheduling point and a start only
  // removes its own job, so re-ranking the rest would give the same order.
  // Ties keep queue order: the stable order, sorted without a buffer.
  std::vector<Ranking::Keyed>& keyed = ranking.keyed;
  keyed.clear();
  for (QueuedJob queued : ctx.queue()) keyed.push_back({rank(queued), keyed.size(), queued});
  std::ranges::sort(keyed, [](const Ranking::Keyed& a, const Ranking::Keyed& b) {
    if (a.rank_key < b.rank_key) return true;
    if (b.rank_key < a.rank_key) return false;
    return a.position < b.position;
  });
  std::vector<QueuedJob>& ranked = ranking.ranked;
  ranked.resize(keyed.size());
  std::ranges::transform(keyed, ranked.begin(), &Ranking::Keyed::job);

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

void ranked_backfill(SchedulerContext& ctx, const RankFn& rank) {
  Ranking ranking;
  ranked_backfill(ctx, rank, ranking);
}

}  // namespace passes

void PriorityScheduler::schedule(SchedulerContext& ctx) {
  const double aging = aging_seconds_;
  passes::ranked_backfill(
      ctx,
      [aging, now = ctx.now()](const QueuedJob& queued) {
        const double aged = aging > 0.0 ? (now - queued->submit_time) / aging : 0.0;
        // Lower key = earlier; higher priority and longer waits sort first.
        return -(static_cast<double>(queued->priority) + aged);
      },
      ranking_);
}

void FairShareScheduler::schedule(SchedulerContext& ctx) {
  // One usage query per user per scheduling point. Time stands still within
  // the point, and a job started at `now` adds nodes * 0.0 to its user's
  // running terms, which leaves the usage unchanged to the bit.
  ++point_;
  passes::ranked_backfill(
      ctx,
      [this, &ctx](const QueuedJob& queued) {
        // Users who have consumed the least go first; ties resolve FCFS via
        // the stable order over the submission-ordered queue.
        auto it = usage_.find(queued->user);
        if (it == usage_.end()) it = usage_.emplace(queued->user, Usage{}).first;
        if (it->second.point != point_) it->second = {ctx.user_usage(queued->user), point_};
        return it->second.node_seconds;
      },
      ranking_);
}

}  // namespace elastisim::core
