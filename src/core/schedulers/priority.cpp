#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/schedulers.h"
#include "util/fmt.h"

namespace elastisim::core {

namespace passes {

namespace {

/// The pass behind a ranking of the queue in `workspace.ranked`, filled by
/// ranked_backfill or by fair-share's counting sort: starts in rank order
/// until a job blocks, then runs backfill_walk behind that leader until it
/// starts nothing, dropping each started job from the ranking.
void backfill_ranking(SchedulerContext& ctx, Workspace& workspace) {
  // A backfill only takes nodes, so the leader stays blocked. `first` skips
  // the jobs started from the front.
  std::vector<QueuedJob>& ranked = workspace.ranked;
  std::size_t first = 0;
  while (first < ranked.size()) {
    const QueuedJob& leader = ranked[first];
    const int size = feasible_start_size(leader, ctx.free_nodes());
    if (size >= 0) {
      ctx.start_job(leader->id, size);
      ++first;
      continue;
    }
    if (ctx.explaining()) {
      ctx.explain(leader->id, stats::HoldReason::kInsufficientNodes,
                  util::fmt("needs {} nodes, {} free", leader.min_start, ctx.free_nodes()));
    }
    const std::size_t started =
        backfill_walk(ctx, std::span(ranked).subspan(first), "leader", workspace);
    if (started == 0) return;
    ranked.erase(ranked.begin() + static_cast<std::ptrdiff_t>(first + started));
  }
}

}  // namespace

void ranked_backfill(SchedulerContext& ctx, const RankFn& rank, Workspace& workspace) {
  // Rank once. Keys are fixed within a scheduling point and a start only
  // removes its own job, so re-ranking the rest would give the same order.
  // Ties keep queue order: the stable order, sorted without a buffer.
  const std::vector<QueuedJob>& queue = ctx.queue();
  std::vector<std::pair<double, std::size_t>>& keyed = workspace.keyed;
  keyed.clear();
  for (const QueuedJob& queued : queue) keyed.emplace_back(rank(queued), keyed.size());
  std::ranges::sort(keyed);
  std::vector<QueuedJob>& ranked = workspace.ranked;
  ranked.resize(keyed.size());
  std::ranges::transform(keyed, ranked.begin(), [&queue](const auto& key) {
    return queue[key.second];
  });
  backfill_ranking(ctx, workspace);
}

void ranked_backfill(SchedulerContext& ctx, const RankFn& rank) {
  Workspace workspace;
  ranked_backfill(ctx, rank, workspace);
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
      workspace_);
}

void FairShareScheduler::schedule(SchedulerContext& ctx) {
  // Users who have consumed the least go first; ties resolve FCFS. One usage
  // query per user present, in order of first appearance in the queue. Time
  // stands still within the point, and a job started at `now` adds
  // nodes * 0.0 to its user's running terms, which leaves the usage
  // unchanged to the bit.
  ++point_;
  const std::vector<QueuedJob>& queue = ctx.queue();
  present_.clear();
  for (const QueuedJob& queued : queue) {
    if (queued.user >= usage_.size()) usage_.resize(queued.user + 1);
    Usage& usage = usage_[queued.user];
    if (usage.point == point_) continue;
    usage = {ctx.user_usage(queued->user), point_, 0};
    present_.push_back(queued.user);
  }
  // Rank the users by usage, equal usage sharing a rank: ranks order exactly
  // as the usages compare.
  std::ranges::sort(present_, [this](std::uint32_t a, std::uint32_t b) {
    return usage_[a].node_seconds < usage_[b].node_seconds;
  });
  std::uint32_t rank = 0;
  for (std::size_t i = 0; i < present_.size(); ++i) {
    if (i > 0 && usage_[present_[i - 1]].node_seconds < usage_[present_[i]].node_seconds) ++rank;
    usage_[present_[i]].rank = rank;
  }
  // A stable counting sort of the queue by rank: the order of sorting the
  // queue by (usage, queue position), as ranked_backfill would, in time
  // linear in the queue; ranked_backfill's per-job key calls and comparison
  // sort cost about a fifth of a deep fair-share queue's run time
  // (docs/ANALYSIS.md). Each bucket's count becomes its first position.
  buckets_.assign(rank + 1, 0);
  for (const QueuedJob& queued : queue) ++buckets_[usage_[queued.user].rank];
  std::size_t offset = 0;
  for (std::size_t& bucket : buckets_) offset += std::exchange(bucket, offset);
  std::vector<QueuedJob>& ranked = workspace_.ranked;
  ranked.resize(queue.size());
  for (const QueuedJob& queued : queue) ranked[buckets_[usage_[queued.user].rank]++] = queued;
  passes::backfill_ranking(ctx, workspace_);
}

}  // namespace elastisim::core
