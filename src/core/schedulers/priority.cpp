#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/schedulers.h"
#include "util/fmt.h"

namespace elastisim::core {

// Shared skeleton for rank-ordered backfilling (used by the priority and
// fair-share policies): start jobs in rank order until one blocks, hold a
// reservation for the blocked leader, and backfill lower-ranked jobs around
// it EASY-style.

namespace passes {

void ranked_backfill(SchedulerContext& ctx, const RankFn& rank) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    struct Ranked {
      const workload::Job* job;
      double key;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(ctx.queue().size());
    for (QueuedJob queued : ctx.queue()) ranked.push_back({queued, rank(queued)});
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Ranked& a, const Ranked& b) { return a.key < b.key; });
    if (ranked.empty()) return;

    // Start jobs in rank order until one blocks.
    std::size_t blocked = ranked.size();
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      const int size = feasible_start_size(*ranked[i].job, ctx.free_nodes());
      if (size < 0) {
        blocked = i;
        break;
      }
      ctx.start_job(ranked[i].job->id, size);
      progressed = true;
    }
    if (progressed) continue;  // re-rank with fresh state
    if (blocked >= ranked.size()) return;

    // Reservation for the blocked leader: when do enough nodes free up?
    const workload::Job& head = *ranked[blocked].job;
    const int head_size = std::min(head.requested_nodes, ctx.total_nodes());
    struct Release {
      double time;
      int nodes;
    };
    std::vector<Release> releases;
    for (const RunningJob& running : ctx.running()) {
      releases.push_back({ctx.now() + estimated_remaining(running, ctx.now()), running.nodes});
    }
    std::sort(releases.begin(), releases.end(),
              [](const Release& a, const Release& b) { return a.time < b.time; });
    double shadow = std::numeric_limits<double>::infinity();
    int available = ctx.free_nodes();
    int spare = 0;
    for (const Release& release : releases) {
      available += release.nodes;
      if (available >= head_size) {
        shadow = release.time;
        spare = available - head_size;
        break;
      }
    }

    const bool explaining = ctx.explaining();
    if (explaining) {
      ctx.explain(head.id, stats::HoldReason::kInsufficientNodes,
                  util::fmt("needs {} nodes, {} free", minimum_start_size(head),
                            ctx.free_nodes()));
    }

    // Backfill lower-ranked jobs around the reservation.
    for (std::size_t i = blocked + 1; i < ranked.size(); ++i) {
      const workload::Job& candidate = *ranked[i].job;
      const int size = feasible_start_size(candidate, ctx.free_nodes());
      if (size < 0) {
        if (explaining) {
          ctx.explain(candidate.id, stats::HoldReason::kInsufficientNodes,
                      util::fmt("needs {} nodes, {} free", minimum_start_size(candidate),
                                ctx.free_nodes()));
        }
        continue;
      }
      const bool before_shadow = ctx.now() + candidate.walltime_limit <= shadow;
      if (before_shadow || size <= spare) {
        ctx.start_job(candidate.id, size);
        progressed = true;
        break;  // views changed; restart the round
      }
      if (explaining) {
        if (std::isfinite(candidate.walltime_limit)) {
          ctx.explain(candidate.id, stats::HoldReason::kBackfillWindowTooSmall,
                      util::fmt("walltime {}s runs past shadow t={}, {} spare nodes",
                                candidate.walltime_limit, shadow, spare));
        } else {
          ctx.explain(candidate.id, stats::HoldReason::kBlockedByReservation,
                      util::fmt("would delay leader job {} reserved at t={}", head.id,
                                shadow));
        }
      }
    }
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
