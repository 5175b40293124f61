#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/schedulers.h"
#include "stats/telemetry.h"
#include "util/fmt.h"

namespace elastisim::core {

namespace passes {

namespace {

/// When the leader could start ("shadow time") given walltime-based
/// completion estimates, plus the nodes left over at that instant.
struct Reservation {
  double shadow_time;
  int spare_nodes;
};

Reservation reserve_for(const SchedulerContext& ctx, const QueuedJob& leader, int free,
                        std::vector<std::pair<double, int>>& releases) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  // A leader larger than the in-service machine cannot start before a repair
  // or undrain, so it holds no node back.
  if (leader.min_start > ctx.total_nodes()) return {kNever, free};
  // Reserve the leader's preferred size, releasing running jobs' nodes in
  // order of estimated completion until it fits.
  const int size = std::min(leader.preferred_start, ctx.total_nodes());
  const double now = ctx.now();
  releases.clear();  // (estimated time, nodes)
  for (const RunningJob& running : ctx.running()) {
    releases.emplace_back(now + estimated_remaining(running, now), running.nodes);
  }
  std::sort(releases.begin(), releases.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  int available = free;
  for (const auto& [time, nodes] : releases) {
    available += nodes;
    if (available >= size) return {time, available - size};
  }
  return {kNever, 0};
}

}  // namespace

std::size_t backfill_walk(SchedulerContext& ctx, std::span<const QueuedJob> jobs,
                          const char* leader_role, Workspace& workspace) {
  // Every job needs at least one node (Job::validate), so with none free no
  // candidate can start; only an explaining run still walks them for their
  // hold reasons. Nothing frees a node during the walk.
  const int free = ctx.free_nodes();
  const bool explaining = ctx.explaining();
  if (jobs.size() < 2 || (free == 0 && !explaining)) return 0;

  // The reservation is made at the first candidate that fits now: most
  // walks over a deep queue find none.
  const QueuedJob& leader = jobs.front();
  std::optional<Reservation> reserved;
  const double now = ctx.now();
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    const QueuedJob& candidate = jobs[i];
    const int size = feasible_start_size(candidate, free);
    if (size < 0) {
      if (explaining) {
        ctx.explain(candidate->id, stats::HoldReason::kInsufficientNodes,
                    util::fmt("needs {} nodes, {} free", candidate.min_start, free));
      }
      continue;
    }
    if (!reserved) reserved = reserve_for(ctx, leader, free, workspace.releases);
    const Reservation& reservation = *reserved;
    if (now + candidate.walltime_limit <= reservation.shadow_time ||
        size <= reservation.spare_nodes) {
      if (telemetry::enabled()) telemetry::Registry::global().counter("scheduler.backfills").add();
      ctx.start_job(candidate->id, size);
      return i;
    }
    if (!explaining) continue;
    // Both backfill routes failed: a finite walltime means the window before
    // the leader's shadow time was the binding constraint; an unbounded one
    // can only ever ride the spare nodes.
    if (std::isfinite(candidate.walltime_limit)) {
      ctx.explain(candidate->id, stats::HoldReason::kBackfillWindowTooSmall,
                  util::fmt("walltime {}s runs past shadow t={}, {} spare nodes",
                            candidate.walltime_limit, reservation.shadow_time,
                            reservation.spare_nodes));
    } else {
      ctx.explain(candidate->id, stats::HoldReason::kBlockedByReservation,
                  util::fmt("would delay {} job {} reserved at t={}", leader_role, leader->id,
                            reservation.shadow_time));
    }
  }
  return 0;
}

bool easy_backfill_round(SchedulerContext& ctx, Workspace& workspace) {
  fcfs_start(ctx);
  return backfill_walk(ctx, ctx.queue(), "head", workspace) != 0;
}

}  // namespace passes

void EasyBackfillScheduler::schedule(SchedulerContext& ctx) {
  while (passes::easy_backfill_round(ctx, workspace_)) {
  }
}

}  // namespace elastisim::core
