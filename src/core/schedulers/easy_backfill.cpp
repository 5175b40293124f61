#include <algorithm>
#include <cmath>
#include <limits>
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

Reservation reserve_for(const SchedulerContext& ctx, const workload::Job& leader, int free) {
  constexpr double kNever = std::numeric_limits<double>::infinity();
  // A leader larger than the in-service machine cannot start before a repair
  // or undrain, so it holds no node back.
  if (minimum_start_size(leader) > ctx.total_nodes()) return {kNever, free};
  // Reserve the leader's requested size (its preference), releasing running
  // jobs' nodes in order of estimated completion until it fits.
  const int size = std::min(leader.requested_nodes, ctx.total_nodes());
  std::vector<std::pair<double, int>> releases;  // (estimated time, nodes)
  releases.reserve(ctx.running().size());
  for (const RunningJob& running : ctx.running()) {
    releases.emplace_back(ctx.now() + estimated_remaining(running, ctx.now()), running.nodes);
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
                          const char* leader_role) {
  // Every job needs at least one node (Job::validate), so with none free no
  // candidate can start; only an explaining run still walks them for their
  // hold reasons. Nothing frees a node during the walk.
  const int free = ctx.free_nodes();
  const bool explaining = ctx.explaining();
  if (jobs.size() < 2 || (free == 0 && !explaining)) return 0;

  const workload::Job& leader = *jobs.front();
  const Reservation reservation = reserve_for(ctx, leader, free);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    const workload::Job& candidate = *jobs[i];
    const int size = feasible_start_size(candidate, free);
    if (size < 0) {
      if (explaining) {
        ctx.explain(candidate.id, stats::HoldReason::kInsufficientNodes,
                    util::fmt("needs {} nodes, {} free", minimum_start_size(candidate), free));
      }
      continue;
    }
    if (ctx.now() + candidate.walltime_limit <= reservation.shadow_time ||
        size <= reservation.spare_nodes) {
      if (telemetry::enabled()) telemetry::Registry::global().counter("scheduler.backfills").add();
      ctx.start_job(candidate.id, size);
      return i;
    }
    if (!explaining) continue;
    // Both backfill routes failed: a finite walltime means the window before
    // the leader's shadow time was the binding constraint; an unbounded one
    // can only ever ride the spare nodes.
    if (std::isfinite(candidate.walltime_limit)) {
      ctx.explain(candidate.id, stats::HoldReason::kBackfillWindowTooSmall,
                  util::fmt("walltime {}s runs past shadow t={}, {} spare nodes",
                            candidate.walltime_limit, reservation.shadow_time,
                            reservation.spare_nodes));
    } else {
      ctx.explain(candidate.id, stats::HoldReason::kBlockedByReservation,
                  util::fmt("would delay {} job {} reserved at t={}", leader_role, leader.id,
                            reservation.shadow_time));
    }
  }
  return 0;
}

bool easy_backfill_round(SchedulerContext& ctx) {
  fcfs_start(ctx);
  return backfill_walk(ctx, ctx.queue(), "head") != 0;
}

}  // namespace passes

void EasyBackfillScheduler::schedule(SchedulerContext& ctx) {
  while (passes::easy_backfill_round(ctx)) {
  }
}

}  // namespace elastisim::core
