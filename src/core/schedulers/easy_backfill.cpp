#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/schedulers.h"
#include "stats/telemetry.h"
#include "util/fmt.h"

namespace elastisim::core {

namespace passes {

namespace {

/// When the head job could start ("shadow time") given walltime-based
/// completion estimates, plus the nodes left over at that instant.
struct Reservation {
  double shadow_time;
  int spare_nodes;
};

Reservation head_reservation(const SchedulerContext& ctx, int head_size) {
  // Sort running jobs by estimated completion and release their nodes until
  // the head fits.
  struct Release {
    double time;
    int nodes;
  };
  std::vector<Release> releases;
  releases.reserve(ctx.running().size());
  for (const RunningJob& running : ctx.running()) {
    releases.push_back({ctx.now() + estimated_remaining(running, ctx.now()), running.nodes});
  }
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) { return a.time < b.time; });
  int available = ctx.free_nodes();
  for (const Release& release : releases) {
    if (available >= head_size) break;
    available += release.nodes;
    if (available >= head_size) {
      return {release.time, available - head_size};
    }
  }
  if (available >= head_size) return {ctx.now(), available - head_size};
  // Head never fits (should not happen: submit() rejects oversized jobs).
  return {std::numeric_limits<double>::infinity(), 0};
}

}  // namespace

bool easy_backfill_round(SchedulerContext& ctx) {
  fcfs_start(ctx);
  if (ctx.queue().size() < 2) return false;
  // Every job needs at least one node (Job::validate), so with none free no
  // candidate can start; only an explaining run still walks them for their
  // hold reasons.
  if (ctx.free_nodes() == 0 && !ctx.explaining()) return false;

  const workload::Job& head = *ctx.queue().front();
  // Reservations are made for the head's requested size (its preference);
  // fcfs_start() already failed to start it at any feasible size.
  const int head_size = std::min(head.requested_nodes, ctx.total_nodes());
  const Reservation reservation = head_reservation(ctx, head_size);

  const bool explaining = ctx.explaining();
  for (std::size_t i = 1; i < ctx.queue().size(); ++i) {
    const workload::Job& candidate = *ctx.queue()[i];
    const int size = feasible_start_size(candidate, ctx.free_nodes());
    if (size < 0) {
      if (explaining) {
        ctx.explain(candidate.id, stats::HoldReason::kInsufficientNodes,
                    util::fmt("needs {} nodes, {} free", minimum_start_size(candidate),
                              ctx.free_nodes()));
      }
      continue;
    }
    const double completion = ctx.now() + candidate.walltime_limit;
    const bool fits_before_shadow = completion <= reservation.shadow_time;
    const bool fits_in_spare = size <= reservation.spare_nodes;
    if (fits_before_shadow || fits_in_spare) {
      if (telemetry::enabled()) {
        telemetry::Registry::global().counter("scheduler.backfills").add();
      }
      ctx.start_job(candidate.id, size);
      return true;  // views changed; caller restarts the scan
    }
    if (explaining) {
      // Both backfill routes failed: a finite walltime means the window
      // before the head's shadow time was the binding constraint; an
      // unbounded one can only ever ride the spare nodes.
      if (std::isfinite(candidate.walltime_limit)) {
        ctx.explain(candidate.id, stats::HoldReason::kBackfillWindowTooSmall,
                    util::fmt("walltime {}s runs past shadow t={}, {} spare nodes",
                              candidate.walltime_limit, reservation.shadow_time,
                              reservation.spare_nodes));
      } else {
        ctx.explain(candidate.id, stats::HoldReason::kBlockedByReservation,
                    util::fmt("would delay head job {} reserved at t={}",
                              head.id, reservation.shadow_time));
      }
    }
  }
  return false;
}

}  // namespace passes

void EasyBackfillScheduler::schedule(SchedulerContext& ctx) {
  while (passes::easy_backfill_round(ctx)) {
  }
}

}  // namespace elastisim::core
