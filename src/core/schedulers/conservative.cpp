#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "core/schedulers.h"
#include "stats/telemetry.h"
#include "util/fmt.h"

namespace elastisim::core {

namespace {

/// Step function of free nodes over future time, supporting "find earliest
/// slot" and "reserve" operations. Times are absolute; the horizon beyond
/// the last breakpoint has the last recorded level.
class FreeProfile {
 public:
  FreeProfile(double now, int free) { steps_[now] = free; }

  /// Subtracts `nodes` over [begin, begin + duration).
  void reserve(double begin, double duration, int nodes) {
    const double end = duration >= kForever ? kForever : begin + duration;
    ensure_breakpoint(begin);
    if (end < kForever) ensure_breakpoint(end);
    for (auto it = steps_.lower_bound(begin); it != steps_.end() && it->first < end; ++it) {
      it->second -= nodes;
    }
  }

  /// Earliest time >= from at which `nodes` stay free for `duration`.
  double earliest_fit(double from, double duration, int nodes) const {
    ensure_breakpoint(from);
    for (auto it = steps_.lower_bound(from); it != steps_.end(); ++it) {
      if (it->second < nodes) continue;
      const double begin = it->first;
      const double end = duration >= kForever ? kForever : begin + duration;
      bool ok = true;
      for (auto scan = it; scan != steps_.end() && scan->first < end; ++scan) {
        if (scan->second < nodes) {
          ok = false;
          break;
        }
      }
      if (ok) return begin;
    }
    return kForever;  // cannot happen with a sane profile (tail level = all free)
  }

  /// Adds `nodes` back at `time` for the rest of the horizon.
  void release_at(double time, int nodes) {
    ensure_breakpoint(time);
    for (auto it = steps_.lower_bound(time); it != steps_.end(); ++it) {
      it->second += nodes;
    }
  }

  static constexpr double kForever = 1e18;

 private:
  void ensure_breakpoint(double time) const {
    auto it = steps_.upper_bound(time);
    if (it == steps_.begin()) {
      steps_[time] = 0;  // before the first breakpoint: defensive, unused
      return;
    }
    --it;
    // elsim-lint: allow(float-equality) -- exact map-key match, not arithmetic
    if (it->first != time) steps_[time] = it->second;
  }

  mutable std::map<double, int> steps_;
};

}  // namespace

void ConservativeBackfillScheduler::schedule(SchedulerContext& ctx) {
  // Rebuild the reservation schedule from scratch at every invocation
  // (stateless conservative backfilling): running jobs occupy the profile
  // until their estimated completion; queued jobs are placed in submission
  // order at the earliest gap, and any job whose gap begins *now* starts.
  bool started = true;
  while (started) {
    started = false;
    FreeProfile profile(ctx.now(), ctx.total_nodes());
    for (const RunningJob& running : ctx.running()) {
      const double remaining = estimated_remaining(running, ctx.now());
      profile.reserve(ctx.now(), std::isfinite(remaining) ? remaining : FreeProfile::kForever,
                      running.nodes);
    }
    bool is_head = true;
    for (const QueuedJob& queued : ctx.queue()) {
      const workload::Job& job = *queued;
      // A job larger than the in-service machine cannot start before a
      // repair or undrain: it holds no place in the profile.
      if (queued.min_start > ctx.total_nodes()) {
        if (ctx.explaining()) {
          ctx.explain(job.id, stats::HoldReason::kInsufficientNodes,
                      util::fmt("needs {} nodes, {} in service", queued.min_start,
                                ctx.total_nodes()));
        }
        is_head = false;
        continue;
      }
      const int size = std::min(job.requested_nodes, ctx.total_nodes());
      const double duration =
          std::isfinite(job.walltime_limit) ? job.walltime_limit : FreeProfile::kForever;
      const double begin = profile.earliest_fit(ctx.now(), duration, size);
      if (begin <= ctx.now() && size <= ctx.free_nodes()) {
        if (!is_head && telemetry::enabled()) {
          telemetry::Registry::global().counter("scheduler.backfills").add();
        }
        ctx.start_job(job.id, size);
        started = true;  // profile is stale; rebuild
        break;
      }
      if (ctx.explaining()) {
        if (size > ctx.free_nodes()) {
          ctx.explain(job.id, stats::HoldReason::kInsufficientNodes,
                      util::fmt("needs {} nodes, {} free", size, ctx.free_nodes()));
        } else {
          // Enough nodes are idle right now, but no hole in the reservation
          // profile fits the job's walltime before earlier reservations land.
          ctx.explain(job.id, stats::HoldReason::kWalltimeExceedsHole,
                      util::fmt("walltime {}s only fits at t={}", job.walltime_limit,
                                begin));
        }
      }
      profile.reserve(begin, duration, size);
      is_head = false;
    }
  }
}

}  // namespace elastisim::core
