// Concrete scheduling algorithms.
//
// Rigid baselines:
//   FcfsScheduler                — strict first-come-first-served.
//   EasyBackfillScheduler        — FCFS + aggressive backfilling with one
//                                  reservation for the queue head.
//   ConservativeBackfillScheduler— backfilling with reservations for every
//                                  queued job (no job is ever delayed).
//
// Malleable-aware policies:
//   FcfsMalleableScheduler       — FCFS + greedy resource filling: expands
//                                  running malleable jobs into idle nodes
//                                  while the queue is empty, shrinks them to
//                                  admit the queue head when it is not.
//   EasyMalleableScheduler       — EASY + the same expand/shrink filling.
//   EqualShareScheduler          — sizes all running malleable jobs toward an
//                                  equal share of the machine.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.h"

namespace elastisim::core {

namespace passes {

/// A running resizable job a malleable pass may retarget: its current target
/// and the bound the pass moves it toward (max_nodes when expanding,
/// min_nodes when shrinking).
struct ResizeCandidate {
  workload::JobId id;
  int target;
  int bound;
};

/// Storage the passes below reuse across calls, kept by the scheduler that
/// runs them, so that a scheduling point allocates only when its queue or
/// running list outgrows every earlier one's.
struct Workspace {
  /// backfill_walk's reservation: (estimated release time, nodes) per running
  /// job.
  std::vector<std::pair<double, int>> releases;
  /// ranked_backfill's (rank key, queue position) per queued job: sorted as
  /// pairs, the position breaks ties, which makes the order stable without a
  /// buffer.
  std::vector<std::pair<double, std::size_t>> keyed;
  /// The queue in rank order, which ranked_backfill (or fair-share's
  /// counting sort) fills and drops jobs from as they start.
  std::vector<QueuedJob> ranked;
  /// expand_into_idle's and shrink_to_admit_head's candidates.
  std::vector<ResizeCandidate> candidates;
};

}  // namespace passes

class FcfsScheduler final : public Scheduler {
 public:
  std::string name() const override { return "fcfs"; }
  void schedule(SchedulerContext& ctx) override;
};

class EasyBackfillScheduler final : public Scheduler {
 public:
  std::string name() const override { return "easy"; }
  void schedule(SchedulerContext& ctx) override;

 private:
  passes::Workspace workspace_;
};

class ConservativeBackfillScheduler final : public Scheduler {
 public:
  std::string name() const override { return "conservative"; }
  void schedule(SchedulerContext& ctx) override;
};

class FcfsMalleableScheduler final : public Scheduler {
 public:
  std::string name() const override { return "fcfs-malleable"; }
  void schedule(SchedulerContext& ctx) override;

 private:
  passes::Workspace workspace_;
};

class EasyMalleableScheduler final : public Scheduler {
 public:
  std::string name() const override { return "easy-malleable"; }
  void schedule(SchedulerContext& ctx) override;

 private:
  passes::Workspace workspace_;
};

class EqualShareScheduler final : public Scheduler {
 public:
  std::string name() const override { return "equal-share"; }
  void schedule(SchedulerContext& ctx) override;
};

/// Priority backfilling: (priority desc, submission) order with a
/// reservation for the highest-ranked blocked job, EASY-style backfilling
/// around it, and time-based aging against starvation (one priority level
/// per `aging_seconds` waited).
class PriorityScheduler final : public Scheduler {
 public:
  explicit PriorityScheduler(double aging_seconds = 3600.0)
      : aging_seconds_(aging_seconds) {}
  std::string name() const override { return "priority"; }
  void schedule(SchedulerContext& ctx) override;

 private:
  double aging_seconds_;
  passes::Workspace workspace_;
};

/// Fair-share backfilling: the queue is ranked by each owner's consumed
/// node-seconds (least-served user first, ties in queue order), with a
/// reservation for the blocked leader and EASY-style backfilling around it.
/// It ranks users, not jobs: one usage query per user present in the queue,
/// then a stable counting sort of the queue by its users' ranks.
class FairShareScheduler final : public Scheduler {
 public:
  std::string name() const override { return "fair-share"; }
  void schedule(SchedulerContext& ctx) override;

 private:
  /// A user's consumed node-seconds and their rank among the users present,
  /// as found in scheduling point `point`.
  struct Usage {
    double node_seconds = 0.0;
    std::uint64_t point = 0;
    std::uint32_t rank = 0;
  };
  /// Indexed by user slot (QueuedJob::user), kept across scheduling points
  /// so that a known user costs no allocation; an entry from an earlier
  /// point is stale.
  std::vector<Usage> usage_;
  /// The current scheduling point, counted from 1.
  std::uint64_t point_ = 0;
  /// The slots of the users present at this point, then sorted by usage.
  std::vector<std::uint32_t> present_;
  /// Counting-sort buckets, one per rank.
  std::vector<std::size_t> buckets_;
  passes::Workspace workspace_;
};

namespace passes {

/// Ranking function for ranked_backfill: lower key = scheduled earlier.
/// Keys must stay fixed within one scheduling point.
using RankFn = std::function<double(const QueuedJob&)>;

/// Rank-ordered backfilling skeleton: ranks the queue once (one key per
/// queued job, sorted with ties in queue order) into `workspace.ranked`,
/// starts in rank order until a job blocks, then runs backfill_walk behind
/// that leader until it starts nothing, dropping each started job from the
/// ranking. Hold verdicts name the "leader job".
void ranked_backfill(SchedulerContext& ctx, const RankFn& rank, Workspace& workspace);
/// ranked_backfill in storage of its own, for a one-off call.
void ranked_backfill(SchedulerContext& ctx, const RankFn& rank);

/// The one backfill walk behind a blocked leader `jobs[0]`, shared by EASY,
/// priority and fair-share. It reads the entries' keys only, never a job
/// record, except to name a job it starts or explains. Reserves for the
/// leader: the shadow time is the first estimated release at which its
/// preferred start size, clamped to the in-service nodes, is free (+inf and
/// no spare node when none is), and a leader whose minimum start size
/// exceeds the in-service nodes reserves nothing (shadow +inf, every free
/// node spare). Starts the first of jobs[1..] that fits now and ends before
/// the shadow or fits in the spare nodes, counts it in `scheduler.backfills`
/// and returns its index; returns 0 when none starts, at once when no node
/// is free and nothing is being explained. Explains every held candidate
/// (not the leader), naming the leader by `leader_role`.
std::size_t backfill_walk(SchedulerContext& ctx, std::span<const QueuedJob> jobs,
                          const char* leader_role, Workspace& workspace);

/// Largest size `queued` may start at with `free` nodes available, preferring
/// its preferred start size; -1 when it cannot start (fewer than its
/// `min_start` free, the figure held-job explanations quote). Rigid jobs
/// only ever start at their requested size. Inline: the backfill walk asks
/// it of every queued entry it visits.
inline int feasible_start_size(const QueuedJob& queued, int free) {
  return free < queued.min_start ? -1 : std::min(queued.preferred_start, free);
}

/// Starts queued jobs in FCFS order until the head no longer fits.
void fcfs_start(SchedulerContext& ctx);

/// One EASY backfilling round: fcfs_start, then backfill_walk over the live
/// queue behind its head ("head job"). Returns true if the walk started a
/// job (callers loop until quiescent).
bool easy_backfill_round(SchedulerContext& ctx, Workspace& workspace);

/// Expands running malleable jobs round-robin into idle nodes (only
/// meaningful when the queue is empty).
void expand_into_idle(SchedulerContext& ctx, Workspace& workspace);

/// Requests shrinks of running malleable jobs (largest first, down to their
/// minimum) until the pending shrinkage could admit the queue head.
void shrink_to_admit_head(SchedulerContext& ctx, Workspace& workspace);

}  // namespace passes

}  // namespace elastisim::core
