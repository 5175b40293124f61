// The one backfill walk against the two walks it replaced. EASY's round
// (with its own head reservation) and the rank-ordered pass that re-ranked
// the queue after every start are kept here as references, reading every
// size and walltime from the job records; the walk reads them from the
// queue entries' keys (test::FakeContext fills them through
// core::queued_job, as the batch system does). On random scheduler states
// whose leader fits the in-service nodes, easy, priority and fair-share must
// start the same jobs at the same sizes and hold the rest with the same
// verdicts and detail text, in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/schedulers.h"
#include "test_support.h"
#include "util/fmt.h"
#include "util/rng.h"

namespace elastisim::core {
namespace {

using test::compute_job;
using test::rigid_job;
using workload::JobType;

namespace reference {

int feasible_start_size(const workload::Job& job, int free) {
  if (job.type == workload::JobType::kRigid) {
    return job.requested_nodes <= free ? job.requested_nodes : -1;
  }
  if (free < job.min_nodes) return -1;
  return std::min(job.requested_nodes, std::min(free, job.max_nodes));
}

int minimum_start_size(const workload::Job& job) {
  return job.type == workload::JobType::kRigid ? job.requested_nodes : job.min_nodes;
}

/// passes::fcfs_start from the job records.
void fcfs_start(SchedulerContext& ctx) {
  while (!ctx.queue().empty()) {
    const workload::Job& head = *ctx.queue().front();
    const int size = feasible_start_size(head, ctx.free_nodes());
    if (size < 0) break;
    ctx.start_job(head.id, size);
  }
  if (!ctx.explaining() || ctx.queue().empty()) return;
  const workload::Job& head = *ctx.queue().front();
  ctx.explain(head.id, stats::HoldReason::kInsufficientNodes,
              util::fmt("needs {} nodes, {} free", minimum_start_size(head), ctx.free_nodes()));
  for (std::size_t i = 1; i < ctx.queue().size(); ++i) {
    ctx.explain(ctx.queue()[i]->id, stats::HoldReason::kQueuedBehindHead,
                util::fmt("job {} blocks the queue", head.id));
  }
}

struct Reservation {
  double shadow_time;
  int spare_nodes;
};

Reservation head_reservation(const SchedulerContext& ctx, int head_size) {
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
  return {std::numeric_limits<double>::infinity(), 0};
}

bool easy_backfill_round(SchedulerContext& ctx) {
  fcfs_start(ctx);
  if (ctx.queue().size() < 2) return false;
  if (ctx.free_nodes() == 0 && !ctx.explaining()) return false;

  const workload::Job& head = *ctx.queue().front();
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
      ctx.start_job(candidate.id, size);
      return true;
    }
    if (explaining) {
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

void ranked_backfill(SchedulerContext& ctx, const passes::RankFn& rank) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    struct Ranked {
      const workload::Job* job;
      double key;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(ctx.queue().size());
    for (const QueuedJob& queued : ctx.queue()) ranked.push_back({queued.job, rank(queued)});
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Ranked& a, const Ranked& b) { return a.key < b.key; });
    if (ranked.empty()) return;

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
    if (progressed) continue;
    if (blocked >= ranked.size()) return;

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
        break;
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

}  // namespace reference

constexpr double kNow = 1000.0;

/// A random scheduler state: running jobs holding all but `free` of `total`
/// in-service nodes since random start times, and a queue of rigid, moldable
/// and malleable jobs with finite or infinite walltimes, random priorities,
/// submit times and users (up to `max_users`). Every queued job's minimum
/// size fits the in-service nodes, so every leader does. Walltimes and start
/// times are multiples of 25 s, so candidates often end exactly at a shadow
/// time. Each user has finished 0 to 2 jobs of exactly 500 node-seconds, so
/// users without running jobs often tie, at zero among them.
struct State {
  explicit State(std::uint64_t seed, std::int64_t max_users = 5) {
    util::Rng rng(seed);
    total = static_cast<int>(rng.uniform_int(1, 32));
    free = static_cast<int>(rng.uniform_int(0, total));
    explaining = rng.bernoulli(0.5);
    const auto users = rng.uniform_int(1, max_users);
    const auto walltime = [&rng] {
      return rng.bernoulli(0.2) ? std::numeric_limits<double>::infinity()
                                : static_cast<double>(rng.uniform_int(1, 60)) * 25.0;
    };
    workload::JobId next_id = 1;
    for (int busy = 0; busy < total - free;) {
      const int nodes = static_cast<int>(rng.uniform_int(1, std::min(8, total - free - busy)));
      workload::Job job = rng.bernoulli(0.3)
                              ? compute_job(next_id++, JobType::kMalleable, nodes, 10.0, 1, 16)
                              : rigid_job(next_id++, nodes, 10.0);
      job.walltime_limit = walltime();
      job.user = "u" + std::to_string(rng.uniform_int(0, users - 1));
      running.push_back(std::move(job));
      running_since.push_back(static_cast<double>(rng.uniform_int(0, 40)) * 25.0);
      running_nodes.push_back(nodes);
      busy += nodes;
    }
    for (auto n = rng.uniform_int(0, 30); n > 0; --n) {
      const workload::JobId id = next_id++;
      const int lo = static_cast<int>(rng.uniform_int(1, total));
      const int requested = static_cast<int>(rng.uniform_int(lo, total + 8));
      workload::Job job;
      switch (rng.uniform_int(0, 2)) {
        case 0: job = rigid_job(id, lo, 10.0); break;
        case 1: job = compute_job(id, JobType::kMoldable, requested, 10.0, lo, requested); break;
        default:
          job = compute_job(id, JobType::kMalleable, requested, 10.0, lo, requested + 4);
          break;
      }
      job.walltime_limit = walltime();
      job.priority = static_cast<int>(rng.uniform_int(0, 5));
      job.submit_time = static_cast<double>(rng.uniform_int(0, 999));
      job.user = "u" + std::to_string(rng.uniform_int(0, users - 1));
      queued.push_back(std::move(job));
    }
    for (std::int64_t user = 0; user < users; ++user) {
      for (auto n = rng.uniform_int(0, 2); n > 0; --n) {
        workload::Job job = rigid_job(next_id++, 5, 10.0);
        job.user = "u" + std::to_string(user);
        finished.push_back(std::move(job));
      }
    }
  }

  test::FakeContext& context() {
    contexts.emplace_back(kNow, total, free, explaining);
    test::FakeContext& ctx = contexts.back();
    for (const workload::Job& job : finished) {
      ctx.recorder.on_submit(job, 0.0);
      ctx.recorder.on_start(job.id, 0.0, 5);
      ctx.recorder.on_finish(job.id, 100.0, /*killed=*/false);
    }
    for (std::size_t i = 0; i < running.size(); ++i) {
      ctx.run(running[i], running_since[i], running_nodes[i]);
    }
    for (const workload::Job& job : queued) ctx.enqueue(job);
    return ctx;
  }

  int total = 0;
  int free = 0;
  bool explaining = false;
  std::vector<workload::Job> running;
  std::vector<double> running_since;
  std::vector<int> running_nodes;
  std::vector<workload::Job> queued;
  std::vector<workload::Job> finished;
  std::deque<test::FakeContext> contexts;  // stable addresses
};

void expect_same_decisions(const test::FakeContext& walk, const test::FakeContext& reference) {
  EXPECT_EQ(walk.starts, reference.starts);
  EXPECT_EQ(walk.verdicts, reference.verdicts);
  EXPECT_EQ(walk.details, reference.details);
}

TEST(BackfillWalk, EasyMatchesTheReferenceRound) {
  std::size_t backfilled = 0;
  std::size_t explained = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    SCOPED_TRACE(seed);
    State state(seed);
    test::FakeContext& walk = state.context();
    test::FakeContext& reference = state.context();
    EasyBackfillScheduler().schedule(walk);
    while (reference::easy_backfill_round(reference)) {
    }
    expect_same_decisions(walk, reference);
    if (walk.starts.size() > 1) ++backfilled;
    if (!walk.details.empty()) ++explained;
  }
  // The draws reach the walk's starts and its verdicts, not only its exits.
  EXPECT_GT(backfilled, 50u);
  EXPECT_GT(explained, 100u);
}

TEST(BackfillWalk, PriorityMatchesTheReferenceRanking) {
  std::size_t backfilled = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    SCOPED_TRACE(seed);
    State state(seed);
    constexpr double kAging = 400.0;
    const auto key = [](const QueuedJob& queued) {
      return -(static_cast<double>(queued->priority) + (kNow - queued->submit_time) / kAging);
    };
    test::FakeContext& walk = state.context();
    test::FakeContext& reference = state.context();
    PriorityScheduler(kAging).schedule(walk);
    reference::ranked_backfill(reference, key);
    expect_same_decisions(walk, reference);
    if (walk.starts.size() > 1) ++backfilled;
  }
  EXPECT_GT(backfilled, 50u);
}

TEST(BackfillWalk, FairShareMatchesTheReferenceRanking) {
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    SCOPED_TRACE(seed);
    State state(seed);
    test::FakeContext& walk = state.context();
    test::FakeContext& reference = state.context();
    FairShareScheduler().schedule(walk);
    reference::ranked_backfill(reference, [&reference](const QueuedJob& queued) {
      return reference.user_usage(queued->user);
    });
    expect_same_decisions(walk, reference);
  }
}

/// Whether some user's jobs in `users` (queue order) resume after another
/// user's: u, v, u.
bool interleaved(const std::vector<std::string>& users) {
  std::set<std::string> left;
  for (std::size_t i = 1; i < users.size(); ++i) {
    if (users[i] == users[i - 1]) continue;
    left.insert(users[i - 1]);
    if (left.count(users[i]) != 0) return true;
  }
  return false;
}

TEST(BackfillWalk, FairShareRanksManyUsersAtEqualUsageInQueueOrder) {
  // Up to 40 users, many tied (zero included): fair-share ranks users and
  // counting-sorts the queue by rank, which must give the reference's
  // stable sort of every job by its user's usage, so tied users' jobs keep
  // their interleaved queue positions. It asks each present user once.
  std::size_t tied = 0;
  std::size_t tied_at_zero = 0;
  std::size_t explained = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE(seed);
    State state(seed, /*max_users=*/40);
    test::FakeContext& walk = state.context();
    test::FakeContext& reference = state.context();
    std::map<double, std::vector<std::string>> by_usage;  // queue-order users per usage
    std::set<std::string> present;
    for (const workload::Job& job : state.queued) {
      by_usage[reference.recorder.user_node_seconds(job.user, kNow)].push_back(job.user);
      present.insert(job.user);
    }
    for (const auto& [usage, users] : by_usage) {
      if (!interleaved(users)) continue;
      ++tied;
      if (usage == 0.0) ++tied_at_zero;
      break;
    }
    FairShareScheduler().schedule(walk);
    reference::ranked_backfill(reference, [&reference](const QueuedJob& queued) {
      return reference.user_usage(queued->user);
    });
    expect_same_decisions(walk, reference);
    EXPECT_EQ(walk.usage_calls.size(), present.size());
    EXPECT_EQ(std::set<std::string>(walk.usage_calls.begin(), walk.usage_calls.end()), present);
    if (!walk.details.empty()) ++explained;
  }
  EXPECT_GT(tied, 100u);
  EXPECT_GT(tied_at_zero, 20u);
  EXPECT_GT(explained, 100u);
}

TEST(BackfillWalk, RankedBackfillRanksEachQueuedJobOnce) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    State state(seed);
    test::FakeContext& ctx = state.context();
    std::vector<workload::JobId> ranked;
    passes::ranked_backfill(ctx, [&ranked](const QueuedJob& queued) {
      ranked.push_back(queued->id);
      return static_cast<double>(queued->priority);
    });
    std::vector<workload::JobId> queued;
    for (const workload::Job& job : state.queued) queued.push_back(job.id);
    EXPECT_EQ(ranked, queued);
  }
}

}  // namespace
}  // namespace elastisim::core
