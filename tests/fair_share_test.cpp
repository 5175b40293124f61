// FairShareScheduler behavior: least-served users go first, usage accrues
// across jobs, and long-run fairness holds on generated workloads.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/batch_system.h"
#include "core/schedulers.h"
#include "core/simulation.h"
#include "test_support.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace elastisim::core {
namespace {

using test::compute_job;
using test::rigid_job;
using test::tiny_platform;

workload::Job user_job(workload::Job job, const std::string& user) {
  job.user = user;
  return job;
}

struct Harness {
  explicit Harness(std::size_t nodes)
      : cluster(engine, tiny_platform(nodes)),
        batch(engine, cluster, std::make_unique<FairShareScheduler>(), recorder) {}

  const stats::JobRecord& record(workload::JobId id) {
    for (const auto& record : recorder.records()) {
      if (record.id == id) return record;
    }
    ADD_FAILURE() << "no record for job " << id;
    static stats::JobRecord dummy;
    return dummy;
  }

  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster;
  BatchSystem batch;
};

TEST(FairShare, LeastServedUserGoesFirst) {
  Harness h(2);
  // alice consumes 2 nodes x 100 s; then one job from each user queues.
  h.batch.submit(user_job(rigid_job(1, 2, 100.0), "alice"));
  h.batch.submit(user_job(rigid_job(2, 2, 10.0, 1.0), "alice"));
  h.batch.submit(user_job(rigid_job(3, 2, 10.0, 2.0), "bob"));
  h.engine.run();
  // bob has zero usage at t=100 -> his job jumps alice's second job.
  EXPECT_DOUBLE_EQ(h.record(3).start_time, 100.0);
  EXPECT_DOUBLE_EQ(h.record(2).start_time, 110.0);
}

TEST(FairShare, UsageAccruesAcrossJobs) {
  Harness h(2);
  // bob burns capacity first; later ties break in alice's favor.
  h.batch.submit(user_job(rigid_job(1, 2, 50.0), "bob"));
  h.batch.submit(user_job(rigid_job(2, 2, 10.0, 1.0), "bob"));
  h.batch.submit(user_job(rigid_job(3, 2, 10.0, 1.0), "alice"));
  h.batch.submit(user_job(rigid_job(4, 2, 10.0, 2.0), "alice"));
  h.engine.run();
  // Order after job 1: alice (0 usage), alice (after job 3: 20 node-s vs
  // bob's 100) -> both alice jobs run before bob's second.
  EXPECT_DOUBLE_EQ(h.record(3).start_time, 50.0);
  EXPECT_DOUBLE_EQ(h.record(4).start_time, 60.0);
  EXPECT_DOUBLE_EQ(h.record(2).start_time, 70.0);
}

TEST(FairShare, RunningJobsCountTowardUsage) {
  Harness h(4);
  // carol occupies half the machine indefinitely; when one node pair frees,
  // dave (no usage) must beat carol's queued job.
  h.batch.submit(user_job(rigid_job(1, 2, 1000.0), "carol"));
  h.batch.submit(user_job(rigid_job(2, 2, 20.0), "erin"));
  h.batch.submit(user_job(rigid_job(3, 2, 10.0, 1.0), "carol"));
  h.batch.submit(user_job(rigid_job(4, 2, 10.0, 2.0), "dave"));
  h.engine.run();
  EXPECT_DOUBLE_EQ(h.record(4).start_time, 20.0);
  EXPECT_DOUBLE_EQ(h.record(3).start_time, 30.0);
}

TEST(FairShare, SingleUserDegradesToFcfs) {
  Harness h(2);
  for (int i = 1; i <= 4; ++i) {
    h.batch.submit(user_job(rigid_job(i, 2, 10.0, static_cast<double>(i)), "solo"));
  }
  h.engine.run();
  for (int i = 2; i <= 4; ++i) {
    EXPECT_GT(h.record(i).start_time, h.record(i - 1).start_time);
  }
}

TEST(FairShare, ProtectsLightUserFromHeavyBurst) {
  // The policy's actual promise: a light user is not buried behind a heavy
  // user's burst. heavy submits 10 big jobs first, light submits 3 small
  // ones right after; compare light's mean wait under fair-share vs FCFS.
  auto light_mean_wait = [](const std::string& scheduler) {
    SimulationConfig config;
    config.platform = tiny_platform(8);
    config.scheduler = scheduler;
    std::vector<workload::Job> jobs;
    workload::JobId id = 1;
    for (int i = 0; i < 10; ++i) {
      jobs.push_back(user_job(rigid_job(id, 8, 100.0, 0.1 * i), "heavy"));
      ++id;
    }
    for (int i = 0; i < 3; ++i) {
      jobs.push_back(user_job(rigid_job(id, 2, 20.0, 2.0 + i), "light"));
      ++id;
    }
    auto result = run_simulation(config, std::move(jobs));
    double total = 0.0;
    int count = 0;
    for (const auto& record : result.recorder.records()) {
      if (record.user == "light") {
        total += record.wait_time();
        ++count;
      }
    }
    return total / count;
  };
  EXPECT_LT(light_mean_wait("fair-share"), 0.5 * light_mean_wait("fcfs"));
}

TEST(FairShare, CompletesMixedWorkload) {
  workload::GeneratorConfig generator;
  generator.job_count = 40;
  generator.seed = 22;
  generator.max_nodes = 8;
  generator.malleable_fraction = 0.3;
  generator.flops_per_node = 1e9;
  SimulationConfig config;
  config.platform = tiny_platform(16);
  config.scheduler = "fair-share";
  auto result = run_simulation(config, workload::generate_workload(generator));
  EXPECT_EQ(result.finished, 40u);
  EXPECT_EQ(result.stuck, 0u);
}

TEST(FairShare, UsageMemoRanksAsDirectCallsWithOneQueryPerUser) {
  // Random histories, running sets and queues: the policy, which asks for
  // each user's usage once per scheduling point, starts and holds exactly
  // what the ranked pass does when it asks again for every job and re-rank.
  constexpr double kNow = 1000.0;
  constexpr int kNodes = 32;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const auto users = rng.uniform_int(1, 6);
    const int free = static_cast<int>(rng.uniform_int(0, 12));
    const bool explaining = rng.bernoulli(0.5);
    const auto random_job = [&](workload::JobId id) {
      const int nodes = static_cast<int>(rng.uniform_int(1, 8));
      workload::Job job = rng.bernoulli(0.3)
                              ? compute_job(id, workload::JobType::kMalleable, nodes, 10.0, 1,
                                            8)
                              : rigid_job(id, nodes, 10.0);
      job.walltime_limit = static_cast<double>(rng.uniform_int(1, 40)) * 25.0;
      job.user = "u" + std::to_string(rng.uniform_int(0, users - 1));
      return job;
    };
    std::vector<workload::Job> finished;
    std::vector<std::pair<workload::Job, double>> running;  // job, start time
    std::vector<workload::Job> queued;
    workload::JobId next_id = 1;
    for (auto n = rng.uniform_int(0, 20); n > 0; --n) finished.push_back(random_job(next_id++));
    for (int busy = 0; busy < kNodes - free;) {
      workload::Job job = random_job(next_id++);
      job.requested_nodes = job.min_nodes = job.max_nodes =
          std::min(job.requested_nodes, kNodes - free - busy);
      job.type = workload::JobType::kRigid;
      busy += job.requested_nodes;
      running.emplace_back(std::move(job), static_cast<double>(rng.uniform_int(0, 999)));
    }
    for (auto n = rng.uniform_int(1, 40); n > 0; --n) queued.push_back(random_job(next_id++));
    std::vector<double> spans;  // each finished job's start and end
    for (std::size_t i = 0; i < finished.size(); ++i) {
      const auto start = static_cast<double>(rng.uniform_int(0, 500));
      spans.push_back(start);
      spans.push_back(start + static_cast<double>(rng.uniform_int(1, 400)) / 3.0);
    }

    const auto build = [&](test::FakeContext& ctx) {
      for (std::size_t i = 0; i < finished.size(); ++i) {
        ctx.recorder.on_submit(finished[i], 0.0);
        ctx.recorder.on_start(finished[i].id, spans[2 * i], finished[i].requested_nodes);
        ctx.recorder.on_finish(finished[i].id, spans[2 * i + 1], false);
      }
      for (const auto& [job, since] : running) ctx.run(job, since, job.requested_nodes);
      for (const workload::Job& job : queued) ctx.enqueue(job);
    };
    test::FakeContext memo(kNow, kNodes, free, explaining);
    test::FakeContext direct(kNow, kNodes, free, explaining);
    build(memo);
    build(direct);
    FairShareScheduler().schedule(memo);
    passes::ranked_backfill(direct, [&direct](const QueuedJob& job) {
      return direct.user_usage(job->user);
    });

    EXPECT_EQ(memo.starts, direct.starts);
    EXPECT_EQ(memo.verdicts, direct.verdicts);
    const std::set<std::string> asked(memo.usage_calls.begin(), memo.usage_calls.end());
    EXPECT_EQ(memo.usage_calls.size(), asked.size()) << "a user was asked twice";
    std::set<std::string> queued_users;
    for (const workload::Job& job : queued) queued_users.insert(job.user);
    EXPECT_EQ(asked, queued_users);
    EXPECT_GE(direct.usage_calls.size(), queued.size());
  }
}

TEST(FairShare, RecorderUserAggregation) {
  stats::Recorder recorder;
  workload::Job job = rigid_job(1, 2, 10.0);
  job.user = "zoe";
  recorder.on_submit(job, 0.0);
  recorder.on_start(1, 0.0, 2);
  // Mid-flight accrual: at t=5 zoe has 10 node-seconds.
  auto usage_mid = recorder.node_seconds_by_user(5.0);
  EXPECT_DOUBLE_EQ(usage_mid["zoe"], 10.0);
  recorder.on_finish(1, 10.0, false);
  auto usage_end = recorder.node_seconds_by_user(10.0);
  EXPECT_DOUBLE_EQ(usage_end["zoe"], 20.0);
}

}  // namespace
}  // namespace elastisim::core
