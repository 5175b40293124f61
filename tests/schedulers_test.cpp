// Per-algorithm behavior: backfilling rules, conservative guarantees,
// malleable filling, equal-share sizing, and cross-algorithm dominance
// properties on generated workloads.
#include <gtest/gtest.h>

#include <map>

#include "core/schedulers.h"
#include "core/simulation.h"
#include "test_support.h"
#include "workload/generator.h"

namespace elastisim::core {
namespace {

using test::compute_job;
using test::rigid_job;
using test::tiny_platform;
using workload::JobType;

stats::Recorder run_jobs(const std::string& scheduler, std::size_t nodes,
                         std::vector<workload::Job> jobs, BatchConfig batch = {}) {
  SimulationConfig config;
  config.platform = tiny_platform(nodes);
  config.scheduler = scheduler;
  config.batch = batch;
  auto result = run_simulation(config, std::move(jobs));
  EXPECT_EQ(result.stuck, 0u) << scheduler << " left jobs stuck";
  return std::move(result.recorder);
}

const stats::JobRecord& record_of(const stats::Recorder& recorder, workload::JobId id) {
  for (const auto& record : recorder.records()) {
    if (record.id == id) return record;
  }
  ADD_FAILURE() << "missing record " << id;
  static stats::JobRecord dummy;
  return dummy;
}

workload::Job with_walltime(workload::Job job, double walltime) {
  job.walltime_limit = walltime;
  return job;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(SchedulerFactory, AllNamesConstruct) {
  for (const std::string& name : scheduler_names()) {
    auto scheduler = make_scheduler(name);
    ASSERT_NE(scheduler, nullptr) << name;
    EXPECT_EQ(scheduler->name(), name);
  }
}

TEST(SchedulerFactory, UnknownNameReturnsNull) {
  EXPECT_EQ(make_scheduler("slurm"), nullptr);
}

// ---------------------------------------------------------------------------
// FCFS
// ---------------------------------------------------------------------------

TEST(Fcfs, DoesNotBackfill) {
  // Head (4 nodes) blocks; a 1-node job behind it must wait even though a
  // node is free the whole time.
  std::vector<workload::Job> jobs;
  jobs.push_back(with_walltime(rigid_job(1, 3, 100.0), 120.0));
  jobs.push_back(with_walltime(rigid_job(2, 4, 50.0, 1.0), 60.0));
  jobs.push_back(with_walltime(rigid_job(3, 1, 10.0, 2.0), 20.0));
  auto recorder = run_jobs("fcfs", 4, std::move(jobs));
  EXPECT_DOUBLE_EQ(record_of(recorder, 2).start_time, 100.0);
  EXPECT_GE(record_of(recorder, 3).start_time, 150.0);  // strictly after job 2
}

TEST(Fcfs, PreservesSubmissionOrder) {
  std::vector<workload::Job> jobs;
  for (int i = 1; i <= 6; ++i) {
    jobs.push_back(rigid_job(i, 4, 10.0, static_cast<double>(i)));
  }
  auto recorder = run_jobs("fcfs", 4, std::move(jobs));
  for (int i = 2; i <= 6; ++i) {
    EXPECT_GE(record_of(recorder, i).start_time,
              record_of(recorder, i - 1).end_time - 1e-9);
  }
}

// ---------------------------------------------------------------------------
// EASY backfilling
// ---------------------------------------------------------------------------

TEST(Easy, BackfillsShortJobIntoHole) {
  // Job 1 uses 3 of 4 nodes until t=100. Head job 2 needs 4 nodes -> blocked
  // with shadow time 100 (job 1's walltime). Job 3 (1 node, walltime 50)
  // finishes before the shadow -> backfills at t~2.
  std::vector<workload::Job> jobs;
  jobs.push_back(with_walltime(rigid_job(1, 3, 100.0), 100.0 + 1e-3));
  jobs.push_back(with_walltime(rigid_job(2, 4, 50.0, 1.0), 60.0));
  jobs.push_back(with_walltime(rigid_job(3, 1, 10.0, 2.0), 50.0));
  auto recorder = run_jobs("easy", 4, std::move(jobs));
  EXPECT_NEAR(record_of(recorder, 3).start_time, 2.0, 1e-6);
  // And the head is not delayed by the backfill.
  EXPECT_NEAR(record_of(recorder, 2).start_time, 100.0, 1e-3);
}

TEST(Easy, RefusesBackfillThatWouldDelayHead) {
  // Job 3's walltime (200) overruns the shadow time (100) and it needs the
  // only spare node... spare = 4 - head(4) = 0 -> refused.
  std::vector<workload::Job> jobs;
  jobs.push_back(with_walltime(rigid_job(1, 3, 100.0), 100.0 + 1e-3));
  jobs.push_back(with_walltime(rigid_job(2, 4, 50.0, 1.0), 60.0));
  jobs.push_back(with_walltime(rigid_job(3, 1, 150.0, 2.0), 200.0));
  auto recorder = run_jobs("easy", 4, std::move(jobs));
  EXPECT_GE(record_of(recorder, 3).start_time, 100.0);
}

TEST(Easy, BackfillsIntoSpareNodesEvenWithLongWalltime) {
  // Head needs 3 nodes; when job 1 (2 nodes) ends there will be 4 free, so
  // one node is spare at the shadow -> a long 1-node job may take it now.
  std::vector<workload::Job> jobs;
  jobs.push_back(with_walltime(rigid_job(1, 2, 100.0), 100.0 + 1e-3));
  jobs.push_back(with_walltime(rigid_job(2, 3, 50.0, 1.0), 60.0));
  jobs.push_back(with_walltime(rigid_job(3, 1, 500.0, 2.0), 600.0));
  auto recorder = run_jobs("easy", 4, std::move(jobs));
  EXPECT_NEAR(record_of(recorder, 3).start_time, 2.0, 1e-6);
  EXPECT_NEAR(record_of(recorder, 2).start_time, 100.0, 1e-3);
}

TEST(Easy, NoFreeNodeEndsTheRoundUnlessExplaining) {
  // Every node is busy, so no candidate can start (each needs one). Without a
  // journal the round stops after the head's fit and the free-node test, at
  // any queue depth; with one, every held job still gets EASY's own reason.
  for (const std::size_t depth : {std::size_t{5}, std::size_t{60}}) {
    SCOPED_TRACE(depth);
    std::vector<workload::Job> jobs;
    jobs.reserve(depth + 1);
    jobs.push_back(with_walltime(rigid_job(1, 4, 100.0), 200.0));
    for (std::size_t i = 0; i < depth; ++i) {
      const auto id = static_cast<workload::JobId>(i + 2);
      jobs.push_back(i % 2 == 0
                         ? with_walltime(rigid_job(id, 1 + static_cast<int>(i % 3), 10.0), 20.0)
                         : compute_job(id, JobType::kMalleable, 2, 10.0, 1, 4));
    }
    for (const bool explaining : {false, true}) {
      SCOPED_TRACE(explaining);
      test::FakeContext ctx(50.0, 4, 0, explaining);
      ctx.run(jobs[0], 0.0, 4);
      for (std::size_t i = 1; i < jobs.size(); ++i) ctx.enqueue(jobs[i]);
      EasyBackfillScheduler().schedule(ctx);
      EXPECT_TRUE(ctx.starts.empty());
      if (!explaining) {
        EXPECT_EQ(ctx.free_calls, 2u);
        EXPECT_TRUE(ctx.verdicts.empty());
        continue;
      }
      std::map<workload::JobId, stats::HoldReason> last;
      for (const auto& [id, reason] : ctx.verdicts) last[id] = reason;
      EXPECT_EQ(last.size(), depth);
      for (const auto& [id, reason] : last) {
        EXPECT_EQ(reason, stats::HoldReason::kInsufficientNodes) << "job " << id;
      }
    }
  }
}

TEST(Easy, NeverWorseMakespanThanFcfsOnGeneratedMix) {
  workload::GeneratorConfig generator;
  generator.job_count = 60;
  generator.max_nodes = 8;
  generator.flops_per_node = 1e9;
  generator.seed = 11;
  const auto fcfs = run_jobs("fcfs", 16, workload::generate_workload(generator));
  const auto easy = run_jobs("easy", 16, workload::generate_workload(generator));
  EXPECT_LE(easy.makespan(), fcfs.makespan() * 1.02);
  EXPECT_LE(easy.mean_wait(), fcfs.mean_wait() * 1.05);
}

// ---------------------------------------------------------------------------
// Conservative backfilling
// ---------------------------------------------------------------------------

TEST(Conservative, BackfillsWhenNoReservationDelayed) {
  std::vector<workload::Job> jobs;
  jobs.push_back(with_walltime(rigid_job(1, 3, 100.0), 100.0 + 1e-3));
  jobs.push_back(with_walltime(rigid_job(2, 4, 50.0, 1.0), 60.0));
  jobs.push_back(with_walltime(rigid_job(3, 1, 10.0, 2.0), 50.0));
  auto recorder = run_jobs("conservative", 4, std::move(jobs));
  EXPECT_NEAR(record_of(recorder, 3).start_time, 2.0, 1e-6);
}

TEST(Conservative, RefusesBackfillDelayingAnyReservation) {
  // Job 4 would fit now but would push job 3's reservation (which EASY does
  // not track but conservative does).
  std::vector<workload::Job> jobs;
  jobs.push_back(with_walltime(rigid_job(1, 3, 100.0), 100.0 + 1e-3));   // runs now
  jobs.push_back(with_walltime(rigid_job(2, 4, 100.0, 1.0), 110.0));     // head, reserved t=100
  jobs.push_back(with_walltime(rigid_job(3, 1, 100.0, 2.0), 110.0));     // reserved t=200
  jobs.push_back(with_walltime(rigid_job(4, 1, 150.0, 3.0), 160.0));     // would delay job 3
  auto recorder = run_jobs("conservative", 4, std::move(jobs));
  // Conservative: job 4's earliest non-disruptive slot is after job 3's
  // reservation window opens; it must not start at t=3.
  EXPECT_GT(record_of(recorder, 4).start_time, 3.0 + 1e-6);
  // Job 3 keeps (or beats) its reservation.
  EXPECT_LE(record_of(recorder, 3).start_time, 200.0 + 1e-6);
}

TEST(Conservative, HeadNeverDelayedOnGeneratedMix) {
  workload::GeneratorConfig generator;
  generator.job_count = 40;
  generator.max_nodes = 8;
  generator.flops_per_node = 1e9;
  generator.seed = 13;
  const auto fcfs = run_jobs("fcfs", 16, workload::generate_workload(generator));
  const auto conservative = run_jobs("conservative", 16, workload::generate_workload(generator));
  // Conservative backfilling never increases any job's start past its FCFS
  // start when estimates are exact upper bounds; makespan must not degrade
  // materially.
  EXPECT_LE(conservative.makespan(), fcfs.makespan() * 1.02);
}

// ---------------------------------------------------------------------------
// Malleable policies
// ---------------------------------------------------------------------------

TEST(FcfsMalleable, FillsIdleNodesWithExpansion) {
  std::vector<workload::Job> jobs;
  auto job = compute_job(1, JobType::kMalleable, 2, 10.0, 1, 8, 0.0, 10);
  job.application.state_bytes_per_node = 0.0;
  jobs.push_back(std::move(job));
  auto recorder = run_jobs("fcfs-malleable", 8, std::move(jobs));
  EXPECT_EQ(record_of(recorder, 1).final_nodes, 8);
}

TEST(FcfsMalleable, BalancesExpansionAcrossJobs) {
  std::vector<workload::Job> jobs;
  for (int i = 1; i <= 2; ++i) {
    auto job = compute_job(i, JobType::kMalleable, 2, 10.0, 1, 8, 0.0, 10);
    job.application.state_bytes_per_node = 0.0;
    jobs.push_back(std::move(job));
  }
  auto recorder = run_jobs("fcfs-malleable", 8, std::move(jobs));
  // Identical twin jobs on 8 nodes: balanced filling gives each ~half the
  // machine, so they accrue similar node-seconds and finish close together
  // (the drain tail, where the survivor takes everything, is short).
  const auto& first = record_of(recorder, 1);
  const auto& second = record_of(recorder, 2);
  EXPECT_GE(first.expansions, 1);
  EXPECT_GE(second.expansions, 1);
  const double spread = std::abs(first.end_time - second.end_time);
  EXPECT_LT(spread, 0.3 * std::max(first.end_time, second.end_time));
  const double ratio = first.node_seconds / second.node_seconds;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(FcfsMalleable, MakespanBeatsRigidFcfsOnMalleableMix) {
  workload::GeneratorConfig generator;
  generator.job_count = 50;
  generator.max_nodes = 8;
  generator.malleable_fraction = 1.0;
  generator.flops_per_node = 1e9;
  generator.seed = 17;
  const auto rigid = run_jobs("fcfs", 16, workload::generate_workload(generator));
  const auto malleable = run_jobs("fcfs-malleable", 16, workload::generate_workload(generator));
  EXPECT_LT(malleable.makespan(), rigid.makespan());
  EXPECT_GT(malleable.average_utilization(), rigid.average_utilization());
}

TEST(EasyMalleable, DominatesEasyOnMalleableMix) {
  workload::GeneratorConfig generator;
  generator.job_count = 50;
  generator.max_nodes = 8;
  generator.malleable_fraction = 0.75;
  generator.flops_per_node = 1e9;
  generator.seed = 19;
  const auto easy = run_jobs("easy", 16, workload::generate_workload(generator));
  const auto malleable = run_jobs("easy-malleable", 16, workload::generate_workload(generator));
  EXPECT_LE(malleable.makespan(), easy.makespan() * 1.02);
  EXPECT_LT(malleable.mean_wait(), easy.mean_wait() * 1.05);
}

TEST(EqualShare, SplitsMachineEvenly) {
  std::vector<workload::Job> jobs;
  for (int i = 1; i <= 4; ++i) {
    auto job = compute_job(i, JobType::kMalleable, 4, 10.0, 1, 16, 0.0, 10);
    job.application.state_bytes_per_node = 0.0;
    jobs.push_back(std::move(job));
  }
  auto recorder = run_jobs("equal-share", 16, std::move(jobs));
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(record_of(recorder, i).final_nodes, 4) << "job " << i;
  }
}

TEST(EqualShare, SingleJobTakesWholeMachine) {
  std::vector<workload::Job> jobs;
  auto job = compute_job(1, JobType::kMalleable, 2, 10.0, 1, 16, 0.0, 10);
  job.application.state_bytes_per_node = 0.0;
  jobs.push_back(std::move(job));
  auto recorder = run_jobs("equal-share", 16, std::move(jobs));
  EXPECT_EQ(record_of(recorder, 1).final_nodes, 16);
}

TEST(EqualShare, LeavesRoomForQueueHead) {
  // One malleable hog + a rigid arrival: the hog must shrink below the full
  // machine so the rigid job eventually starts.
  std::vector<workload::Job> jobs;
  auto hog = compute_job(1, JobType::kMalleable, 8, 10.0, 2, 8, 0.0, 20);
  hog.application.state_bytes_per_node = 0.0;
  jobs.push_back(std::move(hog));
  jobs.push_back(rigid_job(2, 4, 10.0, 5.0));
  auto recorder = run_jobs("equal-share", 8, std::move(jobs));
  EXPECT_LT(record_of(recorder, 2).start_time, record_of(recorder, 1).end_time);
}

// ---------------------------------------------------------------------------
// Cross-algorithm sanity on one workload
// ---------------------------------------------------------------------------

TEST(AllSchedulers, CompleteEveryJobOnGeneratedMix) {
  workload::GeneratorConfig generator;
  generator.job_count = 40;
  generator.max_nodes = 8;
  generator.malleable_fraction = 0.3;
  generator.moldable_fraction = 0.2;
  generator.evolving_fraction = 0.1;
  generator.io_fraction = 0.3;
  generator.checkpoint_fraction = 0.2;
  generator.flops_per_node = 1e9;
  generator.seed = 23;
  for (const std::string& name : scheduler_names()) {
    auto recorder = run_jobs(name, 16, workload::generate_workload(generator));
    EXPECT_EQ(recorder.finished_count(), 40u) << name;
    EXPECT_EQ(recorder.killed_count(), 0u) << name;
  }
}

TEST(AllSchedulers, UtilizationNeverExceedsOne) {
  workload::GeneratorConfig generator;
  generator.job_count = 30;
  generator.max_nodes = 8;
  generator.malleable_fraction = 0.5;
  generator.flops_per_node = 1e9;
  generator.seed = 29;
  for (const std::string& name : scheduler_names()) {
    auto recorder = run_jobs(name, 8, workload::generate_workload(generator));
    EXPECT_LE(recorder.average_utilization(), 1.0 + 1e-9) << name;
    for (double bucket : recorder.utilization_buckets(60.0)) {
      EXPECT_LE(bucket, 1.0 + 1e-9) << name;
    }
  }
}

TEST(AllSchedulers, NoJobStartsBeforeSubmission) {
  workload::GeneratorConfig generator;
  generator.job_count = 30;
  generator.max_nodes = 8;
  generator.malleable_fraction = 0.4;
  generator.evolving_fraction = 0.2;
  generator.flops_per_node = 1e9;
  generator.seed = 31;
  for (const std::string& name : scheduler_names()) {
    auto recorder = run_jobs(name, 16, workload::generate_workload(generator));
    for (const auto& record : recorder.records()) {
      EXPECT_GE(record.wait_time(), -1e-9) << name;
    }
  }
}

TEST(AllSchedulers, NodeSecondsMatchTimelineIntegral) {
  // Conservation: sum of per-job node-seconds equals the integral of the
  // cluster-wide allocation step function.
  workload::GeneratorConfig generator;
  generator.job_count = 25;
  generator.max_nodes = 8;
  generator.malleable_fraction = 0.5;
  generator.flops_per_node = 1e9;
  generator.seed = 37;
  for (const std::string& name : scheduler_names()) {
    auto recorder = run_jobs(name, 8, workload::generate_workload(generator));
    double from_jobs = 0.0;
    for (const auto& record : recorder.records()) from_jobs += record.node_seconds;
    double from_timeline = 0.0;
    const auto& timeline = recorder.timeline();
    for (std::size_t i = 0; i + 1 < timeline.size(); ++i) {
      from_timeline +=
          timeline[i].allocated_nodes * (timeline[i + 1].time - timeline[i].time);
    }
    EXPECT_NEAR(from_jobs, from_timeline, 1e-6 * std::max(1.0, from_jobs)) << name;
  }
}

}  // namespace
}  // namespace elastisim::core
