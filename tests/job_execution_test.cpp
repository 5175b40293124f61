// Direct JobExecution tests: phase/group sequencing, task-type timing on a
// known platform, reconfiguration mechanics, and abort safety — without a
// batch system in the loop.
#include <gtest/gtest.h>

#include "core/job_execution.h"
#include "test_support.h"

namespace elastisim::core {
namespace {

using test::tiny_platform;
using workload::CommPattern;
using workload::CommTask;
using workload::ComputeTask;
using workload::DelayTask;
using workload::IoTarget;
using workload::IoTask;
using workload::Job;
using workload::Phase;
using workload::ScalingModel;
using workload::Task;
using workload::TaskGroup;

struct Fixture {
  explicit Fixture(std::size_t nodes, platform::ClusterConfig config)
      : cluster(engine, config) {
    (void)nodes;
  }
  explicit Fixture(std::size_t nodes) : Fixture(nodes, tiny_platform(nodes)) {}

  // Takes the job by value and keeps it alive: JobExecution stores a pointer.
  std::unique_ptr<JobExecution> make(Job job, std::vector<platform::NodeId> nodes) {
    stored_job = std::move(job);
    return std::make_unique<JobExecution>(
        engine, cluster, stored_job, std::move(nodes),
        [this] {
          ++boundaries;
          if (!execution) return;
          last_delta = execution->evolving_delta();
          if (auto_resume) execution->resume();
        },
        [this] { completed_at = engine.now(); });
  }

  sim::Engine engine;
  platform::Cluster cluster;
  Job stored_job;
  std::unique_ptr<JobExecution> execution;
  int boundaries = 0;
  int last_delta = 0;
  bool auto_resume = true;
  double completed_at = -1.0;
};

Job job_with_phase(Phase phase) {
  Job job;
  job.id = 1;
  job.requested_nodes = job.min_nodes = job.max_nodes = 2;
  job.application.phases.push_back(std::move(phase));
  return job;
}

TEST(JobExecution, SingleComputeTaskExactDuration) {
  Fixture f(2);
  Phase phase;
  phase.name = "p";
  phase.groups.push_back({Task{"c", ComputeTask{2e10, ScalingModel::kStrong, 0.0}}});
  const Job job = job_with_phase(std::move(phase));
  f.execution = f.make(job, {0, 1});
  f.execution->start();
  f.engine.run();
  // 2e10 FLOPs strong-scaled over 2 nodes at 1e9 FLOP/s each: 10 s.
  EXPECT_DOUBLE_EQ(f.completed_at, 10.0);
  EXPECT_EQ(f.boundaries, 0);  // single iteration, single phase
}

TEST(JobExecution, SequentialGroupsAddUp) {
  Fixture f(2);
  Phase phase;
  phase.name = "p";
  phase.groups.push_back({Task{"a", DelayTask{3.0}}});
  phase.groups.push_back({Task{"b", DelayTask{4.0}}});
  f.execution = f.make(job_with_phase(std::move(phase)), {0, 1});
  f.execution->start();
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.completed_at, 7.0);
}

TEST(JobExecution, ConcurrentTasksOverlap) {
  Fixture f(2);
  Phase phase;
  phase.name = "p";
  phase.groups.push_back(
      TaskGroup{Task{"a", DelayTask{3.0}}, Task{"b", DelayTask{5.0}}});
  f.execution = f.make(job_with_phase(std::move(phase)), {0, 1});
  f.execution->start();
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.completed_at, 5.0);  // max, not sum
}

TEST(JobExecution, IterationsRepeatAndPauseAtBoundaries) {
  Fixture f(2);
  Phase phase;
  phase.name = "p";
  phase.iterations = 4;
  phase.groups.push_back({Task{"d", DelayTask{2.0}}});
  f.execution = f.make(job_with_phase(std::move(phase)), {0, 1});
  f.execution->start();
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.completed_at, 8.0);
  EXPECT_EQ(f.boundaries, 3);  // between iterations, not after the last
}

TEST(JobExecution, EmptyGroupsSkipped) {
  Fixture f(2);
  Phase phase;
  phase.name = "p";
  phase.groups.push_back(TaskGroup{});
  phase.groups.push_back({Task{"d", DelayTask{1.0}}});
  phase.groups.push_back(TaskGroup{});
  f.execution = f.make(job_with_phase(std::move(phase)), {0, 1});
  f.execution->start();
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.completed_at, 1.0);
}

TEST(JobExecution, CommunicationOnSingleNodeIsFree) {
  Fixture f(2);
  Phase phase;
  phase.name = "p";
  phase.groups.push_back({Task{"x", CommTask{CommPattern::kAllReduce, 1e12}}});
  Job job = job_with_phase(std::move(phase));
  job.requested_nodes = job.min_nodes = job.max_nodes = 1;
  f.execution = f.make(job, {0});
  f.execution->start();
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.completed_at, 0.0);
}

TEST(JobExecution, CommunicationTimeMatchesBottleneckLink) {
  auto config = tiny_platform(2);
  config.link_bandwidth = 1e9;
  Fixture f(2, config);
  Phase phase;
  phase.name = "p";
  // Ring over 2 nodes: each node sends 1 GB to the other twice (successor +
  // predecessor coincide) -> 2 GB per uplink at 1 GB/s -> 2 s.
  phase.groups.push_back({Task{"x", CommTask{CommPattern::kRing, 1e9}}});
  f.execution = f.make(job_with_phase(std::move(phase)), {0, 1});
  f.execution->start();
  f.engine.run();
  EXPECT_NEAR(f.completed_at, 2.0, 1e-9);
}

TEST(JobExecution, StrongIoStripesAcrossNodes) {
  auto config = tiny_platform(4);
  config.pfs.write_bandwidth = 1e9;
  Fixture f(4, config);
  Phase phase;
  phase.name = "p";
  phase.groups.push_back(
      {Task{"w", IoTask{true, 4e9, ScalingModel::kStrong, IoTarget::kPfs}}});
  Job job = job_with_phase(std::move(phase));
  job.requested_nodes = job.min_nodes = job.max_nodes = 4;
  f.execution = f.make(job, {0, 1, 2, 3});
  f.execution->start();
  f.engine.run();
  // 4 GB total through a 1 GB/s PFS: 4 s (links are not the bottleneck).
  EXPECT_NEAR(f.completed_at, 4.0, 1e-9);
}

TEST(JobExecution, WeakIoScalesWithNodes) {
  auto config = tiny_platform(4);
  config.pfs.write_bandwidth = 1e9;
  Fixture f(4, config);
  Phase phase;
  phase.name = "p";
  phase.groups.push_back(
      {Task{"w", IoTask{true, 1e9, ScalingModel::kWeak, IoTarget::kPfs}}});
  Job job = job_with_phase(std::move(phase));
  job.requested_nodes = job.min_nodes = job.max_nodes = 4;
  f.execution = f.make(job, {0, 1, 2, 3});
  f.execution->start();
  f.engine.run();
  // 1 GB per node x 4 nodes through 1 GB/s: 4 s.
  EXPECT_NEAR(f.completed_at, 4.0, 1e-9);
}

TEST(JobExecution, BurstBufferIoAvoidsPfs) {
  auto config = tiny_platform(2);
  config.pfs.write_bandwidth = 1.0;  // effectively unusable
  config.burst_buffer_bandwidth = 1e9;
  Fixture f(2, config);
  Phase phase;
  phase.name = "p";
  phase.groups.push_back(
      {Task{"w", IoTask{true, 2e9, ScalingModel::kStrong, IoTarget::kBurstBuffer}}});
  f.execution = f.make(job_with_phase(std::move(phase)), {0, 1});
  f.execution->start();
  f.engine.run();
  // 1 GB per node to its own 1 GB/s buffer: 1 s, PFS untouched.
  EXPECT_NEAR(f.completed_at, 1.0, 1e-9);
}

TEST(JobExecution, BurstBufferFallsBackToPfsWhenAbsent) {
  auto config = tiny_platform(2);
  config.pfs.write_bandwidth = 1e9;
  config.burst_buffer_bandwidth = 0.0;  // no buffers on this platform
  Fixture f(2, config);
  Phase phase;
  phase.name = "p";
  phase.groups.push_back(
      {Task{"w", IoTask{true, 2e9, ScalingModel::kStrong, IoTarget::kBurstBuffer}}});
  f.execution = f.make(job_with_phase(std::move(phase)), {0, 1});
  f.execution->start();
  f.engine.run();
  EXPECT_NEAR(f.completed_at, 2.0, 1e-9);  // served by the 1 GB/s PFS
}

TEST(JobExecution, ResumeWithMoreNodesSpeedsRemainingIterations) {
  Fixture f(4);
  f.auto_resume = false;
  Phase phase;
  phase.name = "p";
  phase.iterations = 2;
  phase.groups.push_back({Task{"c", ComputeTask{2e10, ScalingModel::kStrong, 0.0}}});
  Job job = job_with_phase(std::move(phase));
  job.type = workload::JobType::kMalleable;
  job.min_nodes = 1;
  job.max_nodes = 4;
  f.execution = f.make(job, {0, 1});
  f.execution->start();
  f.engine.run();  // runs until the boundary after iteration 1 (t=10)
  ASSERT_TRUE(f.execution->at_boundary());
  bool applied = false;
  const std::vector<platform::NodeId> grown = {0, 1, 2, 3};
  f.execution->resume_with_nodes(grown, /*charge=*/false, [&applied] { applied = true; });
  f.engine.run();
  EXPECT_TRUE(applied);
  EXPECT_EQ(f.execution->node_count(), 4);
  // Second iteration at 4 nodes: 5 s -> total 15 s.
  EXPECT_DOUBLE_EQ(f.completed_at, 15.0);
}

TEST(JobExecution, AbortCancelsOutstandingWork) {
  Fixture f(2);
  Phase phase;
  phase.name = "p";
  phase.groups.push_back({Task{"d", DelayTask{100.0}}});
  f.execution = f.make(job_with_phase(std::move(phase)), {0, 1});
  f.execution->start();
  f.engine.run_until(10.0);
  f.execution->abort();
  f.engine.run();
  EXPECT_DOUBLE_EQ(f.completed_at, -1.0);  // completion never fired
  EXPECT_EQ(f.engine.fluid().active_count(), 0u);
}

TEST(JobExecution, EvolvingDeltaReportedOnPhaseEntry) {
  Fixture f(2);
  Job job;
  job.id = 1;
  job.type = workload::JobType::kEvolving;
  job.requested_nodes = 2;
  job.min_nodes = 1;
  job.max_nodes = 4;
  Phase first;
  first.name = "a";
  first.iterations = 2;
  first.groups.push_back({Task{"d", DelayTask{1.0}}});
  Phase second = first;
  second.name = "b";
  second.evolving_delta = 2;
  job.application.phases.push_back(first);
  job.application.phases.push_back(second);

  std::vector<int> deltas;
  auto execution = std::make_unique<JobExecution>(
      f.engine, f.cluster, job, std::vector<platform::NodeId>{0, 1},
      [&] {
        deltas.push_back(f.execution->evolving_delta());
        f.execution->resume();
      },
      [] {});
  f.execution = std::move(execution);
  f.execution->start();
  f.engine.run();
  // Boundaries: after a/iter0 (0), entering b (+2), after b/iter0 (0).
  EXPECT_EQ(deltas, (std::vector<int>{0, 2, 0}));
}

}  // namespace
}  // namespace elastisim::core
