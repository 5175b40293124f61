// Batch-system protocol tests: queueing, node bookkeeping, walltime kills,
// the malleable resize protocol, evolving requests, and reconfiguration
// charging — all with exactly predictable timings.
#include <gtest/gtest.h>

#include "core/batch_system.h"
#include "core/schedulers.h"
#include "core/simulation.h"
#include "stats/state_sampler.h"
#include "test_support.h"
#include "workload/generator.h"

namespace elastisim::core {
namespace {

using test::compute_job;
using test::rigid_job;
using test::tiny_platform;
using workload::JobType;

struct Harness {
  explicit Harness(std::size_t nodes, std::string scheduler = "fcfs", BatchConfig config = {})
      : cluster(engine, tiny_platform(nodes)),
        batch(engine, cluster, make_scheduler(scheduler), recorder, config) {}

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

// ---------------------------------------------------------------------------
// Queueing and starts
// ---------------------------------------------------------------------------

TEST(BatchSystem, SingleJobRunsForExactDuration) {
  Harness h(4);
  h.batch.submit(rigid_job(1, 4, 100.0));
  h.engine.run();
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
  EXPECT_DOUBLE_EQ(h.record(1).start_time, 0.0);
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 100.0);
}

TEST(BatchSystem, SecondJobWaitsForNodes) {
  Harness h(4);
  h.batch.submit(rigid_job(1, 4, 100.0));
  h.batch.submit(rigid_job(2, 4, 50.0, /*submit=*/10.0));
  h.engine.run();
  EXPECT_DOUBLE_EQ(h.record(2).start_time, 100.0);
  EXPECT_DOUBLE_EQ(h.record(2).end_time, 150.0);
  EXPECT_DOUBLE_EQ(h.record(2).wait_time(), 90.0);
}

TEST(BatchSystem, IndependentJobsRunConcurrently) {
  Harness h(4);
  h.batch.submit(rigid_job(1, 2, 100.0));
  h.batch.submit(rigid_job(2, 2, 100.0));
  h.engine.run();
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 100.0);
  EXPECT_DOUBLE_EQ(h.record(2).end_time, 100.0);
}

TEST(BatchSystem, SubmitTimeRespected) {
  Harness h(4);
  h.batch.submit(rigid_job(1, 1, 10.0, /*submit=*/42.0));
  h.engine.run();
  EXPECT_DOUBLE_EQ(h.record(1).submit_time, 42.0);
  EXPECT_DOUBLE_EQ(h.record(1).start_time, 42.0);
}

TEST(BatchSystem, RejectsOversizedJob) {
  Harness h(4);
  EXPECT_FALSE(h.batch.submit(rigid_job(1, 8, 10.0)));
  h.engine.run();
  EXPECT_EQ(h.batch.finished_jobs(), 0u);
  EXPECT_TRUE(h.recorder.records().empty());
}

TEST(BatchSystem, RejectsInvalidJob) {
  Harness h(4);
  auto bad = rigid_job(1, 2, 10.0);
  bad.application.phases.clear();
  EXPECT_FALSE(h.batch.submit(std::move(bad)));
}

TEST(BatchSystem, RejectsDuplicateJobId) {
  Harness h(4);
  EXPECT_TRUE(h.batch.submit(rigid_job(1, 2, 10.0)));
  EXPECT_FALSE(h.batch.submit(rigid_job(1, 2, 5.0, /*submit=*/3.0)));
  h.engine.run();
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
  ASSERT_EQ(h.recorder.records().size(), 1u);
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 10.0);
}

TEST(BatchSystem, MultiIterationJobRunsAllIterations) {
  Harness h(2);
  h.batch.submit(rigid_job(1, 2, 10.0, 0.0, /*iterations=*/5));
  h.engine.run();
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 50.0);
}

TEST(BatchSystem, MoldableStartsAtFreeSizeWhenShort) {
  // 4-node cluster, job wants 8 but min 2: FCFS starts it at 4.
  Harness h(4);
  h.batch.submit(compute_job(1, JobType::kMoldable, 4, 40.0, 2, 8));
  h.engine.run();
  EXPECT_EQ(h.record(1).initial_nodes, 4);
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 40.0);
}

// ---------------------------------------------------------------------------
// Walltime enforcement
// ---------------------------------------------------------------------------

TEST(BatchSystem, WalltimeKillsAtLimit) {
  Harness h(2);
  auto job = rigid_job(1, 2, 100.0);
  job.walltime_limit = 30.0;
  h.batch.submit(std::move(job));
  h.engine.run();
  EXPECT_EQ(h.batch.killed_jobs(), 1u);
  EXPECT_TRUE(h.record(1).killed);
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 30.0);
}

TEST(BatchSystem, KillFreesNodesForNextJob) {
  Harness h(2);
  auto hog = rigid_job(1, 2, 1000.0);
  hog.walltime_limit = 20.0;
  h.batch.submit(std::move(hog));
  h.batch.submit(rigid_job(2, 2, 10.0, /*submit=*/5.0));
  h.engine.run();
  EXPECT_DOUBLE_EQ(h.record(2).start_time, 20.0);
  EXPECT_DOUBLE_EQ(h.record(2).end_time, 30.0);
}

TEST(BatchSystem, JobFinishingExactlyAtWalltimeIsNotKilled) {
  Harness h(1);
  auto job = rigid_job(1, 1, 50.0);
  job.walltime_limit = 50.0 + 1e-6;
  h.batch.submit(std::move(job));
  h.engine.run();
  EXPECT_FALSE(h.record(1).killed);
}

// ---------------------------------------------------------------------------
// Malleable protocol
// ---------------------------------------------------------------------------

TEST(BatchSystem, MalleableExpandsIntoIdleNodes) {
  // 100s of 2-node work, 10 iterations; alone on 4 nodes with the malleable
  // scheduler it expands to 4 at the first boundary and halves the remaining
  // per-iteration time: 10 + 9*5 = 55s total.
  Harness h(4, "fcfs-malleable");
  auto job = compute_job(1, JobType::kMalleable, 2, 10.0, 1, 4, 0.0, /*iterations=*/10);
  job.application.state_bytes_per_node = 0.0;  // free reconfiguration
  h.batch.submit(std::move(job));
  h.engine.run();
  EXPECT_EQ(h.record(1).expansions, 1);
  EXPECT_EQ(h.record(1).final_nodes, 4);
  EXPECT_NEAR(h.record(1).end_time, 55.0, 1e-6);
}

TEST(BatchSystem, MalleableShrinksToAdmitQueuedJob) {
  // Malleable job fills all 4 nodes; a rigid 2-node job arrives. The
  // malleable job shrinks at its next boundary and the rigid job starts
  // before the malleable one ends.
  Harness h(4, "fcfs-malleable");
  auto big = compute_job(1, JobType::kMalleable, 4, 20.0, 2, 4, 0.0, /*iterations=*/10);
  big.application.state_bytes_per_node = 0.0;
  h.batch.submit(std::move(big));
  h.batch.submit(rigid_job(2, 2, 10.0, /*submit=*/5.0));
  h.engine.run();
  EXPECT_GE(h.record(1).shrinks, 1);
  EXPECT_LT(h.record(2).start_time, h.record(1).end_time);
  // Shrink applies at the first boundary (t=20).
  EXPECT_NEAR(h.record(2).start_time, 20.0, 1e-6);
}

TEST(BatchSystem, RigidJobNeverResized) {
  Harness h(4, "fcfs-malleable");
  h.batch.submit(rigid_job(1, 2, 10.0, 0.0, /*iterations=*/5));
  h.engine.run();
  EXPECT_EQ(h.record(1).expansions, 0);
  EXPECT_EQ(h.record(1).shrinks, 0);
  EXPECT_EQ(h.record(1).final_nodes, 2);
}

TEST(BatchSystem, ReconfigurationChargedThroughNetwork) {
  // With per-node state and finite links, expansion inserts a transfer:
  // completion is strictly later than with free reconfiguration.
  auto run_with_state = [](double state_bytes) {
    sim::Engine engine;
    stats::Recorder recorder;
    auto config = tiny_platform(4);
    config.link_bandwidth = 1e9;  // 1 GB/s links make redistribution visible
    platform::Cluster cluster(engine, config);
    BatchSystem batch(engine, cluster, make_scheduler("fcfs-malleable"), recorder);
    auto job = compute_job(1, JobType::kMalleable, 2, 10.0, 1, 4, 0.0, 10);
    job.application.state_bytes_per_node = state_bytes;
    batch.submit(std::move(job));
    engine.run();
    return recorder.records()[0].end_time;
  };
  const double free_reconfig = run_with_state(0.0);
  const double charged = run_with_state(8e9);  // 8 GB per node share
  EXPECT_GT(charged, free_reconfig + 1.0);
}

TEST(BatchSystem, ChargeReconfigurationFlagDisablesCost) {
  auto run = [](bool charge) {
    sim::Engine engine;
    stats::Recorder recorder;
    auto config = tiny_platform(4);
    config.link_bandwidth = 1e9;
    platform::Cluster cluster(engine, config);
    BatchConfig batch_config;
    batch_config.charge_reconfiguration = charge;
    BatchSystem batch(engine, cluster, make_scheduler("fcfs-malleable"), recorder,
                      batch_config);
    auto job = compute_job(1, JobType::kMalleable, 2, 10.0, 1, 4, 0.0, 10);
    job.application.state_bytes_per_node = 8e9;
    batch.submit(std::move(job));
    engine.run();
    return recorder.records()[0].end_time;
  };
  EXPECT_GT(run(true), run(false) + 1.0);
}

TEST(BatchSystem, ShrinkHoldsNodesUntilRedistributionCompletes) {
  // Shrink 4->2 with 4 GB/node state over 1 GB/s links: the freed pair stays
  // busy during the transfer, so the waiting rigid job starts only after it.
  sim::Engine engine;
  stats::Recorder recorder;
  auto config = tiny_platform(4);
  config.link_bandwidth = 1e9;
  platform::Cluster cluster(engine, config);
  BatchSystem batch(engine, cluster, make_scheduler("fcfs-malleable"), recorder);
  auto big = compute_job(1, JobType::kMalleable, 4, 20.0, 2, 4, 0.0, 10);
  big.application.state_bytes_per_node = 4e9;
  batch.submit(std::move(big));
  batch.submit(rigid_job(2, 2, 10.0, /*submit=*/5.0));
  engine.run();
  const stats::JobRecord* second = nullptr;
  for (const auto& record : recorder.records()) {
    if (record.id == 2) second = &record;
  }
  ASSERT_NE(second, nullptr);
  // Boundary at t=20; each removed node ships 4 GB at 1 GB/s (concurrent
  // streams through distinct links) -> earliest start 24.
  EXPECT_GE(second->start_time, 24.0 - 1e-6);
}

// ---------------------------------------------------------------------------
// Evolving requests
// ---------------------------------------------------------------------------

workload::Job evolving_job(workload::JobId id, int start_nodes, int delta,
                           double seconds_per_iteration) {
  workload::Job job;
  job.id = id;
  job.type = JobType::kEvolving;
  job.requested_nodes = start_nodes;
  job.min_nodes = 1;
  job.max_nodes = 8;
  workload::Phase first;
  first.name = "a";
  first.iterations = 2;
  first.groups.push_back({workload::Task{
      "c", workload::ComputeTask{seconds_per_iteration * 1e9 * start_nodes,
                                 workload::ScalingModel::kStrong, 0.0}}});
  workload::Phase second = first;
  second.name = "b";
  second.evolving_delta = delta;
  job.application.phases.push_back(first);
  job.application.phases.push_back(second);
  job.application.state_bytes_per_node = 0.0;
  return job;
}

TEST(BatchSystem, EvolvingGrowGrantedWhenNodesFree) {
  Harness h(8, "fcfs");
  h.batch.submit(evolving_job(1, 2, +2, 10.0));
  h.engine.run();
  const auto& record = h.record(1);
  EXPECT_EQ(record.evolving_requests, 1);
  EXPECT_EQ(record.evolving_granted, 1);
  EXPECT_EQ(record.final_nodes, 4);
  EXPECT_EQ(record.expansions, 1);
}

TEST(BatchSystem, EvolvingGrowDeniedWhenClusterFull) {
  Harness h(4, "fcfs");
  h.batch.submit(evolving_job(1, 2, +2, 10.0));
  h.batch.submit(rigid_job(2, 2, 1000.0));  // occupies the other half
  h.engine.run();
  const auto& record = h.record(1);
  EXPECT_EQ(record.evolving_requests, 1);
  EXPECT_EQ(record.evolving_granted, 0);
  EXPECT_EQ(record.final_nodes, 2);
}

TEST(BatchSystem, EvolvingShrinkAlwaysGranted) {
  Harness h(4, "fcfs");
  h.batch.submit(evolving_job(1, 4, -2, 10.0));
  h.engine.run();
  const auto& record = h.record(1);
  EXPECT_EQ(record.evolving_granted, 1);
  EXPECT_EQ(record.final_nodes, 2);
  EXPECT_EQ(record.shrinks, 1);
}

TEST(BatchSystem, EvolvingShrinkFreesNodesForQueue) {
  Harness h(4, "fcfs");
  h.batch.submit(evolving_job(1, 4, -2, 10.0));
  h.batch.submit(rigid_job(2, 2, 5.0, /*submit=*/1.0));
  h.engine.run();
  // Phase "a" runs 2 iterations of 10s; the shrink lands at t=20 and job 2
  // starts immediately after.
  EXPECT_NEAR(h.record(2).start_time, 20.0, 1e-6);
}

// ---------------------------------------------------------------------------
// run_simulation facade
// ---------------------------------------------------------------------------

TEST(RunSimulation, UnknownSchedulerThrows) {
  SimulationConfig config;
  config.scheduler = "wishful";
  EXPECT_THROW(run_simulation(config, {}), std::runtime_error);
}

TEST(RunSimulation, ReportsCounts) {
  SimulationConfig config;
  config.platform = tiny_platform(4);
  config.scheduler = "fcfs";
  std::vector<workload::Job> jobs;
  jobs.push_back(rigid_job(1, 2, 10.0));
  jobs.push_back(rigid_job(2, 2, 10.0));
  auto result = run_simulation(config, std::move(jobs));
  EXPECT_EQ(result.submitted, 2u);
  EXPECT_EQ(result.finished, 2u);
  EXPECT_EQ(result.stuck, 0u);
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);
  EXPECT_GT(result.events_processed, 0u);
}

TEST(RunSimulation, DeterministicAcrossRuns) {
  SimulationConfig config;
  config.platform = tiny_platform(8);
  config.scheduler = "easy-malleable";
  workload::GeneratorConfig generator;
  generator.job_count = 30;
  generator.max_nodes = 8;
  generator.malleable_fraction = 0.5;
  generator.flops_per_node = 1e9;

  auto a = run_simulation(config, workload::generate_workload(generator));
  auto b = run_simulation(config, workload::generate_workload(generator));
  ASSERT_EQ(a.recorder.records().size(), b.recorder.records().size());
  for (std::size_t i = 0; i < a.recorder.records().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.recorder.records()[i].start_time, b.recorder.records()[i].start_time);
    EXPECT_DOUBLE_EQ(a.recorder.records()[i].end_time, b.recorder.records()[i].end_time);
    EXPECT_EQ(a.recorder.records()[i].final_nodes, b.recorder.records()[i].final_nodes);
  }
}

TEST(RunSimulation, PeriodicTimerDoesNotPreventTermination) {
  SimulationConfig config;
  config.platform = tiny_platform(2);
  config.scheduler = "fcfs";
  config.batch.scheduling_interval = 5.0;
  std::vector<workload::Job> jobs;
  jobs.push_back(rigid_job(1, 2, 30.0));
  auto result = run_simulation(config, std::move(jobs));
  EXPECT_EQ(result.finished, 1u);
}

TEST(PeriodicTimers, StopOnceOnlyTheyArePending) {
  BatchConfig config;
  config.scheduling_interval = 600.0;
  Harness h(4, "fcfs", config);
  stats::StateSampler sampler(300.0);
  h.batch.subscribe(&sampler);
  h.batch.submit(rigid_job(1, 4, 100.0));
  // Node 0 is never repaired, so the requeued 4-node job can never restart:
  // nothing but the two timers could keep the run alive.
  ASSERT_TRUE(h.batch.inject_failure(0, 1.0));
  h.engine.run_until(1e7);
  EXPECT_EQ(h.engine.pending_events(), 0u);
  EXPECT_EQ(h.batch.queued_jobs(), 1u);
}

}  // namespace
}  // namespace elastisim::core
