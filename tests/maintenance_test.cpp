// Maintenance drains, their interleavings with node failures, and
// memory-aware admission. The drain harness validates every scheduling point.
#include <gtest/gtest.h>

#include <array>
#include <limits>

#include "core/batch_system.h"
#include "core/invariant_checker.h"
#include "core/scheduler.h"
#include "test_support.h"
#include "workload/workload_io.h"

namespace elastisim::core {
namespace {

using test::rigid_job;
using test::tiny_platform;

struct Harness {
  explicit Harness(std::size_t nodes, platform::ClusterConfig config)
      : cluster(engine, config),
        batch(engine, cluster, make_scheduler("fcfs"), recorder) {
    (void)nodes;
    checker.attach(engine, batch);
  }
  explicit Harness(std::size_t nodes) : Harness(nodes, tiny_platform(nodes)) {}

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
  InvariantChecker checker;
  BatchSystem batch;
};

/// Counts the drain and undrain events the batch system emits.
struct DrainEvents final : stats::BatchSubscriber {
  void on_event(const stats::BatchEvent& event) override {
    if (event.kind == stats::BatchEventKind::kNodeDrain) ++drains;
    if (event.kind == stats::BatchEventKind::kNodeUndrain) ++undrains;
  }
  int drains = 0;
  int undrains = 0;
};

// ---------------------------------------------------------------------------
// Draining
// ---------------------------------------------------------------------------

TEST(Drain, IdleNodeLeavesServiceImmediately) {
  Harness h(4);
  h.batch.drain_node(3, 5.0);
  h.batch.submit(rigid_job(1, 4, 10.0, /*submit=*/10.0));
  h.engine.run();
  EXPECT_EQ(h.batch.drained_nodes_now(), 1u);
  // The 4-node job cannot run on the 3 in-service nodes.
  EXPECT_EQ(h.batch.finished_jobs(), 0u);
  EXPECT_EQ(h.batch.queued_jobs(), 1u);
}

TEST(Drain, BusyNodeDrainsOnlyAfterJobFinishes) {
  Harness h(2);
  h.batch.submit(rigid_job(1, 2, 30.0));
  h.batch.drain_node(0, 10.0);
  h.engine.run_until(20.0);
  // Job still running on the drain-pending node.
  EXPECT_EQ(h.batch.drained_nodes_now(), 0u);
  EXPECT_EQ(h.batch.running_jobs(), 1u);
  h.engine.run();
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
  EXPECT_EQ(h.batch.drained_nodes_now(), 1u);
}

TEST(Drain, DrainedNodeNotGivenToNewJobs) {
  Harness h(2);
  h.batch.drain_node(0, 0.0);
  h.batch.submit(rigid_job(1, 1, 10.0, /*submit=*/5.0));
  h.engine.run();
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
  // The job must have run on node 1, the only in-service node.
  EXPECT_EQ(h.batch.drained_nodes_now(), 1u);
}

TEST(Drain, UndrainRestoresService) {
  Harness h(2);
  h.batch.drain_node(0, 0.0, /*until=*/20.0);
  h.batch.submit(rigid_job(1, 2, 10.0, /*submit=*/5.0));
  h.engine.run();
  EXPECT_DOUBLE_EQ(h.record(1).start_time, 20.0);
  EXPECT_EQ(h.batch.drained_nodes_now(), 0u);
}

TEST(Drain, PendingDrainCancelledByUndrain) {
  Harness h(2);
  h.batch.submit(rigid_job(1, 2, 30.0));
  h.batch.drain_node(0, 5.0, /*until=*/10.0);  // undrained before release
  h.batch.submit(rigid_job(2, 2, 5.0, /*submit=*/1.0));
  h.engine.run();
  // Node never left service: job 2 starts right when job 1 ends.
  EXPECT_DOUBLE_EQ(h.record(2).start_time, 30.0);
  EXPECT_EQ(h.batch.drained_nodes_now(), 0u);
}

TEST(Drain, ShrinkReleasesIntoDrain) {
  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster(engine, tiny_platform(4));
  BatchSystem batch(engine, cluster, make_scheduler("fcfs-malleable"), recorder);
  auto job = test::compute_job(1, workload::JobType::kMalleable, 4, 10.0, 2, 4, 0.0, 10);
  job.application.state_bytes_per_node = 0.0;
  batch.submit(std::move(job));
  // Drain one of the job's nodes, then force a shrink by submitting work.
  batch.drain_node(3, 5.0);
  batch.submit(rigid_job(2, 2, 10.0, /*submit=*/6.0));
  engine.run();
  // Node 3 is drained once the malleable job shrinks away from it.
  EXPECT_EQ(batch.drained_nodes_now(), 1u);
  EXPECT_EQ(batch.finished_jobs(), 2u);
}

TEST(Drain, FailureOverridesDrain) {
  Harness h(4);
  h.batch.drain_node(0, 0.0);
  h.batch.inject_failure(0, 5.0);
  h.engine.run();
  EXPECT_EQ(h.batch.failed_nodes_now(), 1u);
  EXPECT_EQ(h.batch.drained_nodes_now(), 0u);
}

TEST(Drain, DrainRequestedWhileDownHoldsAtRepair) {
  Harness h(2);
  h.batch.inject_failure(0, 1.0, /*repair_time=*/5.0);
  h.batch.drain_node(0, 2.0, /*until=*/100.0);
  h.batch.submit(rigid_job(1, 2, 10.0, /*submit=*/6.0));
  h.engine.run_until(50.0);
  // The repair at t=5 returns the node to its drain, not to service.
  EXPECT_EQ(h.batch.failed_nodes_now(), 0u);
  EXPECT_EQ(h.batch.drained_nodes_now(), 1u);
  EXPECT_EQ(h.batch.queued_jobs(), 1u);
  h.engine.run();
  EXPECT_DOUBLE_EQ(h.record(1).start_time, 100.0);
}

TEST(Drain, RedrainWhileDownEmitsOneDrain) {
  Harness h(2);
  DrainEvents events;
  h.batch.subscribe(&events);
  h.batch.drain_node(0, 1.0);
  h.batch.inject_failure(0, 2.0, /*repair_time=*/4.0);
  h.batch.drain_node(0, 3.0);  // already draining
  h.engine.run();
  EXPECT_EQ(events.drains, 1);
  EXPECT_EQ(h.batch.failed_nodes_now(), 0u);
  EXPECT_EQ(h.batch.drained_nodes_now(), 1u);
}

TEST(Drain, RejectsInvalidInput) {
  Harness h(4);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(h.batch.drain_node(99, 1.0));       // outside the cluster
  EXPECT_FALSE(h.batch.drain_node(0, -1.0));       // negative start
  EXPECT_FALSE(h.batch.drain_node(0, nan));        // NaN start
  EXPECT_FALSE(h.batch.drain_node(0, inf, inf));   // non-finite start
  EXPECT_FALSE(h.batch.drain_node(0, 10.0, 5.0));  // ends before it starts
  EXPECT_FALSE(h.batch.drain_node(0, 10.0, nan));  // NaN end
  EXPECT_EQ(h.engine.pending_events(), 0u);        // nothing was scheduled
  // The whole machine stays in service.
  h.batch.submit(rigid_job(1, 4, 10.0, /*submit=*/20.0));
  h.engine.run();
  EXPECT_DOUBLE_EQ(h.record(1).start_time, 20.0);
  EXPECT_EQ(h.batch.drained_nodes_now(), 0u);
}

TEST(Drain, AcceptsValidInput) {
  Harness h(4);
  EXPECT_TRUE(h.batch.drain_node(0, 0.0));
  EXPECT_TRUE(h.batch.drain_node(1, 5.0, 5.0));  // an empty window
  EXPECT_TRUE(h.batch.drain_node(3, 2.0, 8.0));
  h.engine.run();
  EXPECT_EQ(h.batch.drained_nodes_now(), 1u);  // node 0 stays drained
}

// ---------------------------------------------------------------------------
// Fail x drain x undrain x repair
// ---------------------------------------------------------------------------

/// One order of node 0's fail, drain, undrain and repair, one event per
/// second from t=1, on an idle 2-node cluster.
struct Ordering {
  const char* name;
  double fail, drain, undrain, repair;
  /// {free, failed, drained} after each of the four events.
  std::array<std::array<std::size_t, 3>, 4> after;
  int drains, undrains;
};

TEST(FailureDrainOrder, EveryOrderOfOneNodesEvents) {
  const Ordering orderings[] = {
      {"fail drain repair undrain", 1, 2, 4, 3,
       {{{1, 1, 0}, {1, 1, 0}, {1, 0, 1}, {2, 0, 0}}}, 1, 1},
      {"fail drain undrain repair", 1, 2, 3, 4,
       {{{1, 1, 0}, {1, 1, 0}, {1, 1, 0}, {2, 0, 0}}}, 1, 0},
      {"drain fail repair undrain", 2, 1, 4, 3,
       {{{1, 0, 1}, {1, 1, 0}, {1, 0, 1}, {2, 0, 0}}}, 1, 1},
      {"drain fail undrain repair", 2, 1, 3, 4,
       {{{1, 0, 1}, {1, 1, 0}, {1, 1, 0}, {2, 0, 0}}}, 1, 0},
      {"drain undrain fail repair", 3, 1, 2, 4,
       {{{1, 0, 1}, {2, 0, 0}, {1, 1, 0}, {2, 0, 0}}}, 1, 1},
      {"fail repair drain undrain", 1, 3, 4, 2,
       {{{1, 1, 0}, {2, 0, 0}, {1, 0, 1}, {2, 0, 0}}}, 1, 1},
  };
  for (const Ordering& order : orderings) {
    SCOPED_TRACE(order.name);
    Harness h(2);
    DrainEvents events;
    h.batch.subscribe(&events);
    ASSERT_TRUE(h.batch.inject_failure(0, order.fail, order.repair));
    ASSERT_TRUE(h.batch.drain_node(0, order.drain, order.undrain));
    h.batch.submit(rigid_job(1, 2, 10.0, /*submit=*/4.5));
    for (std::size_t step = 0; step < 4; ++step) {
      h.engine.run_until(static_cast<double>(step) + 1.25);
      const std::array<std::size_t, 3> state = {static_cast<std::size_t>(h.batch.free_nodes()),
                                                h.batch.failed_nodes_now(),
                                                h.batch.drained_nodes_now()};
      EXPECT_EQ(state, order.after[step]) << "after event " << step + 1;
    }
    h.engine.run();
    // The whole machine is back: the 2-node job starts on submission.
    EXPECT_DOUBLE_EQ(h.record(1).start_time, 4.5);
    EXPECT_EQ(events.drains, order.drains);
    EXPECT_EQ(events.undrains, order.undrains);
  }
}

TEST(FailureDrainOrder, BusyDrainFailUndrainRepair) {
  Harness h(2);
  h.batch.submit(rigid_job(1, 2, 50.0));
  h.batch.drain_node(1, 10.0, /*until=*/25.0);            // busy: drain pending
  h.batch.inject_failure(1, 20.0, /*repair_time=*/30.0);  // evicts job 1
  h.engine.run();
  // The undrain while down drops the drain: the repair frees the node and
  // the requeued job restarts at once.
  EXPECT_EQ(h.batch.requeued_jobs(), 1u);
  EXPECT_EQ(h.batch.drained_nodes_now(), 0u);
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 80.0);
}

TEST(FailureDrainOrder, BusyDrainFailRepairUndrain) {
  Harness h(2);
  h.batch.submit(rigid_job(1, 2, 50.0));
  h.batch.drain_node(1, 10.0, /*until=*/40.0);            // busy: drain pending
  h.batch.inject_failure(1, 20.0, /*repair_time=*/30.0);  // evicts job 1
  h.engine.run_until(35.0);
  EXPECT_EQ(h.batch.drained_nodes_now(), 1u);  // repaired into the drain
  h.engine.run();
  EXPECT_EQ(h.batch.drained_nodes_now(), 0u);
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 90.0);  // restarted at the undrain
}

// ---------------------------------------------------------------------------
// Memory-aware admission
// ---------------------------------------------------------------------------

TEST(MemoryAdmission, OversizedJobRejected) {
  auto config = tiny_platform(4);
  config.memory_bytes = 64e9;
  Harness h(4, config);
  auto job = rigid_job(1, 2, 10.0);
  job.memory_bytes_per_node = 128e9;
  EXPECT_FALSE(h.batch.submit(std::move(job)));
}

TEST(MemoryAdmission, FittingJobAccepted) {
  auto config = tiny_platform(4);
  config.memory_bytes = 64e9;
  Harness h(4, config);
  auto job = rigid_job(1, 2, 10.0);
  job.memory_bytes_per_node = 32e9;
  EXPECT_TRUE(h.batch.submit(std::move(job)));
  h.engine.run();
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
}

TEST(MemoryAdmission, UnspecifiedPlatformMemoryAdmitsEverything) {
  Harness h(4);  // tiny_platform leaves memory at 0 (unspecified)
  auto job = rigid_job(1, 2, 10.0);
  job.memory_bytes_per_node = 1e15;
  EXPECT_TRUE(h.batch.submit(std::move(job)));
}

TEST(MemoryAdmission, JsonRoundTrip) {
  auto job = rigid_job(1, 2, 10.0);
  job.memory_bytes_per_node = 48e9;
  const auto back = workload::job_from_json(workload::job_to_json(job));
  EXPECT_DOUBLE_EQ(back.memory_bytes_per_node, 48e9);
  EXPECT_EQ(workload::job_to_json(rigid_job(2, 2, 10.0)).find("memory_per_node"), nullptr);
}

}  // namespace
}  // namespace elastisim::core
