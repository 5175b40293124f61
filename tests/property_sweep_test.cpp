// Parameterized property sweep: every scheduling algorithm x workload mix x
// topology (x node failures and maintenance drains) must satisfy the
// simulator's global invariants. Each combination is its own test case so a
// regression pinpoints the exact configuration. Every run is validated: the
// invariant checker re-verifies the batch state, including each scheduler
// view entry against its job's record and the node table, at every
// scheduling point.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fault_injector.h"
#include "core/invariant_checker.h"
#include "core/simulation.h"
#include "test_support.h"
#include "workload/generator.h"

namespace elastisim {
namespace {

struct SweepCase {
  std::string scheduler;
  double malleable_fraction;
  platform::TopologyKind topology;
  /// Inject node failures (per-node MTBF 6 h) under requeue-restart, with
  /// checkpointing jobs, and drain a quarter of the nodes over a window that
  /// overlaps them.
  bool failures = false;
};

class SimulationProperties : public testing::TestWithParam<SweepCase> {
 protected:
  core::SimulationResult run() {
    const SweepCase& param = GetParam();
    core::SimulationConfig config;
    config.platform = test::tiny_platform(16);
    config.platform.topology = param.topology;
    config.platform.pod_size = 4;
    config.platform.pod_bandwidth = 1e12;
    config.scheduler = param.scheduler;
    config.validate = true;

    workload::GeneratorConfig generator;
    generator.job_count = 30;
    generator.seed = 1234;
    generator.max_nodes = 8;
    generator.malleable_fraction = param.malleable_fraction;
    generator.evolving_fraction =
        param.malleable_fraction > 0.0 && param.malleable_fraction < 1.0 ? 0.1 : 0.0;
    generator.io_fraction = 0.25;
    generator.flops_per_node = 1e9;
    generator.max_priority = 3;

    std::vector<core::FailureEvent> failures;
    if (param.failures) {
      config.batch.failure_policy = core::FailurePolicy::kRequeueRestart;
      config.batch.restart_overhead = 30.0;
      generator.checkpoint_fraction = 0.5;
      core::FaultModelConfig model;
      model.mtbf = 6.0 * 3600.0;
      model.mean_repair = 1200.0;
      model.seed = 5;
      failures = core::FaultInjector(model).generate(config.platform.node_count);
      return run_with_drains(config, workload::generate_workload(generator), failures);
    }
    return core::run_simulation(config, workload::generate_workload(generator));
  }

  /// run_simulation's wiring plus a maintenance window: four of the 16 nodes
  /// drain from the first failure until 2 h after its repair, and the first
  /// failed node is drained while it is down.
  static core::SimulationResult run_with_drains(const core::SimulationConfig& config,
                                                std::vector<workload::Job> jobs,
                                                const std::vector<core::FailureEvent>& failures) {
    core::SimulationResult result;
    sim::Engine engine;
    platform::Cluster cluster(engine, config.platform);
    core::BatchSystem batch(engine, cluster, core::make_scheduler(config.scheduler),
                            result.recorder, config.batch);
    core::InvariantChecker checker;
    checker.attach(engine, batch);
    EXPECT_EQ(core::FaultInjector::apply(batch, failures), failures.size());
    const core::FailureEvent& first = failures.front();
    const double until = first.repair_time + 2.0 * 3600.0;
    EXPECT_TRUE(
        batch.drain_node(first.node, (first.fail_time + first.repair_time) / 2.0, until));
    for (platform::NodeId k = 1; k < 4; ++k) {
      EXPECT_TRUE(batch.drain_node((first.node + k) % 16, first.fail_time, until));
    }
    result.submitted = batch.submit_all(std::move(jobs));
    batch.begin_run();
    engine.run();
    batch.end_run();
    result.finished = batch.finished_jobs();
    result.killed = batch.killed_jobs();
    result.stuck = batch.queued_jobs() + batch.running_jobs();
    result.makespan = result.recorder.makespan();
    result.validated_points = checker.scheduling_point_checks();
    result.validated_events = checker.events_checked();
    return result;
  }
};

TEST_P(SimulationProperties, EveryJobCompletesExactlyOnce) {
  auto result = run();
  EXPECT_EQ(result.finished + result.killed, 30u);
  EXPECT_EQ(result.stuck, 0u);
  std::size_t finished_records = 0;
  for (const auto& record : result.recorder.records()) {
    if (record.finished()) ++finished_records;
  }
  EXPECT_EQ(finished_records, result.finished + result.killed);
  EXPECT_GT(result.validated_points, 0u);
  if (GetParam().failures) {
    EXPECT_GT(result.recorder.total_requeues(), 0);
  }
}

TEST_P(SimulationProperties, TimesAreCausallyOrdered) {
  auto result = run();
  for (const auto& record : result.recorder.records()) {
    ASSERT_TRUE(record.started());
    EXPECT_GE(record.start_time, record.submit_time - 1e-9);
    EXPECT_GE(record.end_time, record.start_time - 1e-9);
  }
}

TEST_P(SimulationProperties, AllocationsStayWithinJobBounds) {
  auto result = run();
  for (const auto& record : result.recorder.records()) {
    EXPECT_GE(record.initial_nodes, 1);
    EXPECT_LE(record.initial_nodes, 16);
    EXPECT_GE(record.final_nodes, 1);
    EXPECT_LE(record.final_nodes, 16);
  }
}

TEST_P(SimulationProperties, TimelineNeverExceedsClusterOrGoesNegative) {
  auto result = run();
  for (const auto& point : result.recorder.timeline()) {
    EXPECT_GE(point.allocated_nodes, 0);
    EXPECT_LE(point.allocated_nodes, 16);
  }
}

TEST_P(SimulationProperties, NodeSecondsConserved) {
  auto result = run();
  double from_jobs = 0.0;
  for (const auto& record : result.recorder.records()) {
    EXPECT_GE(record.node_seconds, 0.0);
    from_jobs += record.node_seconds;
  }
  double from_timeline = 0.0;
  const auto& timeline = result.recorder.timeline();
  for (std::size_t i = 0; i + 1 < timeline.size(); ++i) {
    from_timeline += timeline[i].allocated_nodes * (timeline[i + 1].time - timeline[i].time);
  }
  EXPECT_NEAR(from_jobs, from_timeline, 1e-6 * std::max(1.0, from_jobs));
}

TEST_P(SimulationProperties, UserUsageSumsToTotalNodeSeconds) {
  auto result = run();
  double total = 0.0;
  for (const auto& record : result.recorder.records()) total += record.node_seconds;
  double by_user = 0.0;
  for (const auto& [user, seconds] :
       result.recorder.node_seconds_by_user(result.makespan)) {
    by_user += seconds;
  }
  EXPECT_NEAR(by_user, total, 1e-6 * std::max(1.0, total));
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const std::string& scheduler : core::scheduler_names()) {
    for (const double fraction : {0.0, 0.5}) {
      cases.push_back({scheduler, fraction, platform::TopologyKind::kFatTree});
    }
    cases.push_back({scheduler, 1.0, platform::TopologyKind::kTorus});
    cases.push_back({scheduler, 0.5, platform::TopologyKind::kFatTree, /*failures=*/true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(SchedulerMixTopology, SimulationProperties,
                         testing::ValuesIn(sweep_cases()),
                         [](const testing::TestParamInfo<SweepCase>& info) {
                           std::string name = info.param.scheduler + "_m" +
                                              std::to_string(static_cast<int>(
                                                  info.param.malleable_fraction * 100)) +
                                              "_" + platform::to_string(info.param.topology);
                           if (info.param.failures) name += "_failures";
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace elastisim
