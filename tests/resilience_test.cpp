// Resilience subsystem: stochastic fault injection (FaultInjector),
// checkpoint/restart recovery (kRequeueRestart), lost-work accounting, and
// the interactions between failures, drains, and in-flight reconfigurations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "core/batch_system.h"
#include "core/fault_injector.h"
#include "core/scheduler.h"
#include "json/json.h"
#include "test_support.h"
#include "util/load_error.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/workload_io.h"

namespace elastisim::core {
namespace {

using test::compute_job;
using test::rigid_job;
using test::tiny_platform;
using workload::JobType;

struct Harness {
  explicit Harness(std::size_t nodes, BatchConfig config = {},
                   const std::string& scheduler = "fcfs")
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

/// A rigid job whose every iteration ends with a zero-byte checkpoint write
/// (instant, so compute timings stay exactly predictable).
workload::Job checkpoint_job(workload::JobId id, int nodes, double seconds_per_iteration,
                             int iterations, double submit = 0.0) {
  workload::Job job = rigid_job(id, nodes, seconds_per_iteration, submit, iterations);
  job.application.phases[0].groups.push_back(
      {workload::Task{"checkpoint",
                      workload::IoTask{true, 0.0, workload::ScalingModel::kStrong,
                                       workload::IoTarget::kPfs, /*checkpoint=*/true}}});
  return job;
}

// --- FaultInjector: schedule generation ------------------------------------

TEST(FaultInjector, FixedSeedReproducesScheduleByteIdentically) {
  FaultModelConfig config;
  config.mtbf = 4000.0;
  config.mean_repair = 600.0;
  config.horizon = 50000.0;
  config.seed = 99;
  FaultInjector injector(config);
  const auto first = injector.generate(16, 4);
  const auto second = injector.generate(16, 4);
  EXPECT_EQ(first, second);
  EXPECT_EQ(json::dump(FaultInjector::to_json(first)),
            json::dump(FaultInjector::to_json(second)));
  EXPECT_FALSE(first.empty());
}

TEST(FaultInjector, SeedChangesSchedule) {
  FaultModelConfig config;
  config.mtbf = 4000.0;
  config.horizon = 50000.0;
  config.seed = 1;
  const auto a = FaultInjector(config).generate(8);
  config.seed = 2;
  const auto b = FaultInjector(config).generate(8);
  EXPECT_NE(a, b);
}

TEST(FaultInjector, PerNodeStreamsAreStableUnderClusterGrowth) {
  FaultModelConfig config;
  config.mtbf = 3000.0;
  config.horizon = 40000.0;
  config.seed = 7;
  const auto small = FaultInjector(config).generate(4);
  const auto large = FaultInjector(config).generate(8);
  // Every event of the 4-node schedule appears unchanged in the 8-node one.
  for (const FailureEvent& event : small) {
    EXPECT_NE(std::find(large.begin(), large.end(), event), large.end())
        << "node " << event.node << " at " << event.fail_time;
  }
}

TEST(FaultInjector, EventsSortedAndWithinHorizon) {
  FaultModelConfig config;
  config.mtbf = 2000.0;
  config.mean_repair = 300.0;
  config.horizon = 30000.0;
  config.seed = 5;
  const auto events = FaultInjector(config).generate(8);
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_LT(events[i].fail_time, config.horizon);
    EXPECT_GE(events[i].repair_time, events[i].fail_time);
    if (i > 0) {
      EXPECT_LE(events[i - 1].fail_time, events[i].fail_time);
    }
  }
}

TEST(FaultInjector, MeanInterarrivalTracksMtbf) {
  FaultModelConfig config;
  config.mtbf = 1000.0;
  config.mean_repair = 0.0;
  config.horizon = 4e6;
  config.seed = 11;
  const auto events = FaultInjector(config).generate(1);
  ASSERT_GT(events.size(), 1000u);
  // With zero repair the renewal process is pure interarrivals: the count
  // over the horizon estimates horizon / mtbf.
  const double expected = config.horizon / config.mtbf;
  EXPECT_NEAR(static_cast<double>(events.size()), expected, 0.1 * expected);
}

TEST(FaultInjector, WeibullScheduleDiffersButKeepsMean) {
  FaultModelConfig config;
  config.mtbf = 1000.0;
  config.mean_repair = 0.0;
  config.horizon = 4e6;
  config.seed = 11;
  config.failure_distribution = FailureDistribution::kWeibull;
  config.weibull_shape = 2.0;
  const auto weibull = FaultInjector(config).generate(1);
  config.failure_distribution = FailureDistribution::kExponential;
  const auto exponential = FaultInjector(config).generate(1);
  EXPECT_NE(weibull, exponential);
  // The scale is derived so the mean interarrival stays mtbf.
  const double expected = config.horizon / config.mtbf;
  EXPECT_NEAR(static_cast<double>(weibull.size()), expected, 0.1 * expected);
}

TEST(FaultInjector, PodCorrelationAddsSecondaryFailures) {
  FaultModelConfig config;
  config.mtbf = 5000.0;
  config.mean_repair = 100.0;
  config.horizon = 50000.0;
  config.seed = 3;
  const auto independent = FaultInjector(config).generate(8, 4);
  config.pod_correlation = 1.0;
  const auto correlated = FaultInjector(config).generate(8, 4);
  ASSERT_FALSE(independent.empty());
  EXPECT_GT(correlated.size(), independent.size());
  // Full correlation: every failure takes the whole 4-node pod down with the
  // identical outage window, so events come in groups of 4 sharing
  // (fail_time, repair_time) and covering exactly one pod.
  ASSERT_EQ(correlated.size() % 4, 0u);
  for (std::size_t i = 0; i < correlated.size(); i += 4) {
    const std::size_t pod = correlated[i].node / 4;
    for (std::size_t j = 1; j < 4; ++j) {
      EXPECT_EQ(correlated[i + j].fail_time, correlated[i].fail_time);
      EXPECT_EQ(correlated[i + j].repair_time, correlated[i].repair_time);
      EXPECT_EQ(correlated[i + j].node / 4, pod);
    }
  }
}

TEST(FaultInjector, ZeroHorizonFollowsTheWorkload) {
  // 0 = auto: max(1 day, 2 x the last submit); a positive horizon wins.
  FaultModelConfig config;
  config.mtbf = 20000.0;
  std::vector<workload::Job> jobs(2);
  jobs[1].submit_time = 60000.0;
  EXPECT_DOUBLE_EQ(failure_horizon(config, jobs), 120000.0);
  jobs[1].submit_time = 1000.0;
  EXPECT_DOUBLE_EQ(failure_horizon(config, jobs), 86400.0);
  config.horizon = 5000.0;
  EXPECT_DOUBLE_EQ(failure_horizon(config, jobs), 5000.0);
  // generate() knows no workload: horizon 0 draws over one day.
  config.horizon = 0.0;
  const auto automatic = FaultInjector(config).generate(8);
  EXPECT_FALSE(automatic.empty());
  config.horizon = 86400.0;
  EXPECT_EQ(automatic, FaultInjector(config).generate(8));
}

TEST(FaultInjector, DisabledWhenMtbfNonPositive) {
  FaultModelConfig config;
  config.mtbf = 0.0;
  EXPECT_TRUE(FaultInjector(config).generate(8).empty());
}

TEST(FaultInjector, JsonRoundTrip) {
  std::vector<FailureEvent> events = {
      {0, 10.0, 40.0}, {3, 12.5, 13.0}, {1, 99.0, std::numeric_limits<double>::infinity()}};
  // Infinity is not representable in JSON; save only the finite ones here.
  events.pop_back();
  const auto restored = FaultInjector::from_json(FaultInjector::to_json(events));
  EXPECT_EQ(events, restored);
}

TEST(FaultInjector, NeverRepairedEventRoundTrips) {
  const std::vector<FailureEvent> events = {
      {1, 99.0, std::numeric_limits<double>::infinity()}};
  const json::Value trace = FaultInjector::to_json(events);
  EXPECT_EQ(trace.find("failures")->as_array()[0].find("repair"), nullptr);
  EXPECT_EQ(FaultInjector::from_json(trace), events);
}

TEST(FaultInjector, MalformedTraceThrowsAtItsJsonPath) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"failure": [{"node": 1, "fail": 5}]})", "$.failures"},
      {R"({"failures": {"node": 1, "fail": 5}})", "$.failures"},
      {R"({"failures": [3]})", "$.failures[0]"},
      {R"({"failures": [{"fail": 5}]})", "$.failures[0].node"},
      {R"({"failures": [{"node": -3, "fail": 5}]})", "$.failures[0].node"},
      {R"({"failures": [{"node": 1.5, "fail": 5}]})", "$.failures[0].node"},
      {R"({"failures": [{"node": "2", "fail": 5}]})", "$.failures[0].node"},
      {R"({"failures": [{"node": 2}]})", "$.failures[0].fail"},
      {R"({"failures": [{"node": 2, "fail": -1}]})", "$.failures[0].fail"},
      {R"({"failures": [{"node": 1, "fail": 5}, {"node": 1, "fail": 9, "repair": 2}]})",
       "$.failures[1].repair"},
      {R"({"failures": [{"node": 1, "fail": 5, "repair": "soon"}]})", "$.failures[0].repair"},
      {R"({"failures": [{"node": 4294967296, "fail": 5}]})", "$.failures[0].node"},
      {R"({"failures": [{"node": 1, "fail": "soon"}]})", "$.failures[0].fail"},
      {R"({"failures": [{"node": 1, "fail": 5, "repiar": 9}]})", "$.failures[0].repiar"},
      {R"({"failures": [], "seed": 3})", "$.seed"},
      {R"([{"node": 1, "fail": 5}])", "$"},
  };
  for (const auto& [text, path] : cases) {
    const json::Value trace = json::parse(text);
    EXPECT_THROW(FaultInjector::from_json(trace), util::LoadError) << text;
    try {
      FaultInjector::from_json(trace);
    } catch (const util::LoadError& error) {
      EXPECT_EQ(error.json_path(), path) << text;
    }
  }
}

TEST(FaultInjector, TraceTimesAcceptUnitStrings) {
  const json::Value trace =
      json::parse(R"({"failures": [{"node": 3, "fail": "1h", "repair": "90m"}]})");
  EXPECT_EQ(FaultInjector::from_json(trace),
            (std::vector<FailureEvent>{{3, 3600.0, 5400.0}}));
}

TEST(FaultInjector, LoadTraceNamesTheFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "elsim_bad_failure_trace_test.json").string();
  {
    std::FILE* file = std::fopen(path.c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs(R"({"failures": [{"fail": 5}]})", file);
    std::fclose(file);
  }
  try {
    FaultInjector::load_trace(path);
    ADD_FAILURE() << "a trace entry without a node loaded";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.file(), path);
    EXPECT_EQ(error.json_path(), "$.failures[0].node");
  }
  std::filesystem::remove(path);
}

TEST(FaultInjector, TraceFileRoundTrip) {
  FaultModelConfig config;
  config.mtbf = 2500.0;
  config.mean_repair = 200.0;
  config.horizon = 20000.0;
  config.seed = 21;
  const auto events = FaultInjector(config).generate(6);
  ASSERT_FALSE(events.empty());
  const auto path =
      (std::filesystem::temp_directory_path() / "elsim_failure_trace_test.json").string();
  FaultInjector::save_trace(path, events);
  const auto restored = FaultInjector::load_trace(path);
  std::filesystem::remove(path);
  EXPECT_EQ(events, restored);
}

TEST(FaultInjector, ApplyInjectsAllEvents) {
  FaultModelConfig config;
  config.mtbf = 3000.0;
  config.mean_repair = 100.0;
  config.horizon = 20000.0;
  config.seed = 13;
  const auto events = FaultInjector(config).generate(4);
  ASSERT_FALSE(events.empty());
  Harness h(4);
  EXPECT_EQ(FaultInjector::apply(h.batch, events), events.size());
  h.engine.run();
  EXPECT_EQ(h.batch.failed_nodes_now(), 0u);  // every outage repaired
}

TEST(Rng, WeibullMeanMatchesScaleTimesGamma) {
  util::Rng rng(42);
  const double shape = 1.5;
  const double scale = 100.0;
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += rng.weibull(shape, scale);
  const double expected = scale * std::tgamma(1.0 + 1.0 / shape);
  EXPECT_NEAR(sum / kDraws, expected, 0.05 * expected);
}

// --- inject_failure validation ---------------------------------------------

TEST(InjectFailure, RejectsInvalidInput) {
  Harness h(4);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(h.batch.inject_failure(4, 10.0, 20.0));   // node out of range
  EXPECT_FALSE(h.batch.inject_failure(0, -1.0, 20.0));   // negative fail time
  EXPECT_FALSE(h.batch.inject_failure(0, nan, 20.0));    // NaN fail time
  EXPECT_FALSE(h.batch.inject_failure(0, inf, inf));     // non-finite fail time
  EXPECT_FALSE(h.batch.inject_failure(0, 10.0, 5.0));    // repair precedes failure
  EXPECT_FALSE(h.batch.inject_failure(0, 10.0, nan));    // NaN repair time
  h.engine.run();
  EXPECT_EQ(h.batch.failed_nodes_now(), 0u);  // nothing was injected
}

TEST(InjectFailure, AcceptsValidInput) {
  Harness h(4);
  EXPECT_TRUE(h.batch.inject_failure(0, 10.0, 20.0));
  EXPECT_TRUE(h.batch.inject_failure(1, 5.0));  // infinite repair is fine
  h.engine.run();
  EXPECT_EQ(h.batch.failed_nodes_now(), 1u);  // node 1 never repaired
}

// --- failures vs drain state -----------------------------------------------

TEST(FailureDrain, RepairRestoresDrainNotService) {
  Harness h(2);
  h.batch.drain_node(0, 5.0);
  h.batch.inject_failure(0, 10.0, /*repair_time=*/20.0);
  h.batch.submit(rigid_job(1, 2, 10.0, /*submit=*/30.0));
  h.engine.run();
  // The node comes back from repair still drained: the 2-node job is stuck.
  EXPECT_EQ(h.batch.failed_nodes_now(), 0u);
  EXPECT_EQ(h.batch.drained_nodes_now(), 1u);
  EXPECT_EQ(h.batch.finished_jobs(), 0u);
  EXPECT_EQ(h.batch.queued_jobs(), 1u);
}

TEST(FailureDrain, UndrainDuringFailureReleasesAfterRepair) {
  Harness h(2);
  h.batch.drain_node(0, 5.0, /*until=*/15.0);
  h.batch.inject_failure(0, 10.0, /*repair_time=*/20.0);
  h.batch.submit(rigid_job(1, 2, 10.0, /*submit=*/16.0));
  h.engine.run();
  // Undrain fired while the node was failed: the drain intent is dropped and
  // the repair returns the node straight to service.
  EXPECT_EQ(h.batch.drained_nodes_now(), 0u);
  EXPECT_EQ(h.batch.failed_nodes_now(), 0u);
  EXPECT_DOUBLE_EQ(h.record(1).start_time, 20.0);
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
}

TEST(FailureDrain, DrainPendingNodeFailureKeepsDrainIntent) {
  BatchConfig config;
  config.failure_policy = FailurePolicy::kRequeue;
  Harness h(2, config);
  h.batch.submit(rigid_job(1, 2, 50.0));
  h.batch.drain_node(1, 10.0);  // busy -> drain pending
  h.batch.inject_failure(1, 20.0, /*repair_time=*/30.0);
  h.engine.run();
  // The failure evicted the job and consumed the pending drain; the repair
  // leaves the node drained, so the 2-node job can never restart.
  EXPECT_EQ(h.batch.requeued_jobs(), 1u);
  EXPECT_EQ(h.batch.failed_nodes_now(), 0u);
  EXPECT_EQ(h.batch.drained_nodes_now(), 1u);
  EXPECT_EQ(h.batch.queued_jobs(), 1u);
}

TEST(Failure, DoubleFailureExtendsOutageWindow) {
  Harness h(4);
  h.batch.inject_failure(0, 10.0, /*repair_time=*/20.0);
  h.batch.inject_failure(0, 15.0, /*repair_time=*/50.0);
  h.batch.submit(rigid_job(1, 4, 5.0, /*submit=*/12.0));
  h.engine.run();
  // The first repair (t=20) must not resurrect the node: the second outage
  // window runs to t=50.
  EXPECT_EQ(h.batch.failed_nodes_now(), 0u);
  EXPECT_DOUBLE_EQ(h.record(1).start_time, 50.0);
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
}

// --- checkpoint/restart recovery -------------------------------------------

TEST(Restart, ResumesFromLastCheckpoint) {
  BatchConfig config;
  config.failure_policy = FailurePolicy::kRequeueRestart;
  Harness h(4, config);
  // 5 iterations x 10 s on 2 nodes, checkpoint after each iteration.
  h.batch.submit(checkpoint_job(1, 2, 10.0, 5));
  h.batch.inject_failure(0, 25.0);  // mid-iteration 2; durable = iteration 2
  h.engine.run();
  const auto& record = h.record(1);
  EXPECT_EQ(record.requeues, 1);
  // Restarts at t=25 on surviving nodes with iterations 2-4 left: 30 s.
  EXPECT_DOUBLE_EQ(record.end_time, 55.0);
  // Only the half-done iteration is lost: 5 s x 2 nodes.
  EXPECT_NEAR(record.lost_node_seconds, 10.0, 1e-9);
  EXPECT_NEAR(record.redone_seconds, 5.0, 1e-9);
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
}

TEST(Restart, PlainRequeueLosesAllProgress) {
  BatchConfig config;
  config.failure_policy = FailurePolicy::kRequeue;
  Harness h(4, config);
  h.batch.submit(checkpoint_job(1, 2, 10.0, 5));
  h.batch.inject_failure(0, 25.0);
  h.engine.run();
  const auto& record = h.record(1);
  // From scratch: the checkpoints don't help, the full 50 s re-runs.
  EXPECT_DOUBLE_EQ(record.end_time, 75.0);
  EXPECT_NEAR(record.lost_node_seconds, 50.0, 1e-9);
  EXPECT_NEAR(record.redone_seconds, 25.0, 1e-9);
}

TEST(Restart, StrictlyLessLostWorkThanRequeue) {
  // The acceptance check: identical workload and failure schedule, policies
  // compared head to head — restart must lose strictly less work and finish
  // strictly earlier.
  double lost[2];
  double end[2];
  int index = 0;
  for (const auto policy : {FailurePolicy::kRequeue, FailurePolicy::kRequeueRestart}) {
    BatchConfig config;
    config.failure_policy = policy;
    Harness h(4, config);
    h.batch.submit(checkpoint_job(1, 2, 10.0, 5));
    FaultModelConfig fault;
    fault.mtbf = 40.0;
    fault.mean_repair = 5.0;
    fault.horizon = 30.0;
    fault.seed = 2026;
    FaultInjector::apply(h.batch, FaultInjector(fault).generate(4));
    h.engine.run();
    EXPECT_EQ(h.batch.finished_jobs(), 1u);
    lost[index] = h.recorder.total_lost_node_seconds();
    end[index] = h.record(1).end_time;
    ++index;
  }
  EXPECT_GT(lost[0], 0.0);
  EXPECT_LT(lost[1], lost[0]);
  EXPECT_LT(end[1], end[0]);
}

TEST(Restart, RestartOverheadDelaysResumption) {
  BatchConfig config;
  config.failure_policy = FailurePolicy::kRequeueRestart;
  config.restart_overhead = 7.0;
  Harness h(4, config);
  h.batch.submit(checkpoint_job(1, 2, 10.0, 5));
  h.batch.inject_failure(0, 25.0);
  h.engine.run();
  // 25 (evict) + 7 (recovery) + 30 (iterations 2-4) = 62.
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 62.0);
}

TEST(Restart, NoOverheadChargedOnFirstStart) {
  BatchConfig config;
  config.failure_policy = FailurePolicy::kRequeueRestart;
  config.restart_overhead = 7.0;
  Harness h(2, config);
  h.batch.submit(checkpoint_job(1, 2, 10.0, 3));
  h.engine.run();
  // Never evicted: the overhead applies only to checkpoint resumptions.
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 30.0);
}

TEST(Restart, JobWithoutCheckpointsBehavesLikeRequeue) {
  BatchConfig config;
  config.failure_policy = FailurePolicy::kRequeueRestart;
  config.restart_overhead = 7.0;
  Harness h(4, config);
  h.batch.submit(rigid_job(1, 2, 50.0));
  h.batch.inject_failure(0, 20.0);
  h.engine.run();
  const auto& record = h.record(1);
  EXPECT_EQ(record.requeues, 1);
  // No durable progress: from scratch, and no restart overhead either.
  EXPECT_DOUBLE_EQ(record.end_time, 70.0);
  EXPECT_NEAR(record.lost_node_seconds, 40.0, 1e-9);
}

TEST(Restart, ProgressIsMonotoneAcrossRepeatedEvictions) {
  BatchConfig config;
  config.failure_policy = FailurePolicy::kRequeueRestart;
  Harness h(4, config);
  h.batch.submit(checkpoint_job(1, 2, 10.0, 5));
  h.batch.inject_failure(0, 25.0, /*repair_time=*/26.0);  // durable iter 2
  h.batch.inject_failure(1, 40.0, /*repair_time=*/41.0);  // durable iter 3
  h.engine.run();
  const auto& record = h.record(1);
  EXPECT_EQ(record.requeues, 2);
  // t=25 evict (iter 2 durable), restart at 25; iteration 3 durable at 35;
  // t=40 evict mid-iteration 3... wait: restart at 25 runs iters 2,3,4.
  // Iter 2 done at 35 (durable 3), iter 3 done at 45 — but the t=40 failure
  // evicts mid-iteration 3. Second restart resumes at iteration 3: 20 s left.
  EXPECT_DOUBLE_EQ(record.end_time, 60.0);
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
}

TEST(Restart, MaxRequeuesKillsThrashingJob) {
  BatchConfig config;
  config.failure_policy = FailurePolicy::kRequeue;
  config.max_requeues = 1;
  Harness h(2, config);
  h.batch.submit(rigid_job(1, 2, 50.0));
  h.batch.inject_failure(0, 10.0, /*repair_time=*/11.0);
  h.batch.inject_failure(1, 30.0, /*repair_time=*/31.0);
  h.engine.run();
  // First eviction requeues (count 1); the second exceeds max_requeues = 1.
  EXPECT_EQ(h.batch.requeued_jobs(), 1u);
  EXPECT_EQ(h.batch.killed_jobs(), 1u);
  EXPECT_TRUE(h.record(1).killed);
  EXPECT_DOUBLE_EQ(h.record(1).end_time, 30.0);
}

TEST(Restart, UnlimitedRequeuesByDefault) {
  BatchConfig config;
  config.failure_policy = FailurePolicy::kRequeue;
  Harness h(2, config);
  h.batch.submit(rigid_job(1, 2, 20.0));
  for (int i = 0; i < 4; ++i) {
    h.batch.inject_failure(0, 5.0 + 10.0 * i, 6.0 + 10.0 * i);
  }
  h.engine.run();
  EXPECT_EQ(h.batch.killed_jobs(), 0u);
  EXPECT_EQ(h.batch.finished_jobs(), 1u);
  EXPECT_EQ(h.record(1).requeues, 4);
}

TEST(Restart, EvictionDuringRedistributionRecovers) {
  // Fail a node while a malleable checkpointing job is mid-reconfiguration;
  // the job must requeue and resume from its checkpoint without dangling
  // activities.
  BatchConfig config;
  config.failure_policy = FailurePolicy::kRequeueRestart;
  sim::Engine engine;
  stats::Recorder recorder;
  auto platform_config = tiny_platform(4);
  platform_config.link_bandwidth = 1e9;  // slow links: redistribution takes 8 s
  platform::Cluster cluster(engine, platform_config);
  BatchSystem batch(engine, cluster, make_scheduler("fcfs-malleable"), recorder, config);
  auto job = compute_job(1, JobType::kMalleable, 2, 10.0, 1, 4, 0.0, 10);
  job.application.phases[0].groups.push_back(
      {workload::Task{"checkpoint",
                      workload::IoTask{true, 0.0, workload::ScalingModel::kStrong,
                                       workload::IoTarget::kPfs, /*checkpoint=*/true}}});
  job.application.state_bytes_per_node = 8e9;
  batch.submit(std::move(job));
  // First boundary at t=10 starts an expansion + redistribution; fail at 12.
  batch.inject_failure(0, 12.0);
  engine.run();
  EXPECT_EQ(batch.requeued_jobs(), 1u);
  EXPECT_EQ(batch.finished_jobs(), 1u);
  EXPECT_EQ(batch.queued_jobs(), 0u);
  // Iteration 0 completed before the eviction, so at most 9 remain.
  EXPECT_GT(recorder.total_lost_node_seconds(), 0.0);
  EXPECT_LT(recorder.records()[0].redone_seconds, 10.0 * 9);
}

// --- Young/Daly helper and generator integration ---------------------------

TEST(YoungDaly, IntervalMatchesClosedForm) {
  const double interval = workload::young_daly_interval(60.0, 86400.0);
  // Young's first-order sqrt(2CM) = 3220; Daly's refinement adds a small
  // positive correction before subtracting C.
  const double young = std::sqrt(2.0 * 60.0 * 86400.0);
  EXPECT_GT(interval, young - 60.0 - 1e-9);
  EXPECT_LT(interval, young * 1.1);
  EXPECT_DOUBLE_EQ(workload::young_daly_interval(0.0, 1000.0), 0.0);
  // Degenerate regime: checkpointing costs more than 2 MTBFs.
  EXPECT_DOUBLE_EQ(workload::young_daly_interval(500.0, 200.0), 200.0);
}

TEST(YoungDaly, CheckpointEveryRoundsToIterations) {
  const double interval = workload::young_daly_interval(60.0, 86400.0);
  const int every = workload::daly_checkpoint_every(60.0, 86400.0, 600.0);
  EXPECT_EQ(every, static_cast<int>(std::lround(interval / 600.0)));
  // Never less than every iteration.
  EXPECT_EQ(workload::daly_checkpoint_every(60.0, 100.0, 600.0), 1);
}

TEST(Generator, CheckpointEverySegmentsMainLoop) {
  workload::GeneratorConfig config;
  config.job_count = 1;
  config.seed = 7;
  config.min_nodes = config.max_nodes = 1;
  config.io_fraction = 0.0;
  config.checkpoint_fraction = 1.0;
  config.checkpoint_every = 4;
  config.min_iterations = config.max_iterations = 12;
  const auto jobs = workload::generate_workload(config);
  ASSERT_EQ(jobs.size(), 1u);
  int total_iterations = 0;
  int checkpoint_phases = 0;
  for (const auto& phase : jobs[0].application.phases) {
    total_iterations += phase.iterations;
    bool has_checkpoint = false;
    for (const auto& group : phase.groups) {
      for (const auto& task : group) {
        const auto* io = std::get_if<workload::IoTask>(&task.payload);
        if (io && io->checkpoint) has_checkpoint = true;
      }
    }
    if (has_checkpoint) {
      ++checkpoint_phases;
      EXPECT_EQ(phase.iterations, 1);
    }
  }
  // Segmentation preserves the iteration count: 3x (3 plain + 1 checkpoint).
  EXPECT_EQ(total_iterations, 12);
  EXPECT_EQ(checkpoint_phases, 3);
}

TEST(Generator, CheckpointEveryOneKeepsSinglePhase) {
  workload::GeneratorConfig config;
  config.job_count = 1;
  config.seed = 7;
  config.min_nodes = config.max_nodes = 1;
  config.io_fraction = 0.0;
  config.checkpoint_fraction = 1.0;
  config.checkpoint_every = 1;
  config.min_iterations = config.max_iterations = 12;
  const auto jobs = workload::generate_workload(config);
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_EQ(jobs[0].application.phases.size(), 1u);
  EXPECT_EQ(jobs[0].application.phases[0].iterations, 12);
}

TEST(WorkloadIo, CheckpointFlagRoundTrips) {
  std::vector<workload::Job> jobs = {checkpoint_job(1, 2, 10.0, 3)};
  const auto path =
      (std::filesystem::temp_directory_path() / "elsim_ckpt_roundtrip.json").string();
  workload::save_workload(path, jobs);
  const auto restored = workload::load_workload(path);
  std::filesystem::remove(path);
  ASSERT_EQ(restored.size(), 1u);
  const auto& groups = restored[0].application.phases[0].groups;
  ASSERT_EQ(groups.size(), 2u);
  const auto* io = std::get_if<workload::IoTask>(&groups[1][0].payload);
  ASSERT_NE(io, nullptr);
  EXPECT_TRUE(io->checkpoint);
}

TEST(FailurePolicy, StringRoundTrip) {
  for (const auto policy : {FailurePolicy::kKill, FailurePolicy::kRequeue,
                            FailurePolicy::kRequeueRestart}) {
    const auto parsed = failure_policy_from_string(to_string(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(failure_policy_from_string("retry").has_value());
}

}  // namespace
}  // namespace elastisim::core
