// Communication-latency (alpha-beta) model tests: pattern round counts and
// end-to-end timing of latency-dominated vs bandwidth-dominated exchanges.
#include <gtest/gtest.h>

#include "core/job_execution.h"
#include "platform/loader.h"
#include "test_support.h"
#include "workload/patterns.h"

namespace elastisim::core {
namespace {

using test::tiny_platform;
using workload::CommPattern;
using workload::CommTask;
using workload::DelayTask;
using workload::Job;
using workload::Phase;
using workload::Task;

TEST(PatternRounds, MatchAlgorithmDepth) {
  EXPECT_EQ(workload::pattern_rounds(CommPattern::kAllToAll, 8), 7);
  EXPECT_EQ(workload::pattern_rounds(CommPattern::kAllReduce, 8), 14);
  EXPECT_EQ(workload::pattern_rounds(CommPattern::kBroadcast, 8), 3);
  EXPECT_EQ(workload::pattern_rounds(CommPattern::kBroadcast, 9), 4);
  EXPECT_EQ(workload::pattern_rounds(CommPattern::kRing, 8), 1);
  EXPECT_EQ(workload::pattern_rounds(CommPattern::kStencil2D, 16), 1);
  EXPECT_EQ(workload::pattern_rounds(CommPattern::kGather, 8), 1);
}

TEST(PatternRounds, SingleRankHasNoRounds) {
  for (auto pattern : {CommPattern::kAllToAll, CommPattern::kAllReduce,
                       CommPattern::kBroadcast, CommPattern::kRing}) {
    EXPECT_EQ(workload::pattern_rounds(pattern, 1), 0);
  }
}

struct Fixture {
  explicit Fixture(platform::ClusterConfig config) : cluster(engine, config) {}

  double run_comm(CommPattern pattern, double bytes, int nodes) {
    Job job;
    job.id = 1;
    job.requested_nodes = job.min_nodes = job.max_nodes = nodes;
    Phase phase;
    phase.name = "p";
    phase.groups.push_back({Task{"x", CommTask{pattern, bytes}}});
    job.application.phases.push_back(std::move(phase));
    std::vector<platform::NodeId> ids;
    for (int i = 0; i < nodes; ++i) ids.push_back(static_cast<platform::NodeId>(i));
    const double begin = engine.now();  // the engine is reused across calls
    double completed = -1.0;
    JobExecution execution(
        engine, cluster, job, ids, [] {}, [&] { completed = engine.now(); });
    execution.start();
    engine.run();
    return completed - begin;
  }

  sim::Engine engine;
  platform::Cluster cluster;
};

TEST(CommLatency, ZeroLatencyMeansPureBandwidth) {
  auto config = tiny_platform(2);
  config.link_bandwidth = 1e9;
  Fixture f(config);
  EXPECT_NEAR(f.run_comm(CommPattern::kRing, 1e9, 2), 2.0, 1e-9);
}

TEST(CommLatency, LatencyAddsStartupTerm) {
  auto config = tiny_platform(2);
  config.link_bandwidth = 1e9;
  config.link_latency = 0.5;  // exaggerated for exactness
  Fixture f(config);
  // Ring on a star: 2 hops, 1 round -> 1.0 s startup + 2.0 s transfer.
  EXPECT_NEAR(f.run_comm(CommPattern::kRing, 1e9, 2), 3.0, 1e-9);
}

TEST(CommLatency, BroadcastScalesLogarithmically) {
  auto config = tiny_platform(8);
  config.link_latency = 1.0;
  Fixture f(config);
  // Tiny message: transfer time negligible against 1 s/hop latency.
  const double k8 = f.run_comm(CommPattern::kBroadcast, 1.0, 8);
  const double k2 = f.run_comm(CommPattern::kBroadcast, 1.0, 2);
  // 3 rounds x 2 hops vs 1 round x 2 hops.
  EXPECT_NEAR(k8, 6.0, 1e-6);
  EXPECT_NEAR(k2, 2.0, 1e-6);
}

TEST(CommLatency, AllReduceLatencyGrowsLinearlyInRanks) {
  auto config = tiny_platform(8);
  config.link_latency = 0.1;
  Fixture f(config);
  const double k4 = f.run_comm(CommPattern::kAllReduce, 1.0, 4);
  const double k8 = f.run_comm(CommPattern::kAllReduce, 1.0, 8);
  // 2(k-1) rounds x 2 hops x 0.1 s.
  EXPECT_NEAR(k4, 1.2, 1e-6);
  EXPECT_NEAR(k8, 2.8, 1e-6);
}

TEST(CommLatency, SingleNodeStillFree) {
  auto config = tiny_platform(2);
  config.link_latency = 1.0;
  Fixture f(config);
  EXPECT_NEAR(f.run_comm(CommPattern::kAllReduce, 1e9, 1), 0.0, 1e-9);
}

TEST(CommLatency, LoaderParsesLatency) {
  const auto config = platform::parse_cluster_config(
      json::parse(R"({"link_latency": "2us"})"));
  EXPECT_DOUBLE_EQ(config.link_latency, 2e-6);
  const auto roundtrip =
      platform::parse_cluster_config(platform::cluster_config_to_json(config));
  EXPECT_DOUBLE_EQ(roundtrip.link_latency, 2e-6);
}

}  // namespace
}  // namespace elastisim::core
