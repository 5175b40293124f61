#include <gtest/gtest.h>

#include <set>
#include <string>

#include "platform/cluster.h"
#include "platform/loader.h"
#include "util/load_error.h"

namespace elastisim::platform {
namespace {

ClusterConfig base_config(TopologyKind kind, std::size_t nodes) {
  ClusterConfig config;
  config.topology = kind;
  config.node_count = nodes;
  config.cores_per_node = 4;
  config.flops_per_core = 2e9;
  config.link_bandwidth = 1e9;
  config.pod_size = 4;
  config.pod_bandwidth = 2e9;
  config.pfs.read_bandwidth = 5e9;
  config.pfs.write_bandwidth = 3e9;
  return config;
}

TEST(Cluster, BuildsRequestedNodeCount) {
  sim::Engine engine;
  Cluster cluster(engine, base_config(TopologyKind::kStar, 8));
  EXPECT_EQ(cluster.node_count(), 8u);
  for (NodeId i = 0; i < 8; ++i) {
    EXPECT_EQ(cluster.node(i).id, i);
    EXPECT_EQ(cluster.node(i).cores, 4);
    EXPECT_DOUBLE_EQ(cluster.node(i).cpu_capacity(), 8e9);
  }
}

TEST(Cluster, ResourcesHaveConfiguredCapacities) {
  sim::Engine engine;
  Cluster cluster(engine, base_config(TopologyKind::kStar, 2));
  const Node& node = cluster.node(0);
  EXPECT_DOUBLE_EQ(engine.fluid().capacity(node.cpu), 8e9);
  EXPECT_DOUBLE_EQ(engine.fluid().capacity(node.uplink), 1e9);
  EXPECT_DOUBLE_EQ(engine.fluid().capacity(node.downlink), 1e9);
  EXPECT_DOUBLE_EQ(engine.fluid().capacity(cluster.pfs_read()), 5e9);
  EXPECT_DOUBLE_EQ(engine.fluid().capacity(cluster.pfs_write()), 3e9);
}

TEST(Cluster, BurstBufferOptional) {
  sim::Engine engine_without;
  Cluster plain(engine_without, base_config(TopologyKind::kStar, 2));
  EXPECT_FALSE(plain.node(0).burst_buffer.has_value());

  auto config = base_config(TopologyKind::kStar, 2);
  config.burst_buffer_bandwidth = 4e9;
  sim::Engine engine_with;
  Cluster with_bb(engine_with, config);
  ASSERT_TRUE(with_bb.node(0).burst_buffer.has_value());
  EXPECT_DOUBLE_EQ(engine_with.fluid().capacity(*with_bb.node(0).burst_buffer), 4e9);
}

TEST(Cluster, PfsAbsentWhenUnconfigured) {
  auto config = base_config(TopologyKind::kStar, 2);
  config.pfs = PfsConfig{};
  sim::Engine engine;
  Cluster cluster(engine, config);
  EXPECT_FALSE(cluster.has_pfs());
}

TEST(Cluster, LoopbackRouteEmpty) {
  sim::Engine engine;
  Cluster cluster(engine, base_config(TopologyKind::kStar, 4));
  EXPECT_TRUE(cluster.route(2, 2).empty());
  EXPECT_EQ(cluster.hop_count(2, 2), 0);
}

TEST(Cluster, StarRouteUsesUplinkAndDownlink) {
  sim::Engine engine;
  Cluster cluster(engine, base_config(TopologyKind::kStar, 4));
  const auto route = cluster.route(0, 3);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(route[0], cluster.node(0).uplink);
  EXPECT_EQ(route[1], cluster.node(3).downlink);
  EXPECT_EQ(cluster.hop_count(0, 3), 2);
}

TEST(Cluster, StarBackboneAppearsWhenConfigured) {
  auto config = base_config(TopologyKind::kStar, 4);
  config.backbone_bandwidth = 10e9;
  sim::Engine engine;
  Cluster cluster(engine, config);
  const auto route = cluster.route(0, 1);
  ASSERT_EQ(route.size(), 3u);
  EXPECT_EQ(engine.fluid().resource_name(route[1]), "backbone");
}

TEST(Cluster, FatTreeIntraPodSkipsPodLinks) {
  sim::Engine engine;
  Cluster cluster(engine, base_config(TopologyKind::kFatTree, 16));  // pods of 4
  const auto route = cluster.route(0, 3);  // same pod
  EXPECT_EQ(route.size(), 2u);
  EXPECT_EQ(cluster.hop_count(0, 3), 2);
}

TEST(Cluster, FatTreeInterPodCrossesPodLinks) {
  sim::Engine engine;
  Cluster cluster(engine, base_config(TopologyKind::kFatTree, 16));
  const auto route = cluster.route(0, 5);  // pod 0 -> pod 1
  ASSERT_EQ(route.size(), 4u);
  EXPECT_EQ(engine.fluid().resource_name(route[1]), "pod0.up");
  EXPECT_EQ(engine.fluid().resource_name(route[2]), "pod1.down");
  EXPECT_EQ(cluster.hop_count(0, 5), 4);
}

TEST(Cluster, TorusShortestDirection) {
  sim::Engine engine;
  Cluster cluster(engine, base_config(TopologyKind::kTorus, 16));  // 4 switches
  // Group 0 -> group 1: one clockwise hop.
  const auto forward = cluster.route(0, 4);
  ASSERT_EQ(forward.size(), 3u);
  EXPECT_EQ(engine.fluid().resource_name(forward[1]), "ring0.cw");
  // Group 0 -> group 3: one counter-clockwise hop (shorter than 3 cw).
  const auto backward = cluster.route(0, 12);
  ASSERT_EQ(backward.size(), 3u);
  EXPECT_EQ(engine.fluid().resource_name(backward[1]), "ring3.ccw");
}

TEST(Cluster, TorusHopCountSymmetric) {
  sim::Engine engine;
  Cluster cluster(engine, base_config(TopologyKind::kTorus, 16));
  for (NodeId a = 0; a < 16; a += 3) {
    for (NodeId b = 0; b < 16; b += 5) {
      EXPECT_EQ(cluster.hop_count(a, b), cluster.hop_count(b, a));
    }
  }
}

TEST(Cluster, PfsRouteWriteUsesUplink) {
  sim::Engine engine;
  Cluster cluster(engine, base_config(TopologyKind::kStar, 4));
  const auto write_route = cluster.pfs_route(1, /*write=*/true);
  ASSERT_FALSE(write_route.empty());
  EXPECT_EQ(write_route[0], cluster.node(1).uplink);
  const auto read_route = cluster.pfs_route(1, /*write=*/false);
  EXPECT_EQ(read_route[0], cluster.node(1).downlink);
}

TEST(Cluster, PfsRouteCrossesPodLinkOnFatTree) {
  sim::Engine engine;
  Cluster cluster(engine, base_config(TopologyKind::kFatTree, 8));
  const auto route = cluster.pfs_route(5, /*write=*/true);  // pod 1
  ASSERT_EQ(route.size(), 2u);
  EXPECT_EQ(engine.fluid().resource_name(route[1]), "pod1.up");
}

TEST(Cluster, TopologyNamesRoundTrip) {
  for (TopologyKind kind : {TopologyKind::kStar, TopologyKind::kFatTree,
                            TopologyKind::kDragonfly, TopologyKind::kTorus}) {
    EXPECT_EQ(topology_from_string(to_string(kind)), kind);
  }
  EXPECT_FALSE(topology_from_string("mesh").has_value());
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

TEST(PlatformLoader, ParsesFullDescription) {
  const auto config = parse_cluster_config(json::parse(R"({
    "topology": "fat-tree",
    "nodes": 64,
    "cores_per_node": 24,
    "flops_per_core": "2GF",
    "memory": "192GiB",
    "link_bandwidth": "12.5GBps",
    "pod_size": 8,
    "pod_bandwidth": "100GBps",
    "burst_buffer_bandwidth": "5GBps",
    "pfs": { "read_bandwidth": "500GBps", "write_bandwidth": "300GBps" }
  })"));
  EXPECT_EQ(config.topology, TopologyKind::kFatTree);
  EXPECT_EQ(config.node_count, 64u);
  EXPECT_EQ(config.cores_per_node, 24);
  EXPECT_DOUBLE_EQ(config.flops_per_core, 2e9);
  EXPECT_DOUBLE_EQ(config.memory_bytes, 192.0 * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(config.link_bandwidth, 12.5e9);
  EXPECT_EQ(config.pod_size, 8u);
  EXPECT_DOUBLE_EQ(config.pod_bandwidth, 100e9);
  EXPECT_DOUBLE_EQ(config.burst_buffer_bandwidth, 5e9);
  EXPECT_DOUBLE_EQ(config.pfs.read_bandwidth, 500e9);
  EXPECT_DOUBLE_EQ(config.pfs.write_bandwidth, 300e9);
}

TEST(PlatformLoader, NumbersAcceptedDirectly) {
  const auto config =
      parse_cluster_config(json::parse(R"({"nodes": 4, "flops_per_core": 1e9})"));
  EXPECT_DOUBLE_EQ(config.flops_per_core, 1e9);
}

TEST(PlatformLoader, DefaultsApplied) {
  const auto config = parse_cluster_config(json::parse("{}"));
  EXPECT_EQ(config.topology, TopologyKind::kStar);
  EXPECT_EQ(config.node_count, 16u);
}

TEST(PlatformLoader, RejectsUnknownTopology) {
  EXPECT_THROW(parse_cluster_config(json::parse(R"({"topology": "hypercube"})")),
               std::runtime_error);
}

TEST(PlatformLoader, RejectsMalformedQuantity) {
  EXPECT_THROW(parse_cluster_config(json::parse(R"({"link_bandwidth": "fast"})")),
               std::runtime_error);
}

TEST(PlatformLoader, RejectsZeroNodes) {
  EXPECT_THROW(parse_cluster_config(json::parse(R"({"nodes": 0})")), std::runtime_error);
}

// A negative bandwidth would stall every flow through the link at rate 0
// instead of failing; the loader rejects it and names the member.
TEST(PlatformLoader, RejectsNegativeBandwidth) {
  const struct {
    const char* json;
    const char* path;
  } cases[] = {
      {R"({"link_bandwidth": -1})", "$.link_bandwidth"},
      {R"({"backbone_bandwidth": -1e9})", "$.backbone_bandwidth"},
      {R"({"pod_bandwidth": -5})", "$.pod_bandwidth"},
      {R"({"pod_bandwidth": "-5 GB/s"})", "$.pod_bandwidth"},
      {R"({"burst_buffer_bandwidth": -2})", "$.burst_buffer_bandwidth"},
      {R"({"pfs": {"read_bandwidth": -3}})", "$.pfs.read_bandwidth"},
      {R"({"pfs": {"write_bandwidth": -4}})", "$.pfs.write_bandwidth"},
  };
  for (const auto& c : cases) {
    try {
      parse_cluster_config(json::parse(c.json));
      ADD_FAILURE() << "expected LoadError for " << c.json;
    } catch (const util::LoadError& error) {
      EXPECT_EQ(error.json_path(), c.path) << c.json;
    }
  }
}

// Each row must fail at its member instead of running on another value (a
// rounded node count, a default for an unknown key or a wrong type), and the
// limits Cluster checks (a positive link bandwidth and core speed) fail at
// load.
TEST(PlatformLoader, MalformedMemberThrowsAtItsJsonPath) {
  const struct {
    const char* json;
    const char* path;
  } cases[] = {
      {R"({"nodes": 12.7})", "$.nodes"},
      {R"({"node_count": 128})", "$.node_count"},
      {R"({"topology": 5})", "$.topology"},
      {R"({"gpus_per_node": "2"})", "$.gpus_per_node"},
      {R"({"cores_per_node": 4294967297})", "$.cores_per_node"},
      {R"({"link_latency": -5})", "$.link_latency"},
      {R"({"memory": -5})", "$.memory"},
      {R"({"flops_per_gpu": -1})", "$.flops_per_gpu"},
      {R"({"link_bandwidth": 0})", "$.link_bandwidth"},
      {R"({"flops_per_core": -1})", "$.flops_per_core"},
      {R"({"flops_per_core": 0})", "$.flops_per_core"},
      {R"({"flops_per_cor": "2GF"})", "$.flops_per_cor"},
      {R"({"pfs": 5})", "$.pfs"},
      {R"({"pfs": {"read_bandwith": 1}})", "$.pfs.read_bandwith"},
  };
  for (const auto& c : cases) {
    try {
      parse_cluster_config(json::parse(c.json));
      ADD_FAILURE() << "expected LoadError for " << c.json;
    } catch (const util::LoadError& error) {
      EXPECT_EQ(error.json_path(), c.path) << c.json;
    }
  }
}

TEST(PlatformLoader, AcceptsZeroBandwidth) {
  const auto config = parse_cluster_config(json::parse(
      R"({"pod_bandwidth": 0, "backbone_bandwidth": 0, "pfs": {"read_bandwidth": 0}})"));
  EXPECT_EQ(config.pod_bandwidth, 0.0);
  EXPECT_EQ(config.backbone_bandwidth, 0.0);
  EXPECT_EQ(config.pfs.read_bandwidth, 0.0);
}

TEST(PlatformLoader, RejectsNonObject) {
  EXPECT_THROW(parse_cluster_config(json::parse("[1,2]")), std::runtime_error);
}

TEST(PlatformLoader, RoundTripThroughJson) {
  auto config = parse_cluster_config(json::parse(R"({
    "topology": "torus", "nodes": 32, "pod_size": 8,
    "pfs": {"read_bandwidth": 1e9, "write_bandwidth": 2e9}
  })"));
  const auto back = parse_cluster_config(cluster_config_to_json(config));
  EXPECT_EQ(back.topology, config.topology);
  EXPECT_EQ(back.node_count, config.node_count);
  EXPECT_DOUBLE_EQ(back.pfs.write_bandwidth, config.pfs.write_bandwidth);
}

}  // namespace
}  // namespace elastisim::platform
