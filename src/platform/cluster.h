// Cluster platform model: compute nodes, interconnect topologies, parallel
// file system, and node-local burst buffers, all mapped onto fluid-model
// resources.
//
// Every node owns a CPU resource (cores x FLOP/s per core), an uplink and a
// downlink (full-duplex injection bandwidth), and optionally a burst-buffer
// resource. The interconnect adds topology-specific shared links; routes are
// ordered link lists that transfers occupy simultaneously in the fluid model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/fluid.h"

namespace elastisim::platform {

using NodeId = std::uint32_t;

enum class TopologyKind { kStar, kFatTree, kDragonfly, kTorus };

/// Converts to/from the names used in platform JSON files
/// ("star", "fat-tree", "dragonfly", "torus").
std::string to_string(TopologyKind kind);
std::optional<TopologyKind> topology_from_string(std::string_view name);

struct Node {
  NodeId id = 0;
  std::string name;
  int cores = 1;
  double flops_per_core = 1e9;       // FLOP/s
  int gpus = 0;
  double flops_per_gpu = 0.0;        // FLOP/s per accelerator
  double memory_bytes = 0.0;         // informational; admission uses it
  sim::ResourceId cpu = 0;           // capacity = cores * flops_per_core
  std::optional<sim::ResourceId> gpu;  // capacity = gpus * flops_per_gpu
  sim::ResourceId uplink = 0;        // node -> network, bytes/s
  sim::ResourceId downlink = 0;      // network -> node, bytes/s
  std::optional<sim::ResourceId> burst_buffer;  // node-local storage, bytes/s

  double cpu_capacity() const { return static_cast<double>(cores) * flops_per_core; }
  double gpu_capacity() const { return static_cast<double>(gpus) * flops_per_gpu; }
};

struct PfsConfig {
  double read_bandwidth = 0.0;   // aggregate bytes/s
  double write_bandwidth = 0.0;  // aggregate bytes/s
};

struct ClusterConfig {
  TopologyKind topology = TopologyKind::kStar;
  std::size_t node_count = 16;
  int cores_per_node = 48;
  double flops_per_core = 1e9;
  double memory_bytes = 0.0;
  int gpus_per_node = 0;               // 0 = CPU-only nodes
  double flops_per_gpu = 0.0;
  double link_bandwidth = 12.5e9;      // per-node injection, bytes/s
  double link_latency = 0.0;           // seconds per traversed link; 0 = ideal
  double backbone_bandwidth = 0.0;     // star: shared switch capacity; 0 = unlimited
  std::size_t pod_size = 16;           // fat-tree pods / dragonfly groups / torus switch radix
  double pod_bandwidth = 50e9;         // fat-tree pod uplink / dragonfly global / torus ring link
  double burst_buffer_bandwidth = 0.0; // 0 = nodes have no burst buffer
  PfsConfig pfs;
};

/// A fully instantiated cluster. All resources live in the engine's fluid
/// model; the Cluster only stores ids and routing metadata, so it is cheap to
/// copy node references out of it but the object itself is move-only.
class Cluster {
 public:
  /// Builds the cluster's resources inside `engine`'s fluid model.
  Cluster(sim::Engine& engine, const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;

  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  const std::vector<Node>& nodes() const { return nodes_; }
  const ClusterConfig& config() const { return config_; }

  bool has_pfs() const { return pfs_read_.has_value(); }
  sim::ResourceId pfs_read() const { return *pfs_read_; }
  sim::ResourceId pfs_write() const { return *pfs_write_; }

  /// Appends the ordered list of link resources a byte traverses from `from`
  /// to `to` to `links`; appends nothing when from == to (loopback is free).
  void append_route(NodeId from, NodeId to, std::vector<sim::ResourceId>& links) const;
  /// append_route() into a fresh list.
  std::vector<sim::ResourceId> route(NodeId from, NodeId to) const;

  /// Appends the links traversed when `node` writes to (or reads from) the
  /// PFS, excluding the PFS resource itself, to `links`.
  void append_pfs_route(NodeId node, bool write, std::vector<sim::ResourceId>& links) const;
  /// append_pfs_route() into a fresh list.
  std::vector<sim::ResourceId> pfs_route(NodeId node, bool write) const;

  /// Number of network hops between two nodes (for locality-aware placement).
  int hop_count(NodeId from, NodeId to) const;

  /// Topology group (fat-tree pod / dragonfly group / torus switch) of a
  /// node; on a star topology every node is in group 0's flat switch but the
  /// pod_size-based grouping is still reported for placement heuristics.
  std::size_t pod_of(NodeId node) const { return group_of(node); }
  std::size_t pod_count() const {
    return (config_.node_count + config_.pod_size - 1) / config_.pod_size;
  }

 private:
  struct TorusLinks {
    sim::ResourceId clockwise;
    sim::ResourceId counter_clockwise;
  };

  std::size_t group_of(NodeId node) const { return node / config_.pod_size; }

  ClusterConfig config_;
  std::vector<Node> nodes_;
  std::optional<sim::ResourceId> backbone_;             // star
  std::vector<sim::ResourceId> pod_up_, pod_down_;      // fat-tree / dragonfly
  std::vector<TorusLinks> ring_links_;                  // torus ring segments
  std::optional<sim::ResourceId> pfs_read_, pfs_write_;
};

}  // namespace elastisim::platform
