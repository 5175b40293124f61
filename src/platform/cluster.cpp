#include "platform/cluster.h"

#include <cassert>
#include <cmath>
#include "stats/telemetry.h"
#include "util/check.h"
#include "util/fmt.h"

namespace elastisim::platform {

std::string to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kStar: return "star";
    case TopologyKind::kFatTree: return "fat-tree";
    case TopologyKind::kDragonfly: return "dragonfly";
    case TopologyKind::kTorus: return "torus";
  }
  return "?";
}

std::optional<TopologyKind> topology_from_string(std::string_view name) {
  if (name == "star") return TopologyKind::kStar;
  if (name == "fat-tree" || name == "fattree") return TopologyKind::kFatTree;
  if (name == "dragonfly") return TopologyKind::kDragonfly;
  if (name == "torus" || name == "ring") return TopologyKind::kTorus;
  return std::nullopt;
}

Cluster::Cluster(sim::Engine& engine, const ClusterConfig& config) : config_(config) {
  // ClusterConfig comes from user JSON / CLI flags: keep these checks alive
  // in release builds so a bad platform file fails loudly, not undefined.
  ELSIM_CHECK(config.node_count > 0, "cluster needs at least one node, got {}",
              config.node_count);
  ELSIM_CHECK(config.cores_per_node > 0, "cores_per_node must be positive, got {}",
              config.cores_per_node);
  ELSIM_CHECK(config.flops_per_core > 0.0, "flops_per_core must be positive, got {}",
              config.flops_per_core);
  ELSIM_CHECK(config.link_bandwidth > 0.0, "link_bandwidth must be positive, got {}",
              config.link_bandwidth);
  ELSIM_CHECK(config.pod_size > 0, "pod_size must be positive, got {}", config.pod_size);

  sim::FluidModel& fluid = engine.fluid();

  nodes_.reserve(config.node_count);
  for (std::size_t i = 0; i < config.node_count; ++i) {
    Node node;
    node.id = static_cast<NodeId>(i);
    node.name = util::fmt("node{}", i);
    node.cores = config.cores_per_node;
    node.flops_per_core = config.flops_per_core;
    node.memory_bytes = config.memory_bytes;
    node.gpus = config.gpus_per_node;
    node.flops_per_gpu = config.flops_per_gpu;
    node.cpu = fluid.add_resource(node.name + ".cpu", node.cpu_capacity());
    if (config.gpus_per_node > 0 && config.flops_per_gpu > 0.0) {
      node.gpu = fluid.add_resource(node.name + ".gpu", node.gpu_capacity());
    }
    node.uplink = fluid.add_resource(node.name + ".up", config.link_bandwidth);
    node.downlink = fluid.add_resource(node.name + ".down", config.link_bandwidth);
    if (config.burst_buffer_bandwidth > 0.0) {
      node.burst_buffer =
          fluid.add_resource(node.name + ".bb", config.burst_buffer_bandwidth);
    }
    nodes_.push_back(std::move(node));
  }

  const std::size_t groups = (config.node_count + config.pod_size - 1) / config.pod_size;
  switch (config.topology) {
    case TopologyKind::kStar:
      if (config.backbone_bandwidth > 0.0) {
        backbone_ = fluid.add_resource("backbone", config.backbone_bandwidth);
      }
      break;
    case TopologyKind::kFatTree:
    case TopologyKind::kDragonfly:
      for (std::size_t g = 0; g < groups; ++g) {
        pod_up_.push_back(
            fluid.add_resource(util::fmt("pod{}.up", g), config.pod_bandwidth));
        pod_down_.push_back(
            fluid.add_resource(util::fmt("pod{}.down", g), config.pod_bandwidth));
      }
      break;
    case TopologyKind::kTorus:
      for (std::size_t g = 0; g < groups; ++g) {
        ring_links_.push_back(TorusLinks{
            fluid.add_resource(util::fmt("ring{}.cw", g), config.pod_bandwidth),
            fluid.add_resource(util::fmt("ring{}.ccw", g), config.pod_bandwidth)});
      }
      break;
  }

  if (config.pfs.read_bandwidth > 0.0 || config.pfs.write_bandwidth > 0.0) {
    pfs_read_ = fluid.add_resource("pfs.read", config.pfs.read_bandwidth);
    pfs_write_ = fluid.add_resource("pfs.write", config.pfs.write_bandwidth);
  }

  if (telemetry::enabled()) {
    auto& registry = telemetry::Registry::global();
    registry.gauge("cluster.nodes").set(0.0, static_cast<double>(nodes_.size()));
    registry.gauge("cluster.fluid_resources")
        .set(0.0, static_cast<double>(fluid.resource_count()));
  }
}

std::vector<sim::ResourceId> Cluster::route(NodeId from, NodeId to) const {
  std::vector<sim::ResourceId> links;
  append_route(from, to, links);
  return links;
}

void Cluster::append_route(NodeId from, NodeId to, std::vector<sim::ResourceId>& links) const {
  assert(from < nodes_.size() && to < nodes_.size());
  if (from == to) return;  // intra-node communication is not modeled
  links.push_back(nodes_[from].uplink);
  switch (config_.topology) {
    case TopologyKind::kStar:
      if (backbone_) links.push_back(*backbone_);
      break;
    case TopologyKind::kFatTree:
    case TopologyKind::kDragonfly: {
      const std::size_t ga = group_of(from);
      const std::size_t gb = group_of(to);
      if (ga != gb) {
        links.push_back(pod_up_[ga]);
        links.push_back(pod_down_[gb]);
      }
      break;
    }
    case TopologyKind::kTorus: {
      const std::size_t ga = group_of(from);
      const std::size_t gb = group_of(to);
      const std::size_t groups = ring_links_.size();
      if (ga != gb) {
        // Shortest direction around the ring; ties go clockwise.
        const std::size_t cw = (gb + groups - ga) % groups;
        const std::size_t ccw = (ga + groups - gb) % groups;
        if (cw <= ccw) {
          for (std::size_t step = 0; step < cw; ++step) {
            links.push_back(ring_links_[(ga + step) % groups].clockwise);
          }
        } else {
          for (std::size_t step = 0; step < ccw; ++step) {
            links.push_back(
                ring_links_[(ga + groups - step - 1) % groups].counter_clockwise);
          }
        }
      }
      break;
    }
  }
  links.push_back(nodes_[to].downlink);
}

std::vector<sim::ResourceId> Cluster::pfs_route(NodeId node, bool write) const {
  std::vector<sim::ResourceId> links;
  append_pfs_route(node, write, links);
  return links;
}

void Cluster::append_pfs_route(NodeId node, bool write,
                               std::vector<sim::ResourceId>& links) const {
  assert(node < nodes_.size());
  // The PFS hangs off the network core: traffic crosses the node's injection
  // link and, on grouped topologies, the group's uplink/downlink.
  links.push_back(write ? nodes_[node].uplink : nodes_[node].downlink);
  switch (config_.topology) {
    case TopologyKind::kStar:
      if (backbone_) links.push_back(*backbone_);
      break;
    case TopologyKind::kFatTree:
    case TopologyKind::kDragonfly: {
      const std::size_t g = group_of(node);
      links.push_back(write ? pod_up_[g] : pod_down_[g]);
      break;
    }
    case TopologyKind::kTorus:
      // I/O gateway attached at switch 0: traverse the ring to reach it.
      if (const std::size_t g = group_of(node); g != 0) {
        const std::size_t groups = ring_links_.size();
        const std::size_t cw = (groups - g) % groups;
        const std::size_t ccw = g;
        if (cw <= ccw) {
          for (std::size_t step = 0; step < cw; ++step) {
            links.push_back(ring_links_[(g + step) % groups].clockwise);
          }
        } else {
          for (std::size_t step = 0; step < ccw; ++step) {
            links.push_back(ring_links_[g - step - 1].counter_clockwise);
          }
        }
      }
      break;
  }
}

int Cluster::hop_count(NodeId from, NodeId to) const {
  if (from == to) return 0;
  switch (config_.topology) {
    case TopologyKind::kStar: return 2;
    case TopologyKind::kFatTree:
    case TopologyKind::kDragonfly: return group_of(from) == group_of(to) ? 2 : 4;
    case TopologyKind::kTorus: {
      const std::size_t groups = ring_links_.size();
      const std::size_t ga = group_of(from), gb = group_of(to);
      const std::size_t cw = (gb + groups - ga) % groups;
      const std::size_t ccw = (ga + groups - gb) % groups;
      return 2 + static_cast<int>(std::min(cw, ccw));
    }
  }
  return 2;
}

}  // namespace elastisim::platform
