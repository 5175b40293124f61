#include "core/node_pool.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/fmt.h"
#include "util/log.h"

namespace elastisim::core {

NodePool::NodePool(const platform::Cluster& cluster, PlacementPolicy policy)
    : cluster_(&cluster), policy_(policy), nodes_(cluster.node_count()) {
  free_.reserve(cluster.node_count());
  for (const platform::Node& node : cluster.nodes()) insert_free(node.id);
}

void NodePool::insert_free(platform::NodeId node) {
  free_.insert(std::ranges::upper_bound(free_, node), node);
}

bool NodePool::erase_free(platform::NodeId node) {
  const auto it = std::ranges::lower_bound(free_, node);
  if (it == free_.end() || *it != node) return false;
  free_.erase(it);
  return true;
}

void NodePool::take(int count, const workload::Job* owner,
                    std::vector<platform::NodeId>& nodes) {
  assert(count <= static_cast<int>(free_.size()) && "allocating more nodes than free");
  const std::size_t wanted = std::min(static_cast<std::size_t>(count), free_.size());
  const std::size_t first = nodes.size();
  if (policy_ == PlacementPolicy::kLowestId) {
    const auto end = free_.begin() + static_cast<std::ptrdiff_t>(wanted);
    nodes.insert(nodes.end(), free_.begin(), end);
    free_.erase(free_.begin(), end);
  } else {
    const std::size_t target = first + wanted;
    nodes.reserve(target);
    // Free nodes by pod, each pod in ascending node order.
    std::vector<std::vector<platform::NodeId>> pods(cluster_->pod_count());
    for (platform::NodeId node : free_) pods[cluster_->pod_of(node)].push_back(node);
    if (policy_ == PlacementPolicy::kCompact) {
      // Pods by descending free count (ties by pod id): take whole pods
      // before spilling into the next.
      std::stable_sort(pods.begin(), pods.end(),
                       [](const auto& a, const auto& b) { return a.size() > b.size(); });
      for (const std::vector<platform::NodeId>& pod : pods) {
        for (std::size_t i = 0; i < pod.size() && nodes.size() < target; ++i) {
          nodes.push_back(pod[i]);
        }
      }
    } else {
      // Spread: one node per pod per pass, each pass starting one pod further.
      for (std::size_t pass = 0; nodes.size() < target; ++pass) {
        for (std::size_t i = 0; i < pods.size() && nodes.size() < target; ++i) {
          std::vector<platform::NodeId>& pod = pods[(i + pass) % pods.size()];
          if (pod.empty()) continue;
          nodes.push_back(pod.front());
          pod.erase(pod.begin());
        }
      }
    }
    for (std::size_t i = first; i < nodes.size(); ++i) erase_free(nodes[i]);
  }
  for (std::size_t i = first; i < nodes.size(); ++i) nodes_[nodes[i]].owner = owner;
}

bool NodePool::release(platform::NodeId node) {
  Node& status = nodes_[node];
  status.owner = nullptr;
  const bool freed = !status.failed && !status.drain;
  if (freed) {
    insert_free(node);
  } else if (!status.failed) {
    ++drained_count_;
  }
  return freed;
}

bool NodePool::fail(platform::NodeId node, double repair) {
  Node& status = nodes_[node];
  if (status.failed) {
    // Extend the outage so the earlier repair event cannot return a
    // still-broken node to service.
    status.repair_until = std::max(status.repair_until, repair);
    return false;
  }
  if (status.drain && status.owner == nullptr) --drained_count_;
  status.failed = true;
  status.repair_until = repair;
  ++failed_count_;
  erase_free(node);
  return true;
}

bool NodePool::restore(platform::NodeId node, double now) {
  Node& status = nodes_[node];
  if (!status.failed || now < status.repair_until) return false;
  status.failed = false;
  --failed_count_;
  // An owner still holding the node frees or drains it at its release.
  if (status.owner == nullptr) release(node);
  return true;
}

bool NodePool::drain(platform::NodeId node) {
  Node& status = nodes_[node];
  if (status.drain) return false;
  status.drain = true;
  if (erase_free(node)) ++drained_count_;
  return true;
}

bool NodePool::undrain(platform::NodeId node) {
  Node& status = nodes_[node];
  if (!status.drain) return false;
  status.drain = false;
  if (status.owner != nullptr || status.failed) return false;
  --drained_count_;
  insert_free(node);
  return true;
}

bool NodePool::valid_window(const char* what, platform::NodeId node, double when,
                            double until) const {
  // Explicit validation (not just asserts): failure and drain schedules come
  // from outside the simulator (trace files, embedders), so bad input must be
  // rejected in release builds too.
  if (node >= nodes_.size()) {
    ELSIM_ERROR("rejecting {}: node {} outside cluster of {}", what, node, nodes_.size());
    return false;
  }
  if (!std::isfinite(when) || when < 0.0) {
    ELSIM_ERROR("rejecting {} for node {}: bad start time {}", what, node, when);
    return false;
  }
  if (std::isnan(until) || until < when) {
    ELSIM_ERROR("rejecting {} for node {}: end at {} precedes start at {}", what, node, until,
                when);
    return false;
  }
  return true;
}

std::optional<std::string> NodePool::check() const {
  std::size_t failed = 0, drained = 0;
  auto free_it = free_.begin();
  for (platform::NodeId node = 0; node < nodes_.size(); ++node) {
    const Node& status = nodes_[node];
    const bool listed_free = free_it != free_.end() && *free_it == node;
    if (listed_free) ++free_it;
    const bool idle = status.owner == nullptr && !status.failed && !status.drain;
    if (listed_free != idle) {
      return !listed_free ? util::fmt("idle node {} is missing from the free pool", node)
             : status.owner != nullptr
                 ? util::fmt("node {} allocated to job {} is also in the free pool", node,
                             status.owner->id)
                 : util::fmt("node {} is both free and {}", node,
                             status.failed ? "failed" : "drained");
    }
    failed += status.failed;
    drained += status.drain && !status.failed && status.owner == nullptr;
  }
  if (free_it != free_.end()) {
    return util::fmt("free pool holds node {} outside the cluster", *free_it);
  }
  if (failed != failed_count_ || drained != drained_count_) {
    return util::fmt("node counters say {} failed and {} drained, the node table {} and {}",
                     failed_count_, drained_count_, failed, drained);
  }
  return std::nullopt;
}

}  // namespace elastisim::core
