#include "core/placement.h"

#include <algorithm>
#include <cassert>

namespace elastisim::core {

std::vector<platform::NodeId> take_nodes(PlacementPolicy policy, const platform::Cluster& cluster,
                                         std::set<platform::NodeId>& free, int count) {
  assert(count <= static_cast<int>(free.size()) && "allocating more nodes than free");
  const std::size_t wanted = std::min(static_cast<std::size_t>(count), free.size());
  std::vector<platform::NodeId> taken;
  taken.reserve(wanted);
  if (policy == PlacementPolicy::kLowestId) {
    while (taken.size() < wanted) taken.push_back(free.extract(free.begin()).value());
    return taken;
  }
  // Free nodes by pod, each pod in ascending node order.
  std::vector<std::vector<platform::NodeId>> pods(cluster.pod_count());
  for (platform::NodeId node : free) pods[cluster.pod_of(node)].push_back(node);
  if (policy == PlacementPolicy::kCompact) {
    // Pods by descending free count (ties by pod id): take whole pods before
    // spilling into the next.
    std::stable_sort(pods.begin(), pods.end(),
                     [](const auto& a, const auto& b) { return a.size() > b.size(); });
    for (const std::vector<platform::NodeId>& pod : pods) {
      for (std::size_t i = 0; i < pod.size() && taken.size() < wanted; ++i) {
        taken.push_back(pod[i]);
      }
    }
  } else {
    // Spread: one node per pod per pass, each pass starting one pod further.
    for (std::size_t pass = 0; taken.size() < wanted; ++pass) {
      for (std::size_t i = 0; i < pods.size() && taken.size() < wanted; ++i) {
        std::vector<platform::NodeId>& pod = pods[(i + pass) % pods.size()];
        if (pod.empty()) continue;
        taken.push_back(pod.front());
        pod.erase(pod.begin());
      }
    }
  }
  for (platform::NodeId node : taken) free.erase(node);
  return taken;
}

}  // namespace elastisim::core
