// Node placement: how the batch system maps a node-count decision onto
// concrete node ids. Schedulers decide counts; placement picks the nodes.
#pragma once

#include <set>
#include <vector>

#include "platform/cluster.h"

namespace elastisim::core {

enum class PlacementPolicy {
  /// Lowest free node ids (simple, deterministic baseline).
  kLowestId,
  /// Fill the emptiest pods first, keeping each job in as few pods as
  /// possible (minimizes pod-uplink traffic for intra-job communication).
  kCompact,
  /// Round-robin across pods (maximizes per-job injection/pod bandwidth at
  /// the price of more inter-pod traffic).
  kSpread,
};

/// Removes `count` nodes (at most free.size()) from `free` per `policy` and
/// returns them in allocation order.
std::vector<platform::NodeId> take_nodes(PlacementPolicy policy, const platform::Cluster& cluster,
                                         std::set<platform::NodeId>& free, int count);

}  // namespace elastisim::core
