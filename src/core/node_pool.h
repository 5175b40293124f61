// Node state and placement: which job holds each node, which nodes are down
// or draining, the free set that placement picks from, and the failed and
// drained counts. The batch system decides when nodes move (start, resize,
// release, failure, repair, drain); the pool decides what each event does to
// the node state, in one transition per event, and check() re-derives every
// derived fact from the per-node table. Schedulers decide counts; placement
// picks the nodes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "platform/cluster.h"
#include "workload/job.h"

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

class NodePool {
 public:
  NodePool(const platform::Cluster& cluster, PlacementPolicy policy);

  /// Removes `count` nodes (at most the free set's size) from it per the
  /// placement policy, records `owner` as their owner and appends them to
  /// `nodes` in placement order.
  void take(int count, const workload::Job* owner, std::vector<platform::NodeId>& nodes);
  /// Takes `node` off its owner. Returns whether it was freed: a failed node
  /// stays out until repaired, and a draining one counts as drained now.
  bool release(platform::NodeId node);
  /// Takes `node` out of service until `repair`; a drained node stops
  /// counting as drained, but its drain flag holds at repair. The owner
  /// keeps the node until it releases it. Returns false on a repeat failure,
  /// which only extends the outage to the later repair.
  bool fail(platform::NodeId node, double repair);
  /// Repairs `node` into the free set, or into the drain when draining (at
  /// its release, if a job still holds it). Returns false, changing
  /// nothing, when the node is not failed or a later outage still covers
  /// `now`.
  bool restore(platform::NodeId node, double now);
  /// Sets the drain flag: an idle node leaves the free set now, a busy or
  /// failed one at its release or repair. Returns false when already
  /// draining.
  bool drain(platform::NodeId node);
  /// Clears the drain flag. Returns whether the node went back into the free
  /// set; a busy or failed node never counted as drained, and its release or
  /// repair frees it.
  bool undrain(platform::NodeId node);
  /// Whether an outage or drain of `node` over [when, until) is valid input;
  /// logs an error naming `what` when it is not.
  bool valid_window(const char* what, platform::NodeId node, double when, double until) const;

  const workload::Job* owner(platform::NodeId node) const { return nodes_[node].owner; }
  bool failed(platform::NodeId node) const { return nodes_[node].failed; }
  bool draining(platform::NodeId node) const { return nodes_[node].drain; }
  /// The free nodes in ascending id.
  const std::vector<platform::NodeId>& free_set() const { return free_; }
  std::size_t failed_count() const { return failed_count_; }
  std::size_t drained_count() const { return drained_count_; }

  /// Walks the table by node id alongside the (sorted) free set: the free set
  /// is exactly the idle nodes (no owner, not failed, not draining), no free
  /// entry lies outside the cluster, and the failed and drained counts equal
  /// the table's. Returns the first broken rule, formatted only then.
  std::optional<std::string> check() const;

  /// Test-only corruption hook: puts `node` into the free set whatever its
  /// state, so tests can prove check() and the invariant checker catch it.
  void test_corrupt_free_set(platform::NodeId node) { insert_free(node); }

 private:
  /// One cluster node. It is free exactly when it has no owner and is
  /// neither failed nor draining, and counts as drained when it is draining,
  /// intact and unowned. The drain flag is independent of failure, so a
  /// drain requested while the node is down holds at repair.
  struct Node {
    const workload::Job* owner = nullptr;
    bool failed = false;
    bool drain = false;
    /// Latest scheduled repair while failed: a repair event only restores
    /// the node once no later outage window covers it.
    double repair_until = 0.0;
  };

  /// Inserts `node` into the free set at its place in id order.
  void insert_free(platform::NodeId node);
  /// Erases `node` from the free set; returns whether it was there.
  bool erase_free(platform::NodeId node);

  const platform::Cluster* cluster_;
  PlacementPolicy policy_;
  std::vector<Node> nodes_;
  /// Sorted, with capacity for every node from the start, so a release
  /// never allocates.
  std::vector<platform::NodeId> free_;
  std::size_t failed_count_ = 0;
  std::size_t drained_count_ = 0;
};

}  // namespace elastisim::core
