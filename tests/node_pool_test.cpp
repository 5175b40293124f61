// NodePool against a naive reference model that keeps only the per-node
// flags and recomputes the free set and both counts from them: random step
// sequences under every placement policy, every order of one node's events,
// and the corruptions check() must name.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/node_pool.h"
#include "test_support.h"
#include "util/rng.h"

namespace elastisim::core {
namespace {

using platform::NodeId;

struct Model {
  struct Node {
    const workload::Job* owner = nullptr;
    bool failed = false;
    bool drain = false;
    double repair_until = 0.0;
  };

  explicit Model(std::size_t size) : nodes(size) {}

  bool idle(NodeId id) const {
    return nodes[id].owner == nullptr && !nodes[id].failed && !nodes[id].drain;
  }
  /// The idle nodes in ascending id, as the pool lists its free set.
  std::vector<NodeId> free_set() const {
    std::vector<NodeId> free;
    for (NodeId id = 0; id < nodes.size(); ++id) {
      if (idle(id)) free.push_back(id);
    }
    return free;
  }
  std::size_t failed_count() const {
    return std::count_if(nodes.begin(), nodes.end(), [](const Node& n) { return n.failed; });
  }
  std::size_t drained_count() const {
    return std::count_if(nodes.begin(), nodes.end(), [](const Node& n) {
      return n.drain && !n.failed && n.owner == nullptr;
    });
  }

  /// The `count` lowest free ids (the lowest-id placement).
  std::vector<NodeId> lowest_free(int count) const {
    std::vector<NodeId> lowest;
    for (NodeId id : free_set()) {
      if (static_cast<int>(lowest.size()) < count) lowest.push_back(id);
    }
    return lowest;
  }
  void assign(const std::vector<NodeId>& taken, const workload::Job* owner) {
    for (NodeId id : taken) {
      ASSERT_TRUE(idle(id)) << "placement took node " << id << ", which is not free";
      nodes[id].owner = owner;
    }
  }
  bool release(NodeId id) {
    nodes[id].owner = nullptr;
    return !nodes[id].failed && !nodes[id].drain;
  }
  bool fail(NodeId id, double repair) {
    Node& node = nodes[id];
    if (node.failed) {
      node.repair_until = std::max(node.repair_until, repair);
      return false;
    }
    node.failed = true;
    node.repair_until = repair;
    return true;
  }
  bool restore(NodeId id, double now) {
    Node& node = nodes[id];
    if (!node.failed || now < node.repair_until) return false;
    node.failed = false;
    return true;
  }
  bool drain(NodeId id) {
    if (nodes[id].drain) return false;
    nodes[id].drain = true;
    return true;
  }
  bool undrain(NodeId id) {
    if (!nodes[id].drain) return false;
    nodes[id].drain = false;
    return idle(id);
  }

  std::vector<Node> nodes;
};

platform::ClusterConfig podded(std::size_t nodes) {
  platform::ClusterConfig config = test::tiny_platform(nodes);
  config.topology = platform::TopologyKind::kFatTree;
  config.pod_size = 4;
  config.pod_bandwidth = 1e12;
  return config;
}

struct Fixture {
  Fixture(std::size_t nodes, PlacementPolicy policy)
      : policy(policy), cluster(engine, podded(nodes)), pool(cluster, policy), model(nodes) {}

  void take(int count, const workload::Job* owner) {
    // take() appends, as an expansion does to the job's list: the nodes
    // already listed stay first and untouched.
    const std::vector<NodeId> held = {1000, 1001};
    std::vector<NodeId> taken = held;
    pool.take(count, owner, taken);
    ASSERT_EQ(static_cast<int>(taken.size()), static_cast<int>(held.size()) + count);
    EXPECT_TRUE(std::equal(held.begin(), held.end(), taken.begin()));
    taken.erase(taken.begin(), taken.begin() + static_cast<std::ptrdiff_t>(held.size()));
    if (policy == PlacementPolicy::kLowestId) {
      EXPECT_EQ(taken, model.lowest_free(count));
    }
    model.assign(taken, owner);
  }

  /// Everything the pool exposes equals the model, and check() is clean.
  void expect_same() const {
    ASSERT_EQ(pool.free_set(), model.free_set());
    ASSERT_EQ(pool.failed_count(), model.failed_count());
    ASSERT_EQ(pool.drained_count(), model.drained_count());
    for (NodeId id = 0; id < model.nodes.size(); ++id) {
      ASSERT_EQ(pool.owner(id), model.nodes[id].owner) << "node " << id;
      ASSERT_EQ(pool.failed(id), model.nodes[id].failed) << "node " << id;
      ASSERT_EQ(pool.draining(id), model.nodes[id].drain) << "node " << id;
    }
    ASSERT_EQ(pool.check().value_or("clean"), "clean");
  }

  PlacementPolicy policy;
  sim::Engine engine;
  platform::Cluster cluster;
  NodePool pool;
  Model model;
};

std::vector<workload::Job> owners(std::size_t count) {
  std::vector<workload::Job> jobs(count);
  for (std::size_t i = 0; i < count; ++i) jobs[i].id = i + 1;
  return jobs;
}

TEST(NodePoolDifferential, RandomStepsMatchNaiveModel) {
  constexpr std::size_t kNodes = 12;
  const std::vector<workload::Job> jobs = owners(3);
  for (PlacementPolicy policy :
       {PlacementPolicy::kLowestId, PlacementPolicy::kCompact, PlacementPolicy::kSpread}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(::testing::Message() << "policy " << static_cast<int>(policy) << ", seed "
                                        << seed);
      Fixture f(kNodes, policy);
      util::Rng rng(seed);
      double now = 0.0;
      for (int step = 0; step < 2500; ++step) {
        const NodeId node = static_cast<NodeId>(rng.uniform_int(0, kNodes - 1));
        switch (rng.uniform_int(0, 5)) {
          case 0: {
            const auto free = static_cast<std::int64_t>(f.model.free_set().size());
            f.take(static_cast<int>(rng.uniform_int(0, free)), &jobs[rng.uniform_int(0, 2)]);
            break;
          }
          case 1:
            // The batch system only releases nodes a job holds.
            if (f.model.nodes[node].owner != nullptr) {
              ASSERT_EQ(f.pool.release(node), f.model.release(node));
            }
            break;
          case 2: {
            const double repair = rng.uniform() < 0.1 ? std::numeric_limits<double>::infinity()
                                                      : now + rng.uniform(0.0, 20.0);
            ASSERT_EQ(f.pool.fail(node, repair), f.model.fail(node, repair));
            break;
          }
          case 3: ASSERT_EQ(f.pool.restore(node, now), f.model.restore(node, now)); break;
          case 4: ASSERT_EQ(f.pool.drain(node), f.model.drain(node)); break;
          case 5: ASSERT_EQ(f.pool.undrain(node), f.model.undrain(node)); break;
        }
        ASSERT_NO_FATAL_FAILURE(f.expect_same()) << "after step " << step;
        now += rng.uniform(0.0, 3.0);
      }
    }
  }
}

/// Node 0's events, applied one per second from t=0. A failure schedules
/// its repair two seconds out, so a repair event right after it is refused
/// and a second failure extends the outage.
enum class Event { kRelease, kFail, kRestore, kDrain, kUndrain };

const char* name(Event event) {
  static constexpr const char* kNames[] = {"release", "fail", "restore", "drain", "undrain"};
  return kNames[static_cast<int>(event)];
}

TEST(NodePoolOrders, EveryOrderOfOneNodesEvents) {
  const std::vector<workload::Job> jobs = owners(1);
  int orders = 0;
  for (bool busy : {false, true}) {
    std::vector<Event> events = {Event::kFail, Event::kFail, Event::kRestore, Event::kDrain,
                                 Event::kUndrain};
    if (busy) events.push_back(Event::kRelease);
    std::sort(events.begin(), events.end());
    do {
      std::string order = busy ? "take" : "idle";
      for (Event event : events) order += std::string(" ") + name(event);
      SCOPED_TRACE(order);
      ++orders;
      Fixture f(2, PlacementPolicy::kLowestId);
      if (busy) f.take(1, &jobs[0]);
      for (std::size_t i = 0; i < events.size(); ++i) {
        const double now = static_cast<double>(i);
        switch (events[i]) {
          case Event::kRelease: ASSERT_EQ(f.pool.release(0), f.model.release(0)); break;
          case Event::kFail:
            ASSERT_EQ(f.pool.fail(0, now + 2.0), f.model.fail(0, now + 2.0));
            break;
          case Event::kRestore: ASSERT_EQ(f.pool.restore(0, now), f.model.restore(0, now)); break;
          case Event::kDrain: ASSERT_EQ(f.pool.drain(0), f.model.drain(0)); break;
          case Event::kUndrain: ASSERT_EQ(f.pool.undrain(0), f.model.undrain(0)); break;
        }
        ASSERT_NO_FATAL_FAILURE(f.expect_same()) << "after event " << i;
      }
      // A late repair and an undrain always return the node to service.
      f.pool.restore(0, 100.0);
      f.pool.undrain(0);
      if (busy && f.pool.owner(0) != nullptr) f.pool.release(0);
      EXPECT_EQ(f.pool.free_set(), (std::vector<NodeId>{0, 1}));
    } while (std::next_permutation(events.begin(), events.end()));
  }
  EXPECT_EQ(orders, 60 + 360);
}

TEST(NodePoolCheck, NamesALeakedFreeSetEntry) {
  const std::vector<workload::Job> jobs = owners(7);
  const struct {
    NodeId leaked;
    const char* named;
  } leaks[] = {
      {1, "node 1 allocated to job 7 is also in the free pool"},
      {2, "node 2 is both free and failed"},
      {3, "node 3 is both free and drained"},
      {4, "free pool holds node 4 outside the cluster"},
  };
  for (const auto& leak : leaks) {
    // Nodes 0 and 1 held by job 7, node 2 failed, node 3 drained.
    Fixture f(4, PlacementPolicy::kLowestId);
    f.take(2, &jobs[6]);
    f.pool.fail(2, 10.0);
    f.model.fail(2, 10.0);
    f.pool.drain(3);
    f.model.drain(3);
    ASSERT_NO_FATAL_FAILURE(f.expect_same());
    f.pool.test_corrupt_free_set(leak.leaked);
    EXPECT_EQ(f.pool.check().value_or("clean"), leak.named);
  }
}

}  // namespace
}  // namespace elastisim::core
