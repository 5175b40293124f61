// Edge cases of the DES kernel that the main suites do not reach: dynamic
// capacity under load, callback-driven mutation, stalled-activity queries,
// and determinism of the fair-share solver under symmetry.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"
#include "sim/fluid.h"

namespace elastisim::sim {
namespace {

class KernelEdge : public testing::Test {
 protected:
  Engine engine;
  FluidModel& fluid() { return engine.fluid(); }
};

TEST_F(KernelEdge, CapacityIncreaseSpeedsCompletion) {
  const ResourceId cpu = fluid().add_resource("cpu", 5.0);
  double done = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { done = engine.now(); });
  engine.schedule_at(10.0, [&] { fluid().set_capacity(cpu, 25.0); });
  engine.run();
  // 50 done by t=10; remaining 50 at 25/s -> t=12.
  EXPECT_NEAR(done, 12.0, 1e-9);
}

TEST_F(KernelEdge, CapacityDropToZeroStallsThenResumes) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double done = -1.0;
  const ActivityId id =
      fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { done = engine.now(); });
  engine.schedule_at(5.0, [&] { fluid().set_capacity(cpu, 0.0); });
  engine.schedule_at(50.0, [&] { fluid().set_capacity(cpu, 10.0); });
  engine.run_until(20.0);
  EXPECT_TRUE(fluid().is_active(id));
  EXPECT_NEAR(fluid().remaining_work(id), 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(fluid().rate(id), 0.0);
  engine.run();
  EXPECT_NEAR(done, 55.0, 1e-9);
}

TEST_F(KernelEdge, CancelInsideAnotherCompletionCallback) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  bool b_completed = false;
  ActivityId b = kInvalidActivityId;
  fluid().start({50.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] {
    fluid().cancel(b);  // kill the sibling the moment we finish
  });
  b = fluid().start({200.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [&] { b_completed = true; });
  engine.run();
  EXPECT_FALSE(b_completed);
  EXPECT_EQ(fluid().active_count(), 0u);
}

TEST_F(KernelEdge, StartInsideCompletionCallbackSettlesCorrectly) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  std::vector<double> completions;
  fluid().start({50.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] {
    completions.push_back(engine.now());
    fluid().start({30.0, {{cpu, 1.0}}, kTimeInfinity, "b"},
                  [&] { completions.push_back(engine.now()); });
  });
  const ActivityId c = fluid().start({200.0, {{cpu, 1.0}}, kTimeInfinity, "c"}, [] {});
  engine.run_until(20.0);
  // a and c share (5/s each): a ends at 10. Then b and c share: b's 30 units
  // at 5/s end at 16.
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 10.0, 1e-9);
  EXPECT_NEAR(completions[1], 16.0, 1e-9);
  // c at t=20: 50 (by 10) + 30 (by 16) + 4 s alone at 10/s done.
  ASSERT_TRUE(fluid().is_active(c));
  EXPECT_NEAR(fluid().remaining_work(c), 200.0 - 50.0 - 30.0 - 4.0 * 10.0, 1e-6);
}

TEST_F(KernelEdge, SymmetricActivitiesGetIdenticalRates) {
  const ResourceId cpu = fluid().add_resource("cpu", 97.0);  // awkward capacity
  std::vector<ActivityId> ids;
  for (int i = 0; i < 7; ++i) {
    ids.push_back(fluid().start({1e9, {{cpu, 1.0}}, kTimeInfinity, "s"}, [] {}));
  }
  engine.run_until(0.1);
  for (ActivityId id : ids) EXPECT_DOUBLE_EQ(fluid().rate(id), 97.0 / 7.0);
  EXPECT_NEAR(fluid().consumption(cpu), 97.0, 1e-9);
}

TEST_F(KernelEdge, ManyResourcesSingleActivity) {
  std::vector<Demand> demands;
  double min_capacity = 1e18;
  for (int i = 0; i < 50; ++i) {
    const double capacity = 10.0 + i;
    demands.push_back({fluid().add_resource("r", capacity), 1.0});
    min_capacity = std::min(min_capacity, capacity);
  }
  double done = -1.0;
  fluid().start({100.0, demands, kTimeInfinity, "wide"}, [&] { done = engine.now(); });
  engine.run();
  EXPECT_NEAR(done, 100.0 / min_capacity, 1e-9);
}

TEST_F(KernelEdge, InterleavedStartCancelChurn) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  std::vector<ActivityId> pool;
  int completions = 0;
  for (int round = 0; round < 50; ++round) {
    pool.push_back(fluid().start({5.0, {{cpu, 1.0}}, kTimeInfinity, "churn"},
                                 [&] { ++completions; }));
    if (round % 3 == 2) {
      fluid().cancel(pool[pool.size() - 2]);
    }
    engine.run_until(engine.now() + 0.1);
  }
  engine.run();
  EXPECT_EQ(fluid().active_count(), 0u);
  EXPECT_GT(completions, 0);
  EXPECT_LE(completions, 50);
}

TEST_F(KernelEdge, RemainingWorkNeverNegative) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  const ActivityId id = fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [] {});
  engine.run_until(0.999999999);
  EXPECT_GE(fluid().remaining_work(id), 0.0);
}

// One solve per batch of changes: changes only mark a solve pending, and the
// next rate read or engine step runs it once for the whole batch.
TEST_F(KernelEdge, RebalanceCountAdvancesWithChurn) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  const auto before = fluid().rebalance_count();

  // A start and a cancel with no read in between run no solve.
  const ActivityId a = fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [] {});
  fluid().cancel(a);
  EXPECT_EQ(fluid().rebalance_count(), before);

  // A rate read runs exactly one; a second read finds nothing pending.
  EXPECT_EQ(fluid().rate(a), 0.0);
  EXPECT_EQ(fluid().rebalance_count(), before + 1);
  EXPECT_EQ(fluid().rate(a), 0.0);
  EXPECT_EQ(fluid().rebalance_count(), before + 1);

  // An engine step runs exactly one: the solve that times b's completion.
  bool c_done = false;
  fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [&] {
    fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "c"}, [&] { c_done = true; });
  });
  EXPECT_EQ(fluid().rebalance_count(), before + 1);
  ASSERT_TRUE(engine.step());  // b completes at t=1 and starts c
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  EXPECT_EQ(fluid().rebalance_count(), before + 2);

  // b's completion and the follow-up its callback started share one solve.
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_EQ(fluid().rebalance_count(), before + 3);
  engine.run();
  EXPECT_TRUE(c_done);
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
}

TEST_F(KernelEdge, ResourceMetadataAccessors) {
  const ResourceId cpu = fluid().add_resource("node0.cpu", 48e9);
  EXPECT_EQ(fluid().resource_name(cpu), "node0.cpu");
  EXPECT_DOUBLE_EQ(fluid().capacity(cpu), 48e9);
  EXPECT_EQ(fluid().resource_count(), 1u);
  EXPECT_DOUBLE_EQ(fluid().consumption(cpu), 0.0);
}

TEST_F(KernelEdge, EventsScheduledNowDuringCallbackRunSameInstant) {
  std::vector<int> order;
  engine.schedule_at(5.0, [&] {
    order.push_back(1);
    engine.schedule_at(5.0, [&] { order.push_back(3); });  // same instant, FIFO
  });
  engine.schedule_at(5.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST_F(KernelEdge, CancelOwnPendingEventFromCallback) {
  bool fired = false;
  EventId later = kInvalidEventId;
  engine.schedule_at(1.0, [&] { engine.cancel(later); });
  later = engine.schedule_at(2.0, [&] { fired = true; });
  engine.run();
  EXPECT_FALSE(fired);
}

TEST_F(KernelEdge, TwoIndependentResourcePoolsDoNotInteract) {
  const ResourceId a = fluid().add_resource("a", 10.0);
  const ResourceId b = fluid().add_resource("b", 2.0);
  double a_done = -1.0, b_done = -1.0;
  fluid().start({100.0, {{a, 1.0}}, kTimeInfinity, "on-a"}, [&] { a_done = engine.now(); });
  fluid().start({100.0, {{b, 1.0}}, kTimeInfinity, "on-b"}, [&] { b_done = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 10.0);
  EXPECT_DOUBLE_EQ(b_done, 50.0);
}

TEST_F(KernelEdge, HeavilyWeightedAndCappedMix) {
  // Capacity 100. x: weight 10, cap 3 -> consumes 30. y: weight 1, uncapped
  // -> level rises to 70. z: weight 2, cap 20 -> consumes 40... progressive
  // filling: level rises together; x freezes at 3; then y (w=1) and z (w=2)
  // share remaining 70: level 70/3 ≈ 23.3 > z's cap 20 -> z freezes at 20
  // (consumes 40), y gets 30.
  const ResourceId r = fluid().add_resource("r", 100.0);
  const ActivityId x = fluid().start({1e9, {{r, 10.0}}, 3.0, "x"}, [] {});
  const ActivityId y = fluid().start({1e9, {{r, 1.0}}, kTimeInfinity, "y"}, [] {});
  const ActivityId z = fluid().start({1e9, {{r, 2.0}}, 20.0, "z"}, [] {});
  engine.run_until(0.01);
  EXPECT_NEAR(fluid().rate(x), 3.0, 1e-9);
  EXPECT_NEAR(fluid().rate(z), 20.0, 1e-9);
  EXPECT_NEAR(fluid().rate(y), 30.0, 1e-9);
  EXPECT_NEAR(fluid().consumption(r), 100.0, 1e-9);
}

}  // namespace
}  // namespace elastisim::sim
