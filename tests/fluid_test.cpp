// Tests of the fluid (bounded max-min fairness) resource model, including
// parameterized property sweeps of the progressive-filling solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "sim/fluid.h"
#include "util/check.h"
#include "util/rng.h"

namespace elastisim::sim {
namespace {

class FluidTest : public testing::Test {
 protected:
  Engine engine;
  FluidModel& fluid() { return engine.fluid(); }
};

// ---------------------------------------------------------------------------
// Basics
// ---------------------------------------------------------------------------

TEST_F(FluidTest, SingleActivityRunsAtCapacity) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double done_at = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
}

TEST_F(FluidTest, RateCapLimitsBelowCapacity) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double done_at = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, 4.0, "capped"}, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 25.0);
}

TEST_F(FluidTest, TwoEqualActivitiesShareFairly) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double a_done = -1.0, b_done = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { a_done = engine.now(); });
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [&] { b_done = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 20.0);
  EXPECT_DOUBLE_EQ(b_done, 20.0);
}

TEST_F(FluidTest, ShorterActivityFreesBandwidthForLonger) {
  // a: 50 units, b: 100 units, capacity 10. Both run at 5 until a finishes
  // at t=10; b then runs at 10 and finishes at 10 + 50/10 = 15.
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double a_done = -1.0, b_done = -1.0;
  fluid().start({50.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { a_done = engine.now(); });
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [&] { b_done = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 10.0);
  EXPECT_NEAR(b_done, 15.0, 1e-9);
}

TEST_F(FluidTest, LateArrivalSlowsExisting) {
  // a alone until t=5 (50 units done), then shares with b at rate 5 until
  // b's 25 units finish at t=10; a's remaining 25 then run at rate 10,
  // finishing at t=12.5.
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double a_done = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { a_done = engine.now(); });
  engine.schedule_at(5.0, [&] {
    fluid().start({25.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [] {});
  });
  engine.run();
  EXPECT_NEAR(a_done, 12.5, 1e-9);
}

TEST_F(FluidTest, ZeroWorkCompletesImmediatelyButAsynchronously) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  bool done = false;
  fluid().start({0.0, {{cpu, 1.0}}, kTimeInfinity, "zero"}, [&] { done = true; });
  EXPECT_FALSE(done) << "completion must not fire inside start()";
  engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST_F(FluidTest, NoDemandActivityRunsAtCap) {
  double done_at = -1.0;
  fluid().start({30.0, {}, 2.0, "delay"}, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 15.0);
}

TEST_F(FluidTest, CancelPreventsCompletion) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  bool done = false;
  const ActivityId id =
      fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { done = true; });
  EXPECT_TRUE(fluid().cancel(id));
  engine.run();
  EXPECT_FALSE(done);
  EXPECT_FALSE(fluid().is_active(id));
}

TEST_F(FluidTest, CancelUnknownReturnsFalse) {
  EXPECT_FALSE(fluid().cancel(1234567));
}

// ---------------------------------------------------------------------------
// Contract checks: malformed capacities and specs throw in every build
// ---------------------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST_F(FluidTest, AddResourceRejectsNegativeOrNaNCapacity) {
  EXPECT_THROW(fluid().add_resource("neg", -5.0), util::CheckError);
  EXPECT_THROW(fluid().add_resource("nan", kNaN), util::CheckError);
  EXPECT_EQ(fluid().resource_count(), 0u);
  EXPECT_NO_THROW(fluid().add_resource("zero", 0.0));
}

TEST_F(FluidTest, SetCapacityRejectsNegativeOrNaNCapacity) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  EXPECT_THROW(fluid().set_capacity(cpu, -1.0), util::CheckError);
  EXPECT_THROW(fluid().set_capacity(cpu, kNaN), util::CheckError);
  EXPECT_DOUBLE_EQ(fluid().capacity(cpu), 10.0);
  EXPECT_NO_THROW(fluid().set_capacity(cpu, 0.0));
}

TEST_F(FluidTest, StartRejectsNonPositiveRateCap) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  for (const double cap : {0.0, -1.0, kNaN}) {
    EXPECT_THROW(fluid().start({10.0, {{cpu, 1.0}}, cap, "bad cap"}, [] {}), util::CheckError)
        << cap;
  }
  EXPECT_EQ(fluid().active_count(), 0u);
}

TEST_F(FluidTest, StartRejectsInfiniteCapWithoutDemands) {
  EXPECT_THROW(fluid().start({10.0, {}, kTimeInfinity, "unbounded"}, [] {}), util::CheckError);
  EXPECT_EQ(fluid().active_count(), 0u);
}

TEST_F(FluidTest, StartRejectsNaNWork) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  EXPECT_THROW(fluid().start({kNaN, {{cpu, 1.0}}, kTimeInfinity, "nan work"}, [] {}),
               util::CheckError);
  EXPECT_EQ(fluid().active_count(), 0u);
}

TEST_F(FluidTest, CancelSpeedsUpSurvivor) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double a_done = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { a_done = engine.now(); });
  const ActivityId b =
      fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [] {});
  engine.schedule_at(4.0, [&, b] { fluid().cancel(b); });
  engine.run();
  // a: 4s at rate 5 (20 done), then 80 remaining at rate 10 -> t = 12.
  EXPECT_NEAR(a_done, 12.0, 1e-9);
}

TEST_F(FluidTest, ZeroCapacityStallsUntilRaised) {
  const ResourceId cpu = fluid().add_resource("cpu", 0.0);
  double done_at = -1.0;
  fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "stalled"},
                [&] { done_at = engine.now(); });
  engine.schedule_at(5.0, [&] { fluid().set_capacity(cpu, 10.0); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 6.0);
}

TEST_F(FluidTest, CapacityDropMidFlight) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double done_at = -1.0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { done_at = engine.now(); });
  engine.schedule_at(5.0, [&] { fluid().set_capacity(cpu, 5.0); });
  engine.run();
  // 50 done by t=5; remaining 50 at rate 5 -> t = 15.
  EXPECT_NEAR(done_at, 15.0, 1e-9);
}

TEST_F(FluidTest, RemainingWorkSettlesContinuously) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  const ActivityId id = fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [] {});
  engine.run_until(4.0);
  EXPECT_NEAR(fluid().remaining_work(id), 60.0, 1e-9);
  EXPECT_DOUBLE_EQ(fluid().rate(id), 10.0);
}

// ---------------------------------------------------------------------------
// Multi-resource activities and weights
// ---------------------------------------------------------------------------

TEST_F(FluidTest, MultiResourceBottleneckedBySlowest) {
  const ResourceId fast = fluid().add_resource("fast", 100.0);
  const ResourceId slow = fluid().add_resource("slow", 10.0);
  double done_at = -1.0;
  fluid().start({50.0, {{fast, 1.0}, {slow, 1.0}}, kTimeInfinity, "route"},
                [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST_F(FluidTest, WeightedDemandConsumesProportionally) {
  // Weight 4 on a capacity-20 resource -> rate 5.
  const ResourceId link = fluid().add_resource("link", 20.0);
  double done_at = -1.0;
  fluid().start({50.0, {{link, 4.0}}, kTimeInfinity, "heavy"},
                [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(done_at, 10.0);
}

TEST_F(FluidTest, MixedWeightsShareByWeight) {
  // Capacity 30; weights 1 and 2 -> common level 10: rates 10 and 10,
  // consumptions 10 and 20.
  const ResourceId link = fluid().add_resource("link", 30.0);
  const ActivityId a = fluid().start({1e9, {{link, 1.0}}, kTimeInfinity, "w1"}, [] {});
  const ActivityId b = fluid().start({1e9, {{link, 2.0}}, kTimeInfinity, "w2"}, [] {});
  engine.run_until(0.5);
  EXPECT_NEAR(fluid().rate(a), 10.0, 1e-9);
  EXPECT_NEAR(fluid().rate(b), 10.0, 1e-9);
  EXPECT_NEAR(fluid().consumption(link), 30.0, 1e-9);
}

TEST_F(FluidTest, ClassicMaxMinThreeFlowsTwoLinks) {
  // The textbook example: flows A (link1), B (link1+link2), C (link2).
  // link1 cap 10, link2 cap 6. Progressive filling: level 3 saturates
  // link2 (B=C=3), then A rises to 10-3=7.
  const ResourceId link1 = fluid().add_resource("l1", 10.0);
  const ResourceId link2 = fluid().add_resource("l2", 6.0);
  const ActivityId a = fluid().start({1e9, {{link1, 1.0}}, kTimeInfinity, "A"}, [] {});
  const ActivityId b =
      fluid().start({1e9, {{link1, 1.0}, {link2, 1.0}}, kTimeInfinity, "B"}, [] {});
  const ActivityId c = fluid().start({1e9, {{link2, 1.0}}, kTimeInfinity, "C"}, [] {});
  engine.run_until(0.1);
  EXPECT_NEAR(fluid().rate(b), 3.0, 1e-9);
  EXPECT_NEAR(fluid().rate(c), 3.0, 1e-9);
  EXPECT_NEAR(fluid().rate(a), 7.0, 1e-9);
}

TEST_F(FluidTest, CapFreesShareForOthers) {
  // Two activities, capacity 10; a capped at 2 -> b gets 8.
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  const ActivityId a = fluid().start({1e9, {{cpu, 1.0}}, 2.0, "capped"}, [] {});
  const ActivityId b = fluid().start({1e9, {{cpu, 1.0}}, kTimeInfinity, "free"}, [] {});
  engine.run_until(0.1);
  EXPECT_NEAR(fluid().rate(a), 2.0, 1e-9);
  EXPECT_NEAR(fluid().rate(b), 8.0, 1e-9);
}

TEST_F(FluidTest, FinishedIdsStayDeadAfterSlotReuse) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  const ActivityId completed = fluid().start({10.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [] {});
  engine.run();
  // The next start takes the slot the completed activity freed.
  int fired = 0;
  const ActivityId cancelled =
      fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [&] { fired += 1; });
  EXPECT_NE(cancelled, completed);
  EXPECT_TRUE(fluid().cancel(cancelled));
  const ActivityId live =
      fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "c"}, [&] { fired += 10; });
  for (const ActivityId dead : {completed, cancelled}) {
    EXPECT_FALSE(fluid().is_active(dead));
    EXPECT_EQ(fluid().rate(dead), 0.0);
    EXPECT_EQ(fluid().remaining_work(dead), 0.0);
    EXPECT_FALSE(fluid().cancel(dead));
  }
  EXPECT_TRUE(fluid().is_active(live));
  EXPECT_DOUBLE_EQ(fluid().rate(live), 10.0);
  engine.run();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(engine.now(), 11.0);
}

TEST_F(FluidTest, SimultaneousCompletionsBothFire) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  int completions = 0;
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "a"}, [&] { ++completions; });
  fluid().start({100.0, {{cpu, 1.0}}, kTimeInfinity, "b"}, [&] { ++completions; });
  engine.run();
  EXPECT_EQ(completions, 2);
  EXPECT_NEAR(engine.now(), 20.0, 1e-6);
}

TEST_F(FluidTest, CompletionCallbackCanStartNewActivity) {
  const ResourceId cpu = fluid().add_resource("cpu", 10.0);
  double second_done = -1.0;
  fluid().start({50.0, {{cpu, 1.0}}, kTimeInfinity, "first"}, [&] {
    fluid().start({50.0, {{cpu, 1.0}}, kTimeInfinity, "second"},
                  [&] { second_done = engine.now(); });
  });
  engine.run();
  EXPECT_NEAR(second_done, 10.0, 1e-9);
}

TEST_F(FluidTest, ChainOfHundredSequentialActivities) {
  const ResourceId cpu = fluid().add_resource("cpu", 1.0);
  int completed = 0;
  std::function<void()> next = [&] {
    if (++completed < 100) {
      fluid().start({1.0, {{cpu, 1.0}}, kTimeInfinity, "step"}, next);
    }
  };
  fluid().start({1.0, {{cpu, 1.0}}, kTimeInfinity, "step"}, next);
  engine.run();
  EXPECT_EQ(completed, 100);
  EXPECT_NEAR(engine.now(), 100.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Property sweep: randomized max-min instances
// ---------------------------------------------------------------------------

struct SolverCase {
  int resources;
  int activities;
  std::uint64_t seed;
};

class FluidSolverProperty : public testing::TestWithParam<SolverCase> {};

TEST_P(FluidSolverProperty, RatesAreFeasibleAndMaxMin) {
  const SolverCase param = GetParam();
  util::Rng rng(param.seed);
  Engine engine;
  FluidModel& fluid = engine.fluid();

  std::vector<ResourceId> resources;
  std::vector<double> capacity;
  for (int r = 0; r < param.resources; ++r) {
    capacity.push_back(rng.uniform(1.0, 100.0));
    resources.push_back(fluid.add_resource("r", capacity.back()));
  }

  struct Act {
    ActivityId id;
    std::vector<Demand> demands;
    double cap;
  };
  std::vector<Act> acts;
  for (int a = 0; a < param.activities; ++a) {
    Act act;
    const int uses = static_cast<int>(rng.uniform_int(1, std::min(3, param.resources)));
    std::vector<int> picks;
    for (int u = 0; u < uses; ++u) {
      int r;
      do {
        r = static_cast<int>(rng.uniform_int(0, param.resources - 1));
      } while (std::find(picks.begin(), picks.end(), r) != picks.end());
      picks.push_back(r);
      act.demands.push_back({resources[r], rng.uniform(0.5, 3.0)});
    }
    act.cap = rng.bernoulli(0.3) ? rng.uniform(0.5, 20.0) : kTimeInfinity;
    act.id = fluid.start({1e12, act.demands, act.cap, "p"}, [] {});
    acts.push_back(std::move(act));
  }
  engine.run_until(1e-6);  // force at least one settle; rates already set

  // Feasibility: per-resource consumption within capacity.
  std::vector<double> used(resources.size(), 0.0);
  for (const Act& act : acts) {
    const double rate = fluid.rate(act.id);
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, act.cap * (1.0 + 1e-6));
    for (const Demand& demand : act.demands) used[demand.resource] += demand.weight * rate;
  }
  for (std::size_t r = 0; r < resources.size(); ++r) {
    EXPECT_LE(used[r], capacity[r] * (1.0 + 1e-6))
        << "resource " << r << " oversubscribed";
  }

  // Max-min / Pareto property: every activity below its cap must be blocked
  // by at least one saturated resource (otherwise its rate could increase).
  for (const Act& act : acts) {
    const double rate = fluid.rate(act.id);
    if (rate >= act.cap * (1.0 - 1e-6)) continue;  // cap-bound
    bool blocked = false;
    for (const Demand& demand : act.demands) {
      if (used[demand.resource] >= capacity[demand.resource] * (1.0 - 1e-6)) {
        blocked = true;
        break;
      }
    }
    EXPECT_TRUE(blocked) << "activity below cap is not resource-blocked (rate " << rate << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, FluidSolverProperty,
    testing::Values(SolverCase{1, 1, 1}, SolverCase{1, 5, 2}, SolverCase{2, 3, 3},
                    SolverCase{3, 8, 4}, SolverCase{4, 16, 5}, SolverCase{5, 25, 6},
                    SolverCase{8, 40, 7}, SolverCase{10, 80, 8}, SolverCase{2, 50, 9},
                    SolverCase{16, 100, 10}, SolverCase{6, 12, 11}, SolverCase{3, 30, 12}));

// Work-conservation property: total completion time of identical activities
// equals the serialized optimum regardless of arrival pattern.
class FluidConservation : public testing::TestWithParam<int> {};

TEST_P(FluidConservation, TotalWorkConserved) {
  const int n = GetParam();
  Engine engine;
  const ResourceId cpu = engine.fluid().add_resource("cpu", 7.0);
  // n activities of 70 units each: machine busy at full rate until all done,
  // so the last completion is exactly n * 10 seconds.
  int completions = 0;
  for (int i = 0; i < n; ++i) {
    engine.fluid().start({70.0, {{cpu, 1.0}}, kTimeInfinity, "w"}, [&] { ++completions; });
  }
  engine.run();
  EXPECT_EQ(completions, n);
  EXPECT_NEAR(engine.now(), 10.0 * n, 1e-6 * n);
}

INSTANTIATE_TEST_SUITE_P(Counts, FluidConservation, testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Differential oracle: the solve against a full-scan reference
// ---------------------------------------------------------------------------

// Progressive filling as a scan over every resource and every unfrozen
// activity per filling round, with per-resource sums recomputed from
// scratch. The incremental fill skips work but computes each value it keeps
// with the scan's operands in the scan's order, so it must match bit for bit.
struct ReferenceSolution {
  std::vector<double> rate;         // per live activity, in insertion order
  std::vector<double> consumption;  // per resource
};

ReferenceSolution reference_solve(const std::vector<double>& capacity,
                                  const std::vector<const ActivitySpec*>& live) {
  constexpr double kRelEps = 1e-9;
  constexpr double kAbsEps = 1e-12;
  const auto leq_tol = [](double a, double b) { return a <= b * (1.0 + kRelEps) + kAbsEps; };
  ReferenceSolution out{std::vector<double>(live.size(), 0.0),
                        std::vector<double>(capacity.size(), 0.0)};
  std::vector<double> avail = capacity;
  std::vector<double> weight_sum(capacity.size(), 0.0);
  std::vector<std::size_t> unfrozen;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i]->demands.empty()) {
      out.rate[i] = live[i]->rate_cap;
      continue;
    }
    unfrozen.push_back(i);
    for (const Demand& d : live[i]->demands) weight_sum[d.resource] += d.weight;
  }
  while (!unfrozen.empty()) {
    double lambda_res = kTimeInfinity;
    for (std::size_t r = 0; r < capacity.size(); ++r) {
      if (weight_sum[r] > kAbsEps) {
        lambda_res = std::min(lambda_res, std::max(avail[r], 0.0) / weight_sum[r]);
      }
    }
    double lambda_cap = kTimeInfinity;
    for (std::size_t i : unfrozen) lambda_cap = std::min(lambda_cap, live[i]->rate_cap);
    const double lambda = std::min(lambda_res, lambda_cap);
    const bool cap_binding = lambda_cap <= lambda_res;
    std::vector<std::size_t> still_unfrozen;
    for (std::size_t i : unfrozen) {
      bool freeze = false;
      if (cap_binding) {
        freeze = leq_tol(live[i]->rate_cap, lambda);
      } else {
        for (const Demand& d : live[i]->demands) {
          const double share =
              std::max(avail[d.resource], 0.0) / std::max(weight_sum[d.resource], kAbsEps);
          if (leq_tol(share, lambda)) {
            freeze = true;
            break;
          }
        }
      }
      if (!freeze) {
        still_unfrozen.push_back(i);
        continue;
      }
      out.rate[i] = std::min(lambda, live[i]->rate_cap);
      for (const Demand& d : live[i]->demands) {
        avail[d.resource] -= d.weight * out.rate[i];
        weight_sum[d.resource] -= d.weight;
      }
    }
    if (still_unfrozen.size() == unfrozen.size()) {
      for (std::size_t i : still_unfrozen) out.rate[i] = std::min(lambda, live[i]->rate_cap);
      break;
    }
    unfrozen.swap(still_unfrozen);
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (const Demand& d : live[i]->demands) out.consumption[d.resource] += d.weight * out.rate[i];
  }
  return out;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(FluidOracle, SolveMatchesFullScanReferenceBitForBit) {
  // Zero, equal, very different and infinite capacities; weights other than
  // 1; caps that bind and caps that do not.
  constexpr double kCapacities[] = {0.0, 1.0, 2.5, 10.0, 10.0, 1e3, kTimeInfinity};
  constexpr double kWeights[] = {1.0, 1.0, 0.5, 2.0, 3.7};
  constexpr double kRateCaps[] = {kTimeInfinity, kTimeInfinity, 0.3, 1.0, 5.0, 1e6};
  constexpr double kWorks[] = {0.0, 1.0, 5.0, 20.0, 100.0};
  constexpr double kSteps[] = {0.0, 0.05, 0.5, 2.0, 10.0};

  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const auto pick = [&rng](const auto& values) {
      return values[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(std::size(values)) - 1))];
    };
    Engine engine;
    FluidModel& fluid = engine.fluid();
    std::vector<double> capacity;
    const auto add_resource = [&](double cap) {
      capacity.push_back(cap);
      return fluid.add_resource("r", cap);
    };
    const int shared = static_cast<int>(rng.uniform_int(1, 6));
    for (int r = 0; r < shared; ++r) add_resource(pick(kCapacities));
    // Resources nobody demands, which also move the private resources below
    // into later 64-resource blocks of the model's index.
    const auto idle = rng.uniform_int(0, 100);
    for (std::int64_t r = 0; r < idle; ++r) add_resource(pick(kCapacities));

    struct Live {
      ActivityId id;
      ActivitySpec spec;
    };
    std::vector<Live> live;  // insertion order, as the model keeps it
    std::vector<ActivityId> started;
    int follow_ups = 40;

    std::function<void()> start = [&] {
      ActivitySpec spec;
      spec.work = pick(kWorks);
      spec.rate_cap = pick(kRateCaps);
      if (rng.bernoulli(0.1)) {
        spec.rate_cap = rng.bernoulli(0.5) ? 0.5 : 2.0;  // no demands: needs a finite cap
      } else {
        const int uses = static_cast<int>(rng.uniform_int(1, std::min(3, shared)));
        for (int u = 0; u < uses; ++u) {
          const auto r = static_cast<ResourceId>(rng.uniform_int(0, shared - 1));
          const bool taken = std::any_of(spec.demands.begin(), spec.demands.end(),
                                         [r](const Demand& d) { return d.resource == r; });
          if (!taken) spec.demands.push_back({r, pick(kWeights)});
        }
        if (rng.bernoulli(0.4)) {  // a private resource
          spec.demands.push_back({add_resource(pick(kCapacities)), pick(kWeights)});
        }
      }
      auto self = std::make_shared<ActivityId>(kInvalidActivityId);
      const ActivityId id = fluid.start(spec, [&, self] {
        live.erase(std::find_if(live.begin(), live.end(),
                                [&](const Live& l) { return l.id == *self; }));
        if (follow_ups > 0 && rng.bernoulli(0.3)) {
          --follow_ups;
          start();
        }
      });
      *self = id;
      live.push_back({id, std::move(spec)});
      started.push_back(id);
    };

    for (int step = 0; step < 250; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.35 || started.empty()) {
        start();
      } else if (roll < 0.5) {
        const ActivityId id = pick(started);
        const bool was_live = std::any_of(live.begin(), live.end(),
                                          [id](const Live& l) { return l.id == id; });
        ASSERT_EQ(fluid.cancel(id), was_live);
        if (was_live) {
          live.erase(std::find_if(live.begin(), live.end(),
                                  [id](const Live& l) { return l.id == id; }));
        }
      } else if (roll < 0.85) {
        engine.run_until(engine.now() + pick(kSteps));
      } else {
        const auto r = static_cast<ResourceId>(
            rng.uniform_int(0, static_cast<std::int64_t>(capacity.size()) - 1));
        capacity[r] = pick(kCapacities);
        fluid.set_capacity(r, capacity[r]);
      }

      std::vector<const ActivitySpec*> specs;
      for (const Live& l : live) specs.push_back(&l.spec);
      const ReferenceSolution reference = reference_solve(capacity, specs);
      ASSERT_EQ(fluid.active_count(), live.size()) << "step " << step;
      for (std::size_t i = 0; i < live.size(); ++i) {
        ASSERT_TRUE(fluid.is_active(live[i].id));
        ASSERT_EQ(bits(fluid.rate(live[i].id)), bits(reference.rate[i]))
            << "step " << step << ", activity " << live[i].id;
      }
      for (std::size_t r = 0; r < capacity.size(); ++r) {
        ASSERT_EQ(bits(fluid.consumption(static_cast<ResourceId>(r))),
                  bits(reference.consumption[r]))
            << "step " << step << ", resource " << r;
      }
    }
  }
}

TEST(FluidOracle, EdgeCasesMatchFullScanReferenceBitForBit) {
  // Where the incremental fill's kept state could part from a full scan:
  // weights at or under the 1e-12 guard (a weight sum drops under it while a
  // user is still unfrozen, the one case where a resource's saturation key
  // differs from its water-level key), an activity demanding one resource
  // twice, capacities 0, -0.0 and +inf, idle stretches of more than three
  // 64-resource index blocks between demanded resources, resources added
  // mid-run, and set_capacity on resources nobody demands.
  constexpr double kCapacities[] = {0.0, -0.0, 1.0, 2.5, 10.0, 1e3, kTimeInfinity};
  constexpr double kWeights[] = {1.0, 1.0, 0.5, 3.7, 1e-13, 1e-12, 5e-13};
  constexpr double kRateCaps[] = {kTimeInfinity, kTimeInfinity, 0.3, 1.0, 5.0};
  constexpr double kWorks[] = {0.0, 1.0, 5.0, 20.0};
  constexpr double kSteps[] = {0.0, 0.05, 0.5, 2.0};

  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    const auto pick = [&rng](const auto& values) {
      return values[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(std::size(values)) - 1))];
    };
    Engine engine;
    FluidModel& fluid = engine.fluid();
    std::vector<double> capacity;
    const auto add_resource = [&](double cap) {
      capacity.push_back(cap);
      return fluid.add_resource("r", cap);
    };
    const auto add_idle = [&](std::int64_t count) {
      for (std::int64_t r = 0; r < count; ++r) add_resource(pick(kCapacities));
    };
    std::vector<ResourceId> shared;
    for (auto r = rng.uniform_int(1, 4); r > 0; --r) shared.push_back(add_resource(pick(kCapacities)));
    add_idle(4 * 64 + rng.uniform_int(0, 130));
    for (auto r = rng.uniform_int(1, 3); r > 0; --r) shared.push_back(add_resource(pick(kCapacities)));

    struct Live {
      ActivityId id;
      ActivitySpec spec;
    };
    std::vector<Live> live;  // insertion order, as the model keeps it
    std::vector<ActivityId> started;
    int follow_ups = 40;

    std::function<void()> start = [&] {
      ActivitySpec spec;
      spec.work = pick(kWorks);
      spec.rate_cap = pick(kRateCaps);
      if (rng.bernoulli(0.1)) {
        spec.rate_cap = 2.0;  // no demands: needs a finite cap
      } else {
        // Repeats allowed: an activity may demand one resource twice.
        for (auto uses = rng.uniform_int(1, 3); uses > 0; --uses) {
          spec.demands.push_back({pick(shared), pick(kWeights)});
        }
        if (rng.bernoulli(0.3)) {  // a private resource past more idle blocks
          if (rng.bernoulli(0.3)) add_idle(rng.uniform_int(1, 300));
          spec.demands.push_back({add_resource(pick(kCapacities)), pick(kWeights)});
        }
      }
      auto self = std::make_shared<ActivityId>(kInvalidActivityId);
      const ActivityId id = fluid.start(spec, [&, self] {
        live.erase(std::find_if(live.begin(), live.end(),
                                [&](const Live& l) { return l.id == *self; }));
        if (follow_ups > 0 && rng.bernoulli(0.3)) {
          --follow_ups;
          start();
        }
      });
      *self = id;
      live.push_back({id, std::move(spec)});
      started.push_back(id);
    };

    for (int step = 0; step < 200; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.35 || started.empty()) {
        start();
      } else if (roll < 0.5) {
        const ActivityId id = pick(started);
        const bool was_live = std::any_of(live.begin(), live.end(),
                                          [id](const Live& l) { return l.id == id; });
        ASSERT_EQ(fluid.cancel(id), was_live);
        if (was_live) {
          live.erase(std::find_if(live.begin(), live.end(),
                                  [id](const Live& l) { return l.id == id; }));
        }
      } else if (roll < 0.8) {
        engine.run_until(engine.now() + pick(kSteps));
      } else {
        // Any resource: shared, private, or one nobody has ever demanded.
        const auto r = static_cast<ResourceId>(
            rng.uniform_int(0, static_cast<std::int64_t>(capacity.size()) - 1));
        capacity[r] = pick(kCapacities);
        fluid.set_capacity(r, capacity[r]);
      }

      std::vector<const ActivitySpec*> specs;
      for (const Live& l : live) specs.push_back(&l.spec);
      const ReferenceSolution reference = reference_solve(capacity, specs);
      ASSERT_EQ(fluid.active_count(), live.size()) << "step " << step;
      for (std::size_t i = 0; i < live.size(); ++i) {
        ASSERT_TRUE(fluid.is_active(live[i].id));
        ASSERT_EQ(bits(fluid.rate(live[i].id)), bits(reference.rate[i]))
            << "step " << step << ", activity " << live[i].id;
      }
      for (std::size_t r = 0; r < capacity.size(); ++r) {
        ASSERT_EQ(bits(fluid.consumption(static_cast<ResourceId>(r))),
                  bits(reference.consumption[r]))
            << "step " << step << ", resource " << r;
      }
      // The kept lists, folds, keys and block minima re-derive from the live
      // activities. Zero capacities under tiny weights and unbounded levels
      // may break the physical bounds checked after them, so only those may
      // be reported.
      if (const auto error = fluid.check_invariants(true)) {
        ASSERT_TRUE(error->find("oversubscribed") != std::string::npos ||
                    error->rfind("fluid activity '", 0) == 0)
            << "step " << step << ": " << *error;
      }
    }
  }
}

TEST(FluidOracle, FreezeUnderTheWeightGuardSaturatesALaterUser) {
  // s sets the level at 1 and freezes a; t's share is 1.01 at the round's
  // start, but a's freeze leaves t a weight sum under the 1e-12 guard, which
  // drops its share to 0.515 within the round. So b, after a in the list,
  // freezes in the same round at 1. Without the listing after a freeze, b
  // would reach a round that no resource bounds and get an infinite rate.
  Engine engine;
  FluidModel& fluid = engine.fluid();
  const std::vector<double> capacity = {1.0, 1.515e-12};
  const ResourceId s = fluid.add_resource("s", capacity[0]);
  const ResourceId t = fluid.add_resource("t", capacity[1]);
  const ActivitySpec a{10.0, {{s, 1.0}, {t, 1e-12}}, kTimeInfinity, "a"};
  const ActivitySpec b{10.0, {{t, 5e-13}}, kTimeInfinity, "b"};
  const ActivityId first = fluid.start(a, [] {});
  const ActivityId second = fluid.start(b, [] {});
  const ReferenceSolution reference = reference_solve(capacity, {&a, &b});
  ASSERT_EQ(reference.rate, (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(bits(fluid.rate(first)), bits(reference.rate[0]));
  EXPECT_EQ(bits(fluid.rate(second)), bits(reference.rate[1]));
  EXPECT_EQ(fluid.check_invariants(true), std::nullopt);
}

// ---------------------------------------------------------------------------
// Work of the incremental fill
// ---------------------------------------------------------------------------

// Starts `background` long activities, each held at its rate cap on a private
// resource, and solves once. Then churns up to four activities through
// private resources and one shared link that binds below the caps: each step
// cancels the oldest and starts one. Returns the demands examined by each
// step's solve.
std::vector<std::uint64_t> examined_per_churn(int background) {
  Engine engine;
  FluidModel& fluid = engine.fluid();
  ActivityId first = kInvalidActivityId;
  for (int i = 0; i < background; ++i) {
    const ResourceId own = fluid.add_resource("own", 1.0);
    const ActivityId id = fluid.start({1e12, {{own, 1.0}}, 1.0, "long"}, [] {});
    if (first == kInvalidActivityId) first = id;
  }
  EXPECT_EQ(fluid.rate(first), 1.0);
  const ResourceId link = fluid.add_resource("link", 0.5);
  std::vector<ResourceId> churn_own;
  for (int i = 0; i < 5; ++i) churn_own.push_back(fluid.add_resource("churn", 2.0));
  std::vector<ActivityId> churn;
  std::vector<std::uint64_t> per_solve;
  for (std::size_t step = 0; step < 300; ++step) {
    if (churn.size() == 4) {
      EXPECT_TRUE(fluid.cancel(churn.front()));
      churn.erase(churn.begin());
    }
    churn.push_back(fluid.start(
        {1e12, {{churn_own[step % churn_own.size()], 1.0}, {link, 1.0}}, kTimeInfinity, "churn"},
        [] {}));
    const std::uint64_t solves = fluid.rebalance_count();
    const std::uint64_t before = fluid.demands_examined();
    EXPECT_DOUBLE_EQ(fluid.rate(churn.back()), 0.5 / static_cast<double>(churn.size()));
    EXPECT_EQ(fluid.rebalance_count(), solves + 1);
    per_solve.push_back(fluid.demands_examined() - before);
  }
  EXPECT_EQ(fluid.active_count(), static_cast<std::size_t>(background) + 4);
  return per_solve;
}

TEST(FluidWork, DemandsExaminedFollowTheChangesNotTheLiveCount) {
  // A step changes two activities with two demands each, on a link whose
  // (at most four) users all freeze in a resource-binding round; the long
  // activities freeze together in the final cap-binding round, which draws
  // no pool. So a solve examines the same few dozen entries at 200 or 2,000
  // live activities, where a full scan reads every live demand per round.
  const std::vector<std::uint64_t> few = examined_per_churn(200);
  const std::vector<std::uint64_t> many = examined_per_churn(2000);
  EXPECT_EQ(few, many);
  constexpr std::uint64_t kChurnDemands = 4 * 2;  // the link's users' demands
  for (std::size_t step = 0; step < many.size(); ++step) {
    EXPECT_LE(many[step], 8 * kChurnDemands) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// Differential oracle: completion order against eager per-activity events
// ---------------------------------------------------------------------------

// The fluid model as it ran before solves were deferred, kept as the
// reference for when and in which order completions fire: one solve per
// change (reference_solve), and one completion event per activity, which
// every solve reschedules in insertion order with a fresh sequence number.
// It runs on a clock and a sim::EventQueue of its own, with the engine's
// clamping and dispatch rules.
class EagerReference {
 public:
  SimTime now() const { return now_; }

  ResourceId add_resource(double capacity) {
    capacity_.push_back(capacity);
    return static_cast<ResourceId>(capacity_.size() - 1);
  }

  void set_capacity(ResourceId resource, double capacity) {
    settle();
    capacity_[resource] = capacity;
    solve();
  }

  ActivityId start(ActivitySpec spec, std::function<void()> on_complete) {
    settle();
    const ActivityId id = next_id_++;
    const double remaining = std::max(spec.work, 0.0);
    live_.push_back(
        {id, std::move(spec), remaining, 0.0, std::move(on_complete), kInvalidEventId});
    solve();
    return id;
  }

  bool cancel(ActivityId id) {
    const auto it = find(id);
    if (it == live_.end()) return false;
    settle();
    if (it->event != kInvalidEventId) queue_.cancel(it->event);
    live_.erase(it);
    solve();
    return true;
  }

  bool is_active(ActivityId id) { return find(id) != live_.end(); }

  double rate(ActivityId id) {
    const auto it = find(id);
    return it == live_.end() ? 0.0 : it->rate;
  }

  double remaining_work(ActivityId id) {
    const auto it = find(id);
    if (it == live_.end()) return 0.0;
    return std::max(0.0, it->remaining - it->rate * (now_ - last_settle_));
  }

  EventId schedule_in(SimTime delay, std::function<void()> callback) {
    return schedule_at(now_ + delay, std::move(callback));
  }

  bool step() {
    if (queue_.empty()) return false;
    auto [time, callback] = queue_.pop();
    if (time > now_) now_ = time;
    callback();
    return true;
  }

 private:
  struct Activity {
    ActivityId id;
    ActivitySpec spec;
    double remaining;
    double rate;
    std::function<void()> on_complete;
    EventId event;
  };

  std::vector<Activity>::iterator find(ActivityId id) {
    return std::find_if(live_.begin(), live_.end(),
                        [id](const Activity& a) { return a.id == id; });
  }

  // Engine's rule: an event can never be placed in the past.
  SimTime clamp(SimTime when) const { return when < now_ ? now_ : when; }

  EventId schedule_at(SimTime when, std::function<void()> callback) {
    return queue_.push(clamp(when), std::move(callback));
  }

  void settle() {
    const double elapsed = now_ - last_settle_;
    if (elapsed > 0.0) {
      for (Activity& a : live_) a.remaining = std::max(0.0, a.remaining - a.rate * elapsed);
    }
    last_settle_ = now_;
  }

  void solve() {
    std::vector<const ActivitySpec*> specs;
    for (const Activity& a : live_) specs.push_back(&a.spec);
    const ReferenceSolution solution = reference_solve(capacity_, specs);
    for (std::size_t i = 0; i < live_.size(); ++i) live_[i].rate = solution.rate[i];
    for (Activity& a : live_) schedule_completion(a);
  }

  void schedule_completion(Activity& a) {
    SimTime finish;
    if (a.remaining <= kWorkEpsilon) {
      finish = now_;
    } else if (a.rate > 0.0) {
      finish = now_ + a.remaining / a.rate;
    } else {
      if (a.event != kInvalidEventId) queue_.cancel(a.event);
      a.event = kInvalidEventId;
      return;
    }
    if (a.event != kInvalidEventId && queue_.reschedule(a.event, clamp(finish))) return;
    const ActivityId id = a.id;
    a.event = schedule_at(finish, [this, id] { complete(id); });
  }

  void complete(ActivityId id) {
    const auto it = find(id);
    settle();
    std::function<void()> callback = std::move(it->on_complete);
    live_.erase(it);
    solve();
    if (callback) callback();
  }

  SimTime now_ = 0.0;
  SimTime last_settle_ = 0.0;
  EventQueue queue_;
  std::vector<double> capacity_;
  std::vector<Activity> live_;
  ActivityId next_id_ = 1;
};

// The engine and fluid model under test, behind the reference's interface.
class EngineUnderTest {
 public:
  SimTime now() const { return engine_.now(); }
  ResourceId add_resource(double capacity) { return fluid().add_resource("r", capacity); }
  void set_capacity(ResourceId resource, double capacity) {
    fluid().set_capacity(resource, capacity);
  }
  ActivityId start(ActivitySpec spec, std::function<void()> on_complete) {
    return fluid().start(std::move(spec), std::move(on_complete));
  }
  bool cancel(ActivityId id) { return fluid().cancel(id); }
  bool is_active(ActivityId id) { return fluid().is_active(id); }
  double rate(ActivityId id) { return fluid().rate(id); }
  double remaining_work(ActivityId id) { return fluid().remaining_work(id); }
  EventId schedule_in(SimTime delay, std::function<void()> callback) {
    return engine_.schedule_in(delay, std::move(callback));
  }
  bool step() { return engine_.step(); }

 private:
  FluidModel& fluid() { return engine_.fluid(); }
  Engine engine_;
};

// One randomized script of starts, cancels, capacity changes and foreign
// events, run against either side. Every decision is drawn from the script's
// own generator, from inside the dispatched callbacks, so two sides that
// dispatch the same events in the same order make the same decisions. Works,
// capacities and delays come from small sets of round values, so equal
// finish times, and completions at the instant of a foreign event, are
// common.
template <typename Side>
class OracleScript {
 public:
  static constexpr double kCapacities[] = {0.0, 1.0, 2.0, 2.0, 4.0, kTimeInfinity};
  static constexpr double kWorks[] = {0.0, 1.0, 2.0, 2.0, 4.0, 8.0};
  static constexpr double kWeights[] = {1.0, 1.0, 2.0};
  static constexpr double kRateCaps[] = {kTimeInfinity, kTimeInfinity, 1.0, 2.0};
  static constexpr double kDelays[] = {0.0, 0.5, 1.0, 2.0, 4.0};

  explicit OracleScript(std::uint64_t seed) : rng_(seed) {
    resources_ = rng_.uniform_int(1, 4);
    for (std::int64_t r = 0; r < resources_; ++r) side.add_resource(pick(kCapacities));
    for (int i = 0; i < 3; ++i) start();
    side.schedule_in(0.0, [this] { script_event(); });
  }

  OracleScript(const OracleScript&) = delete;
  OracleScript& operator=(const OracleScript&) = delete;

  Side side;
  /// Tag of the last dispatched callback: the start index of a completed
  /// activity, or -1 - n for the n-th foreign event.
  std::int64_t fired = 0;
  /// Every activity id in start order.
  std::vector<ActivityId> started;
  /// Cancels that found a live activity.
  std::int64_t cancels_hit = 0;

 private:
  template <std::size_t N>
  double pick(const double (&values)[N]) {
    return values[static_cast<std::size_t>(rng_.uniform_int(0, std::int64_t{N} - 1))];
  }

  void start() {
    ActivitySpec spec;
    spec.work = pick(kWorks);
    spec.rate_cap = pick(kRateCaps);
    if (rng_.bernoulli(0.15)) {
      spec.rate_cap = rng_.bernoulli(0.5) ? 1.0 : 2.0;  // no demands: needs a finite cap
    } else {
      const auto uses = rng_.uniform_int(1, std::min<std::int64_t>(2, resources_));
      for (std::int64_t u = 0; u < uses; ++u) {
        const auto r = static_cast<ResourceId>(rng_.uniform_int(0, resources_ - 1));
        const bool taken = std::any_of(spec.demands.begin(), spec.demands.end(),
                                       [r](const Demand& d) { return d.resource == r; });
        if (!taken) spec.demands.push_back({r, pick(kWeights)});
      }
    }
    const auto tag = static_cast<std::int64_t>(started.size());
    started.push_back(side.start(std::move(spec), [this, tag] {
      fired = tag;
      on_completion();
    }));
  }

  // A completion callback changes the model and the queue while it is being
  // dispatched: each of a follow-up start, a zero-delay event, a cancel of
  // another activity and a second follow-up happens with some probability.
  void on_completion() {
    if (follow_ups_ > 0 && rng_.bernoulli(0.5)) {
      --follow_ups_;
      start();
    }
    if (rng_.bernoulli(0.3)) push(0.0);
    if (rng_.bernoulli(0.2)) cancel_one();
    if (follow_ups_ > 0 && rng_.bernoulli(0.2)) {
      --follow_ups_;
      start();
    }
  }

  void script_event() {
    if (--budget_ > 0) side.schedule_in(pick(kDelays), [this] { script_event(); });
    const auto actions = rng_.uniform_int(1, 3);
    for (std::int64_t a = 0; a < actions; ++a) {
      const double roll = rng_.uniform();
      if (roll < 0.45) {
        start();
      } else if (roll < 0.6) {
        cancel_one();
      } else if (roll < 0.8) {
        side.set_capacity(static_cast<ResourceId>(rng_.uniform_int(0, resources_ - 1)),
                          pick(kCapacities));
      } else {
        push(pick(kDelays));
      }
    }
  }

  void cancel_one() {
    if (started.empty()) return;
    const auto i = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(started.size()) - 1));
    if (side.cancel(started[i])) ++cancels_hit;
  }

  void push(SimTime delay) {
    const std::int64_t tag = -1 - foreign_++;
    side.schedule_in(delay, [this, tag] { fired = tag; });
  }

  util::Rng rng_;
  std::int64_t resources_ = 0;
  int budget_ = 60;
  int follow_ups_ = 80;
  std::int64_t foreign_ = 0;
};

TEST(FluidOracle, EngineFiresCompletionsAsEagerPerActivityEventsBitForBit) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    OracleScript<EngineUnderTest> real(seed);
    OracleScript<EagerReference> eager(seed);
    for (int step = 0;; ++step) {
      const bool stepped = real.side.step();
      ASSERT_EQ(stepped, eager.side.step()) << "step " << step;
      if (!stepped) break;
      ASSERT_EQ(real.fired, eager.fired) << "step " << step;
      ASSERT_EQ(bits(real.side.now()), bits(eager.side.now())) << "step " << step;
      ASSERT_EQ(real.started, eager.started) << "step " << step;
      ASSERT_EQ(real.cancels_hit, eager.cancels_hit) << "step " << step;
      for (const ActivityId id : real.started) {
        ASSERT_EQ(real.side.is_active(id), eager.side.is_active(id))
            << "step " << step << ", activity " << id;
        ASSERT_EQ(bits(real.side.rate(id)), bits(eager.side.rate(id)))
            << "step " << step << ", activity " << id;
        ASSERT_EQ(bits(real.side.remaining_work(id)), bits(eager.side.remaining_work(id)))
            << "step " << step << ", activity " << id;
      }
    }
  }
}

}  // namespace
}  // namespace elastisim::sim
