// Tests of the fluid (bounded max-min fairness) resource model, including
// parameterized property sweeps of the progressive-filling solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "sim/fluid.h"
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

// Progressive filling as a scan over every resource per filling round, with
// per-resource consumption recomputed from scratch: the solve FluidModel ran
// before it walked only the demanded resources. The operations and their
// order are the same, so the model must match it bit for bit.
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
    // into later 64-bit words of the model's demanded-resource set.
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

}  // namespace
}  // namespace elastisim::sim
