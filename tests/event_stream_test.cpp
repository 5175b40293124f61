// The batch event stream as seen by a sink that lives outside src/: a
// test-only subscriber counts events per kind over a failure + resize run,
// and its counts must equal the Recorder's per-job totals, the state
// sampler's final cumulative tallies, and the telemetry counters — the
// lifecycle tallies have one owner, and every sink reads the same stream.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>

#include "core/fault_injector.h"
#include "core/simulation.h"
#include "stats/batch_event.h"
#include "stats/state_sampler.h"
#include "stats/telemetry.h"
#include "workload/generator.h"

namespace elastisim {
namespace {

using stats::BatchEventKind;

/// Counts every event by kind, plus the granted evolving requests and the
/// lost node-seconds in event order.
class CountingSink final : public stats::BatchSubscriber {
 public:
  void on_event(const stats::BatchEvent& event) override {
    ++counts_[static_cast<std::size_t>(event.kind)];
    if (event.kind == BatchEventKind::kEvolvingRequest && event.granted) ++grants_;
    if (event.kind == BatchEventKind::kRequeue) lost_ += event.lost_node_seconds;
  }

  std::uint64_t count(BatchEventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t grants() const { return grants_; }
  double lost_node_seconds() const { return lost_; }

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(BatchEventKind::kRunEnd) + 1> counts_{};
  std::uint64_t grants_ = 0;
  double lost_ = 0.0;
};

TEST(EventStream, SinkOutsideCoreSeesTheTalliesEveryOwnerReports) {
  telemetry::set_enabled(true);
  telemetry::Registry::global().clear();

  core::SimulationConfig config;
  config.platform.topology = platform::TopologyKind::kFatTree;
  config.platform.node_count = 64;
  config.platform.cores_per_node = 48;
  config.platform.flops_per_core = 2e9;
  config.platform.pfs.read_bandwidth = 120e9;
  config.platform.pfs.write_bandwidth = 80e9;
  config.scheduler = "easy-malleable";
  config.batch.failure_policy = core::FailurePolicy::kRequeueRestart;
  config.batch.restart_overhead = 30.0;
  config.batch.scheduling_interval = 600.0;

  workload::GeneratorConfig generator;
  generator.job_count = 30;
  generator.seed = 11;
  generator.max_nodes = 32;
  generator.malleable_fraction = 0.4;
  generator.evolving_fraction = 0.3;
  generator.io_fraction = 0.5;
  generator.checkpoint_fraction = 0.6;
  generator.flops_per_node = 96e9;

  core::FaultModelConfig faults;
  faults.mtbf = 3.0 * 3600.0;
  faults.mean_repair = 1200.0;
  faults.seed = 5;
  const std::vector<core::FailureEvent> failures =
      core::FaultInjector(faults).generate(config.platform.node_count);

  CountingSink counter;
  stats::StateSampler sampler(300.0);
  config.subscribers = {&counter, &sampler};
  config.checked_sinks.sampler = &sampler;
  config.failures = &failures;
  const core::SimulationResult result =
      core::run_simulation(config, workload::generate_workload(generator));

  const stats::Recorder& recorder = result.recorder;
  ASSERT_FALSE(sampler.samples().empty());
  const stats::StateSample& last = sampler.samples().back();
  auto& registry = telemetry::Registry::global();
  const auto telemetry_count = [&registry](const char* name) {
    return registry.counter(name).value();
  };

  // The scenario exercises every tally.
  EXPECT_GT(counter.count(BatchEventKind::kExpand), 0u);
  EXPECT_GT(counter.count(BatchEventKind::kShrink), 0u);
  EXPECT_GT(counter.count(BatchEventKind::kRequeue), 0u);
  EXPECT_GT(counter.count(BatchEventKind::kRestart), 0u);
  EXPECT_GT(counter.grants(), 0u);

  EXPECT_EQ(counter.count(BatchEventKind::kExpand),
            static_cast<std::uint64_t>(recorder.total_expansions()));
  EXPECT_EQ(counter.count(BatchEventKind::kExpand), last.expansions);
  EXPECT_EQ(counter.count(BatchEventKind::kExpand), telemetry_count("batch.expansions"));

  EXPECT_EQ(counter.count(BatchEventKind::kShrink),
            static_cast<std::uint64_t>(recorder.total_shrinks()));
  EXPECT_EQ(counter.count(BatchEventKind::kShrink), last.shrinks);
  EXPECT_EQ(counter.count(BatchEventKind::kShrink), telemetry_count("batch.shrinks"));

  EXPECT_EQ(counter.count(BatchEventKind::kRequeue),
            static_cast<std::uint64_t>(recorder.total_requeues()));
  EXPECT_EQ(counter.count(BatchEventKind::kRequeue), last.requeues);
  EXPECT_EQ(counter.count(BatchEventKind::kRequeue), telemetry_count("batch.requeues"));
  EXPECT_EQ(counter.lost_node_seconds(), last.lost_node_seconds);  // same order, exact
  EXPECT_NEAR(counter.lost_node_seconds(), recorder.total_lost_node_seconds(),
              1e-9 * counter.lost_node_seconds());

  EXPECT_EQ(counter.count(BatchEventKind::kRestart), last.checkpoint_restarts);
  EXPECT_EQ(counter.count(BatchEventKind::kRestart),
            telemetry_count("batch.checkpoint_restarts"));

  std::uint64_t granted = 0;
  for (const stats::JobRecord& record : recorder.records()) granted += record.evolving_granted;
  EXPECT_EQ(counter.grants(), granted);
  EXPECT_EQ(counter.grants(), last.evolving_grants);

  EXPECT_EQ(counter.count(BatchEventKind::kStart), telemetry_count("batch.jobs_started"));
  EXPECT_EQ(counter.count(BatchEventKind::kFinish), result.finished);
  EXPECT_EQ(counter.count(BatchEventKind::kKill), result.killed);
  EXPECT_EQ(counter.count(BatchEventKind::kSchedulingEnd), result.scheduler_invocations);
  EXPECT_EQ(counter.count(BatchEventKind::kSchedulingEnd),
            telemetry_count("scheduler.invocations"));
  EXPECT_EQ(counter.count(BatchEventKind::kRunBegin), 1u);
  EXPECT_EQ(counter.count(BatchEventKind::kRunEnd), 1u);

  telemetry::Registry::global().clear();
  telemetry::set_enabled(false);
}

}  // namespace
}  // namespace elastisim
