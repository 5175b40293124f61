// R10 (extension) — resilience under node failures: the same workload
// exposed to an increasing node-failure rate, under both failure policies
// (kill vs requeue) and under rigid vs malleable scheduling. Expected shape:
// requeueing converts job losses into extra waiting; makespan overhead grows
// with the failure rate; the malleable scheduler absorbs lost capacity more
// gracefully because survivors shrink/expand around the holes.
#include "bench_common.h"

#include "core/batch_system.h"
#include "core/fault_injector.h"

using namespace elastisim;

namespace {

struct Outcome {
  double makespan;
  double mean_wait;
  std::size_t killed;
  std::size_t requeues;
  std::size_t unfinished;
};

Outcome run_with_failures(const std::string& scheduler, core::FailurePolicy policy,
                          double failures_per_hour, double malleable_fraction) {
  const auto platform = bench::reference_platform();
  auto generator = bench::reference_workload(malleable_fraction);
  auto jobs = workload::generate_workload(generator);

  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster(engine, platform);
  core::BatchConfig batch_config;
  batch_config.failure_policy = policy;
  core::BatchSystem batch(engine, cluster, core::make_scheduler(scheduler), recorder,
                          batch_config);
  const bench::BatchTelemetry batch_telemetry(batch);
  batch.submit_all(std::move(jobs));

  // Exponential failures over the expected horizon; each node returns to
  // service after a 30-minute repair. The cluster-wide rate maps onto the
  // injector's per-node MTBF (superposed renewal processes).
  if (failures_per_hour > 0.0) {
    core::FaultModelConfig fault;
    fault.mtbf = static_cast<double>(platform.node_count) * 3600.0 / failures_per_hour;
    fault.mean_repair = 1800.0;
    fault.horizon = 30000.0;
    fault.seed = 2026;
    core::FaultInjector injector(fault);
    core::FaultInjector::apply(batch, injector.generate(platform.node_count));
  }
  engine.run();
  return Outcome{recorder.makespan(), recorder.mean_wait(), batch.killed_jobs(),
                 batch.requeued_jobs(), batch.queued_jobs() + batch.running_jobs()};
}

}  // namespace

int main() {
  bench::TelemetryScope telemetry("bench_r10_failures");
  bench::table_header(
      "R10 resilience under node failures (128 nodes, 200 jobs, 30 min repair)",
      "failures_per_hour,scheduler,policy,makespan_s,mean_wait_s,killed,requeues,unfinished");
  for (const double rate : {0.0, 1.0, 4.0, 16.0}) {
    for (const char* scheduler : {"easy", "easy-malleable"}) {
      for (const auto policy : {core::FailurePolicy::kKill, core::FailurePolicy::kRequeue}) {
        const auto outcome =
            run_with_failures(scheduler, policy, rate, /*malleable_fraction=*/0.5);
        std::printf("%.0f,%s,%s,%.0f,%.1f,%zu,%zu,%zu\n", rate, scheduler,
                    core::to_string(policy).c_str(), outcome.makespan, outcome.mean_wait,
                    outcome.killed, outcome.requeues, outcome.unfinished);
      }
    }
  }
  return 0;
}
