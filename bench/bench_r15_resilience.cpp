// R15 (extension) — checkpoint/restart economics: the reference workload with
// every job checkpointing, swept over checkpoint interval x per-node MTBF x
// failure policy. Expected shape: plain requeue discards whole attempts, so
// its lost node-seconds grow with job length and failure rate regardless of
// the checkpoint interval; requeue-restart bounds the loss to the tail behind
// the last checkpoint, so denser checkpoints trade checkpoint-write overhead
// against less redone work — with the sweet spot near the Young/Daly
// interval. Weibull wear-out (shape 1.5) shifts failures later but keeps the
// ordering.
#include "bench_common.h"

#include "core/batch_system.h"
#include "core/fault_injector.h"
#include "stats/metrics.h"

using namespace elastisim;

namespace {

struct Outcome {
  double makespan;
  int requeues;
  double lost_node_seconds;
  double redone_seconds;
  std::size_t killed;
  std::size_t unfinished;
};

Outcome run_case(core::FailurePolicy policy, int checkpoint_every, double mtbf_hours,
                 core::FailureDistribution dist) {
  const auto platform = bench::reference_platform();
  auto generator = bench::reference_workload(/*malleable_fraction=*/0.5);
  generator.checkpoint_fraction = 1.0;
  generator.checkpoint_bytes = 16.0 * 1024 * 1024 * 1024;
  generator.checkpoint_every = checkpoint_every;
  auto jobs = workload::generate_workload(generator);

  sim::Engine engine;
  stats::Recorder recorder;
  platform::Cluster cluster(engine, platform);
  core::BatchConfig batch_config;
  batch_config.failure_policy = policy;
  batch_config.restart_overhead = 30.0;
  core::BatchSystem batch(engine, cluster, core::make_scheduler("easy-malleable"), recorder,
                          batch_config);
  const bench::BatchTelemetry batch_telemetry(batch);
  batch.submit_all(std::move(jobs));

  core::FaultModelConfig fault;
  fault.mtbf = mtbf_hours * 3600.0;
  fault.failure_distribution = dist;
  fault.weibull_shape = dist == core::FailureDistribution::kWeibull ? 1.5 : 1.0;
  fault.mean_repair = 1800.0;
  fault.horizon = 30000.0;
  fault.seed = 2026;
  core::FaultInjector injector(fault);
  core::FaultInjector::apply(batch, injector.generate(platform.node_count));

  engine.run();
  return Outcome{recorder.makespan(),
                 recorder.total_requeues(),
                 recorder.total_lost_node_seconds(),
                 recorder.total_redone_seconds(),
                 batch.killed_jobs(),
                 batch.queued_jobs() + batch.running_jobs()};
}

}  // namespace

int main() {
  bench::TelemetryScope telemetry("bench_r15_resilience");
  bench::table_header(
      "R15 checkpoint/restart economics (128 nodes, 200 jobs, 30 min repair, 30 s restart)",
      "dist,mtbf_h,ckpt_every,policy,makespan_s,requeues,lost_node_s,redone_s,killed,"
      "unfinished");
  const core::FailurePolicy policies[] = {core::FailurePolicy::kRequeue,
                                          core::FailurePolicy::kRequeueRestart};
  const core::FailureDistribution dists[] = {core::FailureDistribution::kExponential,
                                             core::FailureDistribution::kWeibull};
  for (const auto dist : dists) {
    for (const double mtbf_hours : {24.0, 96.0}) {
      for (const int every : {1, 4, 16}) {
        for (const auto policy : policies) {
          const auto outcome = run_case(policy, every, mtbf_hours, dist);
          std::printf("%s,%.0f,%d,%s,%.0f,%d,%.0f,%.0f,%zu,%zu\n",
                      core::to_string(dist).c_str(), mtbf_hours, every,
                      core::to_string(policy).c_str(), outcome.makespan, outcome.requeues,
                      outcome.lost_node_seconds, outcome.redone_seconds, outcome.killed,
                      outcome.unfinished);
        }
      }
    }
  }
  return 0;
}
