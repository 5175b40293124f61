// R14 (extension) — rolling maintenance window: a quarter of the machine is
// drained (gracefully, job-preserving) for a two-hour window in the middle
// of the campaign. Expected shape: under a rigid-only policy the capacity
// dip inflates waits for the whole window; a malleable-aware policy shrinks
// running jobs to absorb the dip and re-expands afterwards, recovering most
// of the makespan and much of the wait inflation.
#include "bench_common.h"

#include "core/batch_system.h"

using namespace elastisim;

int main() {
  bench::TelemetryScope telemetry("bench_r14_maintenance");
  const auto platform = bench::reference_platform();
  const auto generator = bench::reference_workload(/*malleable_fraction=*/0.5);

  bench::table_header(
      "R14 rolling maintenance (32/128 nodes drained t=7200..14400s, 50% malleable)",
      "scenario,scheduler,makespan_s,mean_wait_s,p90_wait_s,avg_utilization");
  for (const bool maintenance : {false, true}) {
    for (const char* scheduler : {"easy", "easy-malleable"}) {
      sim::Engine engine;
      stats::Recorder recorder;
      platform::Cluster cluster(engine, platform);
      core::BatchSystem batch(engine, cluster, core::make_scheduler(scheduler), recorder);
      const bench::BatchTelemetry batch_telemetry(batch);
      batch.submit_all(workload::generate_workload(generator));
      if (maintenance) {
        for (platform::NodeId node = 0; node < 32; ++node) {
          batch.drain_node(node, 7200.0, 14400.0);
        }
      }
      engine.run();
      std::printf("%s,%s,%.0f,%.1f,%.1f,%.4f\n",
                  maintenance ? "maintenance" : "baseline", scheduler, recorder.makespan(),
                  recorder.mean_wait(), recorder.wait_percentile(0.9),
                  recorder.average_utilization());
    }
  }
  return 0;
}
