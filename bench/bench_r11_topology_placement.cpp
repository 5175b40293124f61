// R11 (extension) — topology x placement ablation: a communication-heavy
// workload on all four interconnects under the three placement policies.
// Expected shape: on pod-structured topologies (fat-tree, dragonfly) with
// constrained uplinks, compact placement beats lowest-id beats spread; on a
// star network placement is irrelevant; the torus sits between (ring links
// penalize spreading).
#include "bench_common.h"

#include "core/batch_system.h"

using namespace elastisim;

int main() {
  bench::TelemetryScope telemetry("bench_r11_topology_placement");
  auto generator = bench::reference_workload(/*malleable_fraction=*/0.0, /*jobs=*/150);
  // Heavier, latency-tolerant exchanges so the interconnect matters.
  generator.comm_bytes = 4.0 * 1024 * 1024 * 1024;
  generator.mean_iteration_compute = 10.0;

  bench::table_header("R11 topology x placement (150 rigid jobs, comm-heavy, easy)",
                      "topology,placement,makespan_s,mean_turnaround_s,avg_utilization");
  for (const auto topology :
       {platform::TopologyKind::kStar, platform::TopologyKind::kFatTree,
        platform::TopologyKind::kDragonfly, platform::TopologyKind::kTorus}) {
    for (const auto& [placement, placement_name] :
         {std::pair{core::PlacementPolicy::kLowestId, "lowest-id"},
          std::pair{core::PlacementPolicy::kCompact, "compact"},
          std::pair{core::PlacementPolicy::kSpread, "spread"}}) {
      auto platform = bench::reference_platform();
      platform.topology = topology;
      platform.pod_bandwidth = 12.5e9;  // tight uplinks: one node can saturate them
      core::BatchConfig batch;
      batch.placement = placement;
      auto result =
          bench::run(platform, "easy", workload::generate_workload(generator), batch);
      std::printf("%s,%s,%.0f,%.1f,%.4f\n", platform::to_string(topology).c_str(),
                  placement_name, result.makespan, result.recorder.mean_turnaround(),
                  result.recorder.average_utilization());
    }
  }
  return 0;
}
