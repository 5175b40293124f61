// R8 — Simulator performance (google-benchmark): wall-clock cost of a full
// simulation as a function of job count and cluster size, plus kernel
// microbenchmarks (event queue, fluid rebalance). Expected shape: near-linear
// in the number of jobs (events scale with jobs x phases), weak dependence on
// node count at fixed job count.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "sim/engine.h"

using namespace elastisim;

namespace {

void BM_FullSimulationJobs(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  const auto platform = bench::reference_platform(128);
  auto generator = bench::reference_workload(0.5, jobs);
  const auto workload_jobs = workload::generate_workload(generator);
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto result = bench::run(platform, "easy-malleable", workload_jobs);
    events = result.events_processed;
    benchmark::DoNotOptimize(result.makespan);
  }
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["events"] = static_cast<double>(events);
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(events), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_FullSimulationJobs)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

void BM_FullSimulationNodes(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto platform = bench::reference_platform(nodes);
  auto generator = bench::reference_workload(0.5, 200);
  generator.max_nodes = static_cast<int>(nodes) / 2;
  const auto workload_jobs = workload::generate_workload(generator);
  for (auto _ : state) {
    auto result = bench::run(platform, "easy-malleable", workload_jobs);
    benchmark::DoNotOptimize(result.makespan);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_FullSimulationNodes)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SchedulerAlgorithms(benchmark::State& state) {
  static const std::vector<std::string> names = core::scheduler_names();
  const std::string& scheduler = names[static_cast<std::size_t>(state.range(0))];
  const auto platform = bench::reference_platform(128);
  const auto workload_jobs =
      workload::generate_workload(bench::reference_workload(0.5, 200));
  for (auto _ : state) {
    auto result = bench::run(platform, scheduler, workload_jobs);
    benchmark::DoNotOptimize(result.makespan);
  }
  state.SetLabel(scheduler);
}
BENCHMARK(BM_SchedulerAlgorithms)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

void BM_EventQueueChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.push(static_cast<double>((i * 7919) % n), [] {});
    }
    while (!queue.empty()) queue.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_EventQueueChurn)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FluidRebalance(benchmark::State& state) {
  // Cost of one add/remove cycle with `n` concurrent multi-resource
  // activities: the dominant kernel operation during busy simulations.
  // cancel() and start() only mark a solve pending, and nothing outside the
  // event loop would run it, so each iteration reads one rate: that read
  // runs one solve for the pair (the solve-per-change model ran two).
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Engine engine;
  std::vector<sim::ResourceId> resources;
  for (int r = 0; r < 64; ++r) {
    resources.push_back(engine.fluid().add_resource("r", 100.0));
  }
  std::vector<sim::ActivityId> active;
  for (std::size_t i = 0; i < n; ++i) {
    active.push_back(engine.fluid().start(
        {1e18,
         {{resources[i % resources.size()], 1.0},
          {resources[(i * 17 + 5) % resources.size()], 1.0}},
         sim::kTimeInfinity,
         "load"},
        [] {}));
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    engine.fluid().cancel(active[cursor]);
    active[cursor] = engine.fluid().start(
        {1e18, {{resources[cursor % resources.size()], 1.0}}, sim::kTimeInfinity, "swap"},
        [] {});
    benchmark::DoNotOptimize(engine.fluid().rate(active[cursor]));
    cursor = (cursor + 1) % active.size();
  }
  state.SetLabel(std::to_string(n) + " active");
}
BENCHMARK(BM_FluidRebalance)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

// Expanded BENCHMARK_MAIN() so the telemetry scope brackets the whole run:
// ELSIM_BENCH_TELEMETRY=<dir> additionally writes
// <dir>/bench_r8_sim_performance.telemetry.json with per-run phase
// histograms next to google-benchmark's own output.
int main(int argc, char** argv) {
  bench::TelemetryScope telemetry("bench_r8_sim_performance");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
