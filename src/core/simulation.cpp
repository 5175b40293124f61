#include "core/simulation.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "core/fault_injector.h"
#include "core/flight_recorder.h"
#include "core/invariant_checker.h"
#include "sim/cancellation.h"
#include "stats/profiler.h"
#include "stats/telemetry_sink.h"
#include "util/fmt.h"

namespace elastisim::core {

namespace {

bool validate_env_enabled() {
  const char* env = std::getenv("ELSIM_VALIDATE");
  return env != nullptr && *env != '\0' && std::string_view(env) != "0";
}

SimulationResult run_impl(const platform::ClusterConfig& platform,
                          std::vector<workload::Job> jobs, const RunConfig& config) {
  auto scheduler = make_scheduler(config.scheduler);
  if (!scheduler) {
    throw std::runtime_error(util::fmt("unknown scheduler \"{}\"", config.scheduler));
  }

  SimulationResult result;
  sim::Engine engine;
  platform::Cluster cluster(engine, platform);
  BatchSystem batch(engine, cluster, std::move(scheduler), result.recorder, config.batch);
  for (stats::BatchSubscriber* subscriber : config.subscribers) batch.subscribe(subscriber);
  std::optional<stats::TelemetrySink> telemetry_sink;
  if (telemetry::enabled()) batch.subscribe(&telemetry_sink.emplace());
  if (config.cancel) engine.set_cancellation(config.cancel);
  if (config.failures) FaultInjector::apply(batch, *config.failures);

  // Always-on black box: this thread's flight recorder, which taps the
  // thread's profiler phases, rides the engine's per-event hook and the
  // batch event stream. Purely observational — nothing feeds back into the
  // simulation, so determinism is untouched.
  if (FlightRecorder::enabled()) {
    FlightRecorder& flight = FlightRecorder::thread_current();
    batch.set_flight_recorder(&flight);
    flight.set_context("scheduler", config.scheduler);
  }
  // Last subscriber, so it cross-checks what the sinks wrote at each point.
  std::optional<InvariantChecker> checker;
  if (config.validate || validate_env_enabled()) {
    checker.emplace(config.checked_sinks).attach(engine, batch);
  }

  result.submitted = batch.submit_all(std::move(jobs));
  batch.begin_run();
  const auto wall_begin = std::chrono::steady_clock::now();
  engine.run();
  const auto wall_end = std::chrono::steady_clock::now();
  batch.end_run();

  result.cancelled = engine.cancel_requested();
  result.finished = batch.finished_jobs();
  result.killed = batch.killed_jobs();
  result.stuck = batch.queued_jobs() + batch.running_jobs();
  result.stuck_ids = batch.unfinished_job_ids();
  result.makespan = result.recorder.makespan();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_begin).count();
  result.events_processed = engine.events_processed();
  result.rebalances = engine.fluid().rebalance_count();
  result.queue_pushes = engine.queue().pushes();
  result.queue_pops = engine.queue().pops();
  result.queue_peak = engine.queue().peak_size();
  result.activities_touched = engine.fluid().activities_touched();
  result.demands_examined = engine.fluid().demands_examined();
  result.activities_started = engine.fluid().activities_started();
  result.scheduler_invocations = batch.scheduler_invocations();
  result.scheduler_rounds = batch.scheduler_rounds();
  result.scheduler_jobs_scanned = batch.scheduler_jobs_scanned();
  result.peak_rss_bytes = stats::profiler::peak_rss_bytes();
  if (checker) {
    result.validated_points = checker->scheduling_point_checks();
    result.validated_events = checker->events_checked();
  }
  return result;
}

}  // namespace

std::optional<SettingError> validate(const BatchConfig& config) {
  const auto at_least_zero = [](double value) { return std::isfinite(value) && value >= 0.0; };
  const char* duration = "a finite, non-negative duration";
  if (!at_least_zero(config.scheduling_interval)) {
    return SettingError{"interval", "interval", duration};
  }
  if (!at_least_zero(config.restart_overhead)) {
    return SettingError{"restart_overhead", "restart-overhead", duration};
  }
  return std::nullopt;
}

SimulationResult run_simulation(const SimulationConfig& config,
                                std::vector<workload::Job> jobs) {
  return run_impl(config.platform, std::move(jobs), config);
}

SimulationResult run_scenario(const platform::ClusterConfig& platform,
                              const std::vector<workload::Job>& jobs,
                              const RunConfig& run) {
  return run_impl(platform, jobs, run);
}

void record_profile_counters(const SimulationResult& result, const std::string& scheduler) {
  if (!stats::profiler::enabled()) return;
  auto& profiler = stats::profiler::Profiler::global();
  profiler.set_counter("engine.events", result.events_processed);
  profiler.set_counter("queue.pushes", result.queue_pushes);
  profiler.set_counter("queue.pops", result.queue_pops);
  profiler.set_counter("queue.peak", result.queue_peak);
  profiler.set_counter("fluid.solves", result.rebalances);
  profiler.set_counter("fluid.activities_touched", result.activities_touched);
  profiler.set_counter("fluid.demands_examined", result.demands_examined);
  profiler.set_counter("fluid.activities_started", result.activities_started);
  profiler.set_counter("scheduler." + scheduler + ".invocations",
                       result.scheduler_invocations);
  profiler.set_counter("scheduler." + scheduler + ".rounds", result.scheduler_rounds);
  profiler.set_counter("scheduler." + scheduler + ".jobs_scanned",
                       result.scheduler_jobs_scanned);
}

}  // namespace elastisim::core
