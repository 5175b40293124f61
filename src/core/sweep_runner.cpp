#include "core/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/flight_recorder.h"
#include "core/scheduler.h"
#include "json/reader.h"
#include "platform/loader.h"
#include "stats/profiler.h"
#include "stats/sweep_aggregate.h"
#include "util/fmt.h"
#include "util/load_error.h"
#include "util/units.h"
#include "workload/workload_io.h"

namespace elastisim::core {

namespace {

using util::LoadError;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Reads a required, non-empty array of strings.
std::vector<std::string> string_list(json::Reader& in, std::string_view key) {
  std::vector<std::string> out;
  for (const json::Element& entry : in.array(key, "a non-empty array of strings", true)) {
    if (!entry.value.is_string()) {
      throw LoadError("", entry.path, "a string", json::describe(entry.value));
    }
    out.push_back(entry.value.as_string());
  }
  if (out.empty()) in.fail(key, "a non-empty array of strings");
  return out;
}

/// A non-negative duration member: seconds, or a unit string ("30s", "2h").
double duration(json::Reader& in, std::string_view key, double fallback) {
  return in.quantity(key, fallback, util::parse_duration, json::Min::kZero);
}

SweepRetryPolicy parse_retry(json::Reader& in) {
  SweepRetryPolicy retry;
  retry.max_attempts = in.integer<int>("max_attempts", 1, 1);
  retry.backoff_s = duration(in, "backoff", retry.backoff_s);
  retry.retry_crashed = in.boolean("crashed", retry.retry_crashed);
  retry.retry_stalled = in.boolean("stalled", retry.retry_stalled);
  retry.retry_timeout = in.boolean("timeout", retry.retry_timeout);
  in.finish();
  return retry;
}

BatchConfig parse_batch(json::Reader& in) {
  BatchConfig batch;
  batch.scheduling_interval = duration(in, "interval", 0.0);
  batch.charge_reconfiguration = in.boolean("reconfig_cost", true);
  batch.failure_policy = in.choice("failure_policy", FailurePolicy::kRequeue,
                                   failure_policy_from_string,
                                   "one of kill|requeue|requeue-restart");
  batch.restart_overhead = duration(in, "restart_overhead", 0.0);
  batch.max_requeues = in.integer<int>("max_requeues", 0, 0);
  in.finish();
  if (const auto error = validate(batch)) in.fail(error->member, error->expected);
  return batch;
}

FaultModelConfig parse_faults(json::Reader& in) {
  FaultModelConfig fault;
  fault.mtbf = in.quantity("mtbf", std::nullopt, util::parse_duration, json::Min::kAboveZero);
  fault.failure_distribution =
      in.choice("failure_dist", FailureDistribution::kExponential,
                failure_distribution_from_string, "one of exponential|weibull");
  fault.weibull_shape = in.number("weibull_shape", fault.weibull_shape);
  fault.mean_repair = duration(in, "repair", fault.mean_repair);
  fault.repair_distribution =
      in.choice("repair_dist", RepairDistribution::kConstant,
                repair_distribution_from_string, "one of constant|lognormal");
  fault.repair_sigma = in.number("repair_sigma", fault.repair_sigma);
  fault.pod_correlation = in.number("pod_correlation", 0.0);
  fault.horizon = duration(in, "horizon", 0.0);
  in.finish();
  if (const auto error = validate(fault)) in.fail(error->member, error->expected);
  // fault.seed is irrelevant here: each cell overrides it with the cell seed.
  return fault;
}

/// "cells/NNN": a cell's artifact directory, relative to the sweep output.
std::string cell_dir(std::size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "cells/%03zu", index);
  return name;
}

CellMetrics metrics_from(const SimulationResult& result) {
  CellMetrics metrics;
  metrics.submitted = result.submitted;
  metrics.finished = result.finished;
  metrics.killed = result.killed;
  metrics.stuck = result.stuck;
  metrics.makespan = result.makespan;
  metrics.mean_wait = result.recorder.mean_wait();
  metrics.max_wait = result.recorder.max_wait();
  metrics.mean_turnaround = result.recorder.mean_turnaround();
  metrics.mean_bounded_slowdown = result.recorder.mean_bounded_slowdown();
  metrics.avg_utilization = result.recorder.average_utilization();
  metrics.requeues = static_cast<std::size_t>(result.recorder.total_requeues());
  metrics.lost_node_seconds = result.recorder.total_lost_node_seconds();
  metrics.events_processed = result.events_processed;
  for (const stats::JobRecord& record : result.recorder.records()) {
    if (!record.completed()) continue;
    metrics.job_waits.push_back(record.wait_time());
    metrics.job_slowdowns.push_back(record.bounded_slowdown());
  }
  return metrics;
}

json::Value metrics_to_json(const CellMetrics& metrics) {
  json::Object out;
  out["submitted"] = metrics.submitted;
  out["finished"] = metrics.finished;
  out["killed"] = metrics.killed;
  out["stuck"] = metrics.stuck;
  out["makespan_s"] = metrics.makespan;
  out["mean_wait_s"] = metrics.mean_wait;
  out["max_wait_s"] = metrics.max_wait;
  out["mean_turnaround_s"] = metrics.mean_turnaround;
  out["mean_bounded_slowdown"] = metrics.mean_bounded_slowdown;
  out["avg_utilization"] = metrics.avg_utilization;
  out["requeues"] = metrics.requeues;
  out["lost_node_seconds"] = metrics.lost_node_seconds;
  out["events_processed"] = metrics.events_processed;
  return json::Value(std::move(out));
}

CellStatus status_for_cancel(sim::CancelReason reason) {
  switch (reason) {
    case sim::CancelReason::kTimeout:
      return CellStatus::kTimeout;
    case sim::CancelReason::kStalled:
      return CellStatus::kStalled;
    case sim::CancelReason::kInterrupted:
      return CellStatus::kSkipped;
    case sim::CancelReason::kNone:
      return CellStatus::kOk;
  }
  return CellStatus::kCrashed;
}

}  // namespace

std::string to_string(CellStatus status) {
  switch (status) {
    case CellStatus::kOk:
      return "ok";
    case CellStatus::kRetried:
      return "retried";
    case CellStatus::kTimeout:
      return "timeout";
    case CellStatus::kStalled:
      return "stalled";
    case CellStatus::kCrashed:
      return "crashed";
    case CellStatus::kSkipped:
      return "skipped";
  }
  return "unknown";
}

SweepSpec parse_sweep_spec(const json::Value& value) {
  json::Reader in(value, "$", "a sweep object");
  SweepSpec spec;
  spec.platforms = string_list(in, "platforms");
  spec.workloads = string_list(in, "workloads");
  const std::vector<std::string> known = scheduler_names();
  for (const json::Element& entry : in.array("schedulers", "an array of strings", false)) {
    if (!entry.value.is_string() ||
        std::find(known.begin(), known.end(), entry.value.as_string()) == known.end()) {
      throw LoadError("", entry.path, "a known scheduler name", json::describe(entry.value));
    }
    spec.schedulers.push_back(entry.value.as_string());
  }
  if (spec.schedulers.empty()) spec.schedulers = {"easy-malleable"};
  for (const json::Element& seed : in.array("seeds", "an array of non-negative integers", false)) {
    spec.seeds.push_back(static_cast<std::uint64_t>(
        json::read_integer(seed.value, seed.path, 0, json::kMaxSafeInteger)));
  }
  if (spec.seeds.empty()) spec.seeds = {1};
  spec.timeout_s = duration(in, "timeout", 0.0);
  spec.stall_timeout_s = duration(in, "stall_timeout", 0.0);
  if (auto retry = in.find("retry")) spec.retry = parse_retry(*retry);
  if (auto batch = in.find("batch")) spec.batch = parse_batch(*batch);
  if (auto faults = in.find("faults")) spec.faults = parse_faults(*faults);
  in.finish();
  return spec;
}

SweepSpec load_sweep_spec(const std::string& path) {
  return json::load_file(path, parse_sweep_spec);
}

std::size_t SweepResult::count(CellStatus status) const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [status](const CellOutcome& outcome) { return outcome.status == status; }));
}

std::size_t SweepResult::succeeded() const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const CellOutcome& outcome) { return outcome.succeeded(); }));
}

bool SweepResult::partial() const {
  return interrupted || succeeded() != outcomes.size();
}

/// Per-worker coordination block: the watchdog reads the active attempt's
/// token and progress through this under the slot mutex.
struct SweepRunner::Slot {
  std::mutex mutex;
  std::shared_ptr<sim::CancellationToken> token;
  Clock::time_point attempt_start{};
  std::uint64_t last_events = 0;
  Clock::time_point last_progress{};
  bool active = false;
};

SweepRunner::SweepRunner(SweepSpec spec, SweepOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  // Grid order (platforms, workloads, schedulers, seeds) fixes each cell's
  // index; reports and cell artifacts key off it, so it must not depend on
  // scheduling or thread count.
  for (std::size_t p = 0; p < spec_.platforms.size(); ++p) {
    for (std::size_t w = 0; w < spec_.workloads.size(); ++w) {
      for (const std::string& scheduler : spec_.schedulers) {
        for (std::uint64_t seed : spec_.seeds) {
          SweepCell cell;
          cell.index = cells_.size();
          cell.platform_index = p;
          cell.workload_index = w;
          cell.scheduler = scheduler;
          cell.seed = seed;
          cells_.push_back(std::move(cell));
        }
      }
    }
  }
}

SweepRunner::~SweepRunner() = default;

void SweepRunner::load_inputs() {
  if (inputs_loaded_) return;
  for (const std::string& path : spec_.platforms) {
    platform_snapshots_.push_back(std::make_shared<const platform::ClusterConfig>(
        platform::load_cluster_config(path)));
  }
  for (const std::string& path : spec_.workloads) {
    workload_snapshots_.push_back(std::make_shared<const std::vector<workload::Job>>(
        workload::load_workload(path)));
  }
  inputs_loaded_ = true;
}

SimulationResult SweepRunner::run_cell(const SweepCell& cell,
                                       sim::CancellationToken& token) const {
  if (!inputs_loaded_) {
    throw std::logic_error("SweepRunner::run_cell requires load_inputs()");
  }
  const platform::ClusterConfig& platform = *platform_snapshots_[cell.platform_index];
  const std::vector<workload::Job>& jobs = *workload_snapshots_[cell.workload_index];
  RunConfig run;
  run.batch = spec_.batch;
  run.scheduler = cell.scheduler;
  run.cancel = &token;
  std::vector<FailureEvent> failures;
  if (spec_.faults) {
    FaultModelConfig fault = *spec_.faults;
    fault.horizon = failure_horizon(fault, jobs);
    fault.seed = cell.seed;
    failures = FaultInjector(fault).generate(platform.node_count, platform.pod_size);
    run.failures = &failures;
  }
  return run_scenario(platform, jobs, run);
}

void SweepRunner::write_cell_outputs(const SweepCell& cell, const SimulationResult& result,
                                     const CellMetrics& metrics) const {
  const std::filesystem::path dir =
      std::filesystem::path(options_.cell_output_dir) / cell_dir(cell.index);
  std::filesystem::create_directories(dir);
  std::ofstream jobs_csv(dir / "jobs.csv");
  result.recorder.write_jobs_csv(jobs_csv);
  json::Object out;
  out["platform"] = spec_.platforms[cell.platform_index];
  out["workload"] = spec_.workloads[cell.workload_index];
  out["scheduler"] = cell.scheduler;
  out["seed"] = cell.seed;
  out["metrics"] = metrics_to_json(metrics);
  json::write_file((dir / "metrics.json").string(), json::Value(std::move(out)));
}

void SweepRunner::write_cell_postmortem(const SweepCell& cell, CellOutcome& outcome,
                                        const sim::CancellationToken* token) const {
  if (options_.cell_output_dir.empty() || !FlightRecorder::enabled()) return;
  if (outcome.status != CellStatus::kCrashed && outcome.status != CellStatus::kStalled &&
      outcome.status != CellStatus::kTimeout) {
    return;
  }
  FlightRecorder& recorder = FlightRecorder::thread_current();
  // An injected/stalled body may never have observed the cancellation itself;
  // stamp the token's verdict onto the ring so the dump names the reason.
  if (token != nullptr && token->cancelled()) {
    recorder.note_cancel(token->sim_time(), static_cast<int>(token->reason()),
                         token->events());
  }
  const std::string postmortem = cell_dir(cell.index) + "/postmortem.json";
  const std::filesystem::path path = std::filesystem::path(options_.cell_output_dir) / postmortem;
  try {
    recorder.write_postmortem(path.string(), to_string(outcome.status), outcome.error);
  } catch (const std::exception&) {
    return;  // diagnostics must never fail the sweep
  }
  outcome.postmortem = postmortem;
}

CellOutcome SweepRunner::run_one(const SweepCell& cell, Slot& slot) {
  CellOutcome outcome;
  const Clock::time_point cell_begin = Clock::now();
  int attempt = 0;
  std::shared_ptr<sim::CancellationToken> last_token;
  while (true) {
    ++attempt;
    auto token = std::make_shared<sim::CancellationToken>();
    last_token = token;
    if (FlightRecorder::enabled()) {
      // Fresh black box per attempt: the ring then covers exactly the dying
      // attempt, and the context names the cell it belonged to. The
      // recorder taps this worker's profiler phases, so a body that dies
      // inside a phase scope (e.g. an injected crash) leaves the dying phase
      // on the ring.
      FlightRecorder& recorder = FlightRecorder::thread_current();
      recorder.reset();
      recorder.set_context("cell", std::to_string(cell.index));
      recorder.set_context("platform", spec_.platforms[cell.platform_index]);
      recorder.set_context("workload", spec_.workloads[cell.workload_index]);
      recorder.set_context("scheduler", cell.scheduler);
      recorder.set_context("seed", std::to_string(cell.seed));
      recorder.set_context("attempt", std::to_string(attempt));
    }
    {
      const std::lock_guard<std::mutex> lock(slot.mutex);
      slot.token = token;
      slot.attempt_start = Clock::now();
      slot.last_events = 0;
      slot.last_progress = slot.attempt_start;
      slot.active = true;
    }

    CellStatus status = CellStatus::kCrashed;
    std::string error;
    bool have_result = false;
    SimulationResult result;
    try {
      result = body_(cell, *token);
      have_result = true;
      status = token->cancelled() ? status_for_cancel(token->reason()) : CellStatus::kOk;
    } catch (const std::exception& exception) {
      error = exception.what();
    } catch (...) {
      error = "unknown exception";
    }

    {
      const std::lock_guard<std::mutex> lock(slot.mutex);
      slot.active = false;
      slot.token.reset();
    }

    if (status == CellStatus::kOk && have_result) {
      outcome.status = attempt > 1 ? CellStatus::kRetried : CellStatus::kOk;
      outcome.has_metrics = true;
      outcome.metrics = metrics_from(result);
      if (!options_.cell_output_dir.empty()) {
        write_cell_outputs(cell, result, outcome.metrics);
      }
      break;
    }

    if (status == CellStatus::kSkipped) {
      // Interrupted mid-run: the partial result is discarded, the cell is
      // reported skipped so a resumed sweep knows to redo it.
      outcome.status = CellStatus::kSkipped;
      outcome.error = "interrupted";
      break;
    }

    if (error.empty()) {
      error = util::fmt("cancelled: {}", sim::to_string(token->reason()));
    }
    outcome.error = error;
    if (attempt >= spec_.retry.max_attempts || !spec_.retry.retries(status) ||
        interrupt_requested()) {
      outcome.status = status;
      break;
    }

    // Exponential backoff before the retry, sleeping in small increments so
    // an interrupt cuts the wait short.
    const double backoff_s =
        spec_.retry.backoff_s * std::pow(2.0, static_cast<double>(attempt - 1));
    const Clock::time_point backoff_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(backoff_s));
    while (Clock::now() < backoff_end && !interrupt_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (interrupt_requested()) {
      outcome.status = status;
      break;
    }
  }
  outcome.attempts = attempt;
  outcome.duration_s = seconds_since(cell_begin);
  write_cell_postmortem(cell, outcome, last_token.get());
  return outcome;
}

void SweepRunner::worker(Slot& slot) {
  while (true) {
    const std::size_t index = next_cell_.fetch_add(1, std::memory_order_relaxed);
    if (index >= cells_.size()) return;
    if (interrupted_.load(std::memory_order_relaxed)) {
      // Leave the default outcome (skipped, 0 attempts) in place.
      cells_done_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    outcomes_[index] = run_one(cells_[index], slot);
    cells_done_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SweepRunner::watchdog() {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::max(options_.watchdog_period_s, 0.001)));
  std::size_t heartbeat_done = 0;
  Clock::time_point heartbeat_last = run_begin_;
  while (!stop_watchdog_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(period);
    if (options_.progress) {
      const Clock::time_point tick = Clock::now();
      const std::size_t done = cells_done_.load(std::memory_order_relaxed);
      const double since_last =
          std::chrono::duration<double>(tick - heartbeat_last).count();
      // Heartbeat when progress was made (rate-limited) or as a keep-alive
      // every ~10s while long cells run.
      if ((done != heartbeat_done && since_last >= options_.progress_period_s) ||
          since_last >= 10.0) {
        const double elapsed = std::chrono::duration<double>(tick - run_begin_).count();
        const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
        const double eta =
            rate > 0.0 ? static_cast<double>(cells_.size() - done) / rate : 0.0;
        std::fprintf(stderr, "progress: %zu/%zu cells, %.2f cells/s, eta %.0fs\n", done,
                     cells_.size(), rate, eta);
        heartbeat_done = done;
        heartbeat_last = tick;
      }
    }
    const bool interrupt = interrupt_requested();
    if (interrupt) interrupted_.store(true, std::memory_order_relaxed);
    const Clock::time_point now = Clock::now();
    for (std::size_t i = 0; i < slot_count_; ++i) {
      Slot& slot = slots_[i];
      const std::lock_guard<std::mutex> lock(slot.mutex);
      if (!slot.active || slot.token == nullptr) continue;
      if (interrupt) {
        slot.token->cancel(sim::CancelReason::kInterrupted);
        continue;
      }
      if (spec_.timeout_s > 0.0 &&
          std::chrono::duration<double>(now - slot.attempt_start).count() >
              spec_.timeout_s) {
        slot.token->cancel(sim::CancelReason::kTimeout);
        continue;
      }
      if (spec_.stall_timeout_s > 0.0) {
        // Progress is judged by the engine's event counter alone: it is
        // monotone and updated between every event, so "no new events for
        // the stall budget" means the run is wedged (or a cell body never
        // touches the token — which is exactly the hang this guards).
        const std::uint64_t events = slot.token->events();
        if (events != slot.last_events) {
          slot.last_events = events;
          slot.last_progress = now;
        } else if (std::chrono::duration<double>(now - slot.last_progress).count() >
                   spec_.stall_timeout_s) {
          slot.token->cancel(sim::CancelReason::kStalled);
        }
      }
    }
  }
}

SweepResult SweepRunner::run() {
  if (!body_) {
    load_inputs();
    body_ = [this](const SweepCell& cell, sim::CancellationToken& token) {
      return run_cell(cell, token);
    };
  }

  SweepResult result;
  result.cells = cells_;
  outcomes_.assign(cells_.size(), CellOutcome{});
  next_cell_.store(0, std::memory_order_relaxed);
  cells_done_.store(0, std::memory_order_relaxed);
  stop_watchdog_.store(false, std::memory_order_relaxed);
  interrupted_.store(false, std::memory_order_relaxed);
  if (cells_.empty()) {
    result.outcomes = std::move(outcomes_);
    return result;
  }

  slot_count_ = std::clamp<std::size_t>(options_.threads, 1, cells_.size());
  slots_ = std::make_unique<Slot[]>(slot_count_);

  run_begin_ = Clock::now();
  std::thread guard([this] { watchdog(); });
  std::vector<std::thread> workers;
  workers.reserve(slot_count_);
  for (std::size_t i = 0; i < slot_count_; ++i) {
    workers.emplace_back([this, i] { worker(slots_[i]); });
  }
  for (std::thread& thread : workers) thread.join();
  stop_watchdog_.store(true, std::memory_order_relaxed);
  guard.join();

  // A closing heartbeat so even sweeps faster than the progress period emit
  // at least one line.
  if (options_.progress) {
    const std::size_t done = cells_done_.load(std::memory_order_relaxed);
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - run_begin_).count();
    const double rate = elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
    std::fprintf(stderr, "progress: %zu/%zu cells, %.2f cells/s, eta 0s\n", done,
                 cells_.size(), rate);
  }

  // A final poll: an interrupt that landed after the last watchdog tick
  // still marks the sweep interrupted (all cells already ran, none lost).
  if (interrupt_requested()) interrupted_.store(true, std::memory_order_relaxed);

  result.outcomes = std::move(outcomes_);
  result.interrupted = interrupted_.load(std::memory_order_relaxed);
  slots_.reset();
  slot_count_ = 0;
  return result;
}

json::Value sweep_result_to_json(const SweepSpec& spec, SweepResult result, std::size_t threads) {
  json::Object out;
  out["schema"] = "elastisim-sweep-v2";
  out["partial"] = result.partial();
  out["interrupted"] = result.interrupted;
  out["threads"] = threads;
  out["build"] = stats::profiler::build_info_json();

  json::Object totals;
  totals["cells"] = result.cells.size();
  totals["succeeded"] = result.succeeded();
  totals["ok"] = result.count(CellStatus::kOk);
  totals["retried"] = result.count(CellStatus::kRetried);
  totals["timeout"] = result.count(CellStatus::kTimeout);
  totals["stalled"] = result.count(CellStatus::kStalled);
  totals["crashed"] = result.count(CellStatus::kCrashed);
  totals["skipped"] = result.count(CellStatus::kSkipped);
  out["totals"] = json::Value(std::move(totals));

  const auto string_array = [](const std::vector<std::string>& entries) {
    json::Array out_array;
    for (const std::string& entry : entries) out_array.emplace_back(entry);
    return json::Value(std::move(out_array));
  };
  json::Object grid;
  grid["platforms"] = string_array(spec.platforms);
  grid["workloads"] = string_array(spec.workloads);
  grid["schedulers"] = string_array(spec.schedulers);
  json::Array seeds;
  for (std::uint64_t seed : spec.seeds) seeds.emplace_back(static_cast<std::size_t>(seed));
  grid["seeds"] = json::Value(std::move(seeds));
  out["grid"] = json::Value(std::move(grid));

  json::Array cells;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const SweepCell& cell = result.cells[i];
    const CellOutcome& outcome = result.outcomes[i];
    json::Object entry;
    entry["index"] = cell.index;
    entry["platform"] = spec.platforms[cell.platform_index];
    entry["workload"] = spec.workloads[cell.workload_index];
    entry["scheduler"] = cell.scheduler;
    entry["seed"] = static_cast<std::size_t>(cell.seed);
    entry["status"] = to_string(outcome.status);
    entry["attempts"] = outcome.attempts;
    entry["duration_s"] = outcome.duration_s;
    if (!outcome.error.empty()) entry["error"] = outcome.error;
    if (!outcome.postmortem.empty()) entry["postmortem"] = outcome.postmortem;
    if (outcome.has_metrics) entry["metrics"] = metrics_to_json(outcome.metrics);
    cells.emplace_back(std::move(entry));
  }
  out["cells"] = json::Value(std::move(cells));

  // Policy-vs-policy aggregates: means over each scheduler's *succeeded*
  // cells, in the spec's scheduler order (deterministic output).
  json::Array by_scheduler;
  for (const std::string& scheduler : spec.schedulers) {
    std::size_t total = 0;
    std::size_t succeeded = 0;
    double makespan = 0.0;
    double mean_wait = 0.0;
    double slowdown = 0.0;
    double utilization = 0.0;
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
      // elsim-lint: allow(float-equality) -- std::string comparison
      if (result.cells[i].scheduler != scheduler) continue;
      ++total;
      const CellOutcome& outcome = result.outcomes[i];
      if (!outcome.succeeded() || !outcome.has_metrics) continue;
      ++succeeded;
      makespan += outcome.metrics.makespan;
      mean_wait += outcome.metrics.mean_wait;
      slowdown += outcome.metrics.mean_bounded_slowdown;
      utilization += outcome.metrics.avg_utilization;
    }
    json::Object entry;
    entry["scheduler"] = scheduler;
    entry["cells"] = total;
    entry["succeeded"] = succeeded;
    const double denom = succeeded > 0 ? static_cast<double>(succeeded) : 1.0;
    entry["mean_makespan_s"] = makespan / denom;
    entry["mean_wait_s"] = mean_wait / denom;
    entry["mean_bounded_slowdown"] = slowdown / denom;
    entry["avg_utilization"] = utilization / denom;
    by_scheduler.emplace_back(std::move(entry));
  }
  out["by_scheduler"] = json::Value(std::move(by_scheduler));

  // Cross-run aggregates (stats::SweepAggregator): per-(platform x workload
  // x scheduler) distribution statistics with per-seed variance bands. Cells
  // fold strictly in grid order AFTER the sweep finished, and nothing
  // wall-clock enters the fold, so this section is byte-identical across
  // --threads 1 and --threads N (cli_sweep_report_smoke enforces it).
  stats::SweepAggregator aggregator;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const SweepCell& cell = result.cells[i];
    CellOutcome& outcome = result.outcomes[i];
    const std::string& platform = spec.platforms[cell.platform_index];
    const std::string& workload = spec.workloads[cell.workload_index];
    aggregator.add_cell(platform, workload, cell.scheduler);
    if (!outcome.succeeded() || !outcome.has_metrics) continue;
    CellMetrics& metrics = outcome.metrics;
    aggregator.add_cell_sample(platform, workload, cell.scheduler,
                               {cell.seed, metrics.mean_wait, metrics.mean_bounded_slowdown,
                                metrics.avg_utilization, metrics.makespan,
                                std::move(metrics.job_waits), std::move(metrics.job_slowdowns)});
  }
  out["aggregates"] = aggregator.to_json();
  return json::Value(std::move(out));
}

int sweep_exit_code(const SweepResult& result) { return result.partial() ? 3 : 0; }

}  // namespace elastisim::core
