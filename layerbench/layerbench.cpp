// elsim_layerbench — one simulation of one benchmark workload, reported as a
// single JSON line on stdout. run.py drives it, one fresh process per run.
//
//   elsim_layerbench --workload <name> --seed <n> --part <i> [--traced]
//
// Untraced (the default) is the end-to-end measurement: it times the set-up
// (workload generation, failure schedule, BatchSystem::submit_all) 7 times and
// keeps the median, then runs the workload once through core::run_scenario,
// exactly as an experiment harness would.
//
// --traced is the per-layer measurement. It builds the engine, cluster and
// batch system itself, attaches the same sinks run_scenario attaches, wraps the
// scheduler in a timing decorator, enables the self-profiler and drives
// Engine::step() from here. All timing is outside-in: timers around public
// calls plus the profiler's existing phases; nothing in src/ is changed.
//
// Both modes print the output digest and the deterministic work counters, so
// run.py can check that traced and untraced runs simulate the same thing.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_system.h"
#include "core/fault_injector.h"
#include "core/flight_recorder.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "json/json.h"
#include "platform/cluster.h"
#include "sim/engine.h"
#include "stats/metrics.h"
#include "stats/profiler.h"
#include "workload/generator.h"

using namespace elastisim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The reference fat-tree platform (48 x 2 GF cores per node, 12.5 GB/s
/// links, pods of 16 with 100 GB/s uplinks, 120/80 GB/s PFS). A private copy
/// of bench::reference_platform so later edits to the experiment harnesses
/// cannot change what this benchmark measures.
platform::ClusterConfig reference_platform(std::size_t nodes) {
  platform::ClusterConfig config;
  config.topology = platform::TopologyKind::kFatTree;
  config.node_count = nodes;
  config.cores_per_node = 48;
  config.flops_per_core = 2e9;
  config.link_bandwidth = 12.5e9;
  config.pod_size = 16;
  config.pod_bandwidth = 100e9;
  config.pfs.read_bandwidth = 120e9;
  config.pfs.write_bandwidth = 80e9;
  return config;
}

/// The reference job mix (1-64 node power-of-two sizes, iterative compute +
/// allreduce, 30% with PFS I/O); a private copy of bench::reference_workload.
workload::GeneratorConfig reference_workload(std::size_t jobs, std::uint64_t seed) {
  workload::GeneratorConfig config;
  config.job_count = jobs;
  config.seed = seed;
  config.mean_interarrival = 45.0;
  config.min_nodes = 1;
  config.max_nodes = 64;
  config.malleable_fraction = 0.5;
  config.mean_iteration_compute = 60.0;
  config.flops_per_node = 48.0 * 2e9;
  config.comm_bytes = 64.0 * 1024 * 1024;
  config.io_fraction = 0.3;
  config.io_bytes = 4.0 * 1024 * 1024 * 1024;
  config.state_bytes_per_node = 256.0 * 1024 * 1024;
  return config;
}

struct Workload {
  platform::ClusterConfig platform;
  workload::GeneratorConfig generator;
  /// > 0: arrivals are rescaled so the offered load is this fraction of the
  /// machine (interarrival = mean requested node-seconds / (load * nodes)).
  double offered_load = 0.0;
  std::string scheduler;
  core::BatchConfig batch;
  /// mtbf == 0 means no failures.
  core::FaultModelConfig faults;
};

/// A run of the benchmark simulates a bundle of independent parts of one
/// workload, so its totals average over several job mixes; this is the
/// generator seed of part `part` of seed `seed`'s bundle.
std::uint64_t part_seed(std::uint64_t seed, std::uint64_t part) { return seed * 1000 + part; }

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "wide-steady") {
    // Many small jobs on a wide machine at a stable load: long fluid solves
    // over mostly private resources, a short job queue.
    w.platform = reference_platform(1280);
    w.generator = reference_workload(900, seed);
    w.generator.max_nodes = 8;
    w.generator.io_fraction = 0.0;
    w.offered_load = 0.85;
    w.scheduler = "easy-malleable";
  } else if (name == "backlog-fairshare") {
    // The reference mix at 2.8x the machine: the queue only grows and
    // fair-share ranks every queued job by its user's usage each round.
    w.platform = reference_platform(128);
    w.generator = reference_workload(300, seed);
    w.offered_load = 2.8;
    w.scheduler = "fair-share";
  } else if (name == "overload-io-faults") {
    // Overloaded, every job on the PFS, half of them checkpointing, node
    // failures with requeue-restart: the resize, evolving, fault and requeue
    // paths all run.
    w.platform = reference_platform(128);
    w.generator = reference_workload(3500, seed);
    w.generator.malleable_fraction = 0.4;
    w.generator.evolving_fraction = 0.2;
    w.generator.io_fraction = 1.0;
    w.generator.checkpoint_fraction = 0.5;
    w.offered_load = 2.8;
    w.scheduler = "easy-malleable";
    w.batch.failure_policy = core::FailurePolicy::kRequeueRestart;
    w.faults.mtbf = 5e5;
    w.faults.mean_repair = 3600.0;
    w.faults.horizon = 1e6;
    w.faults.seed = seed ^ 0xfa17ULL;
  } else {
    return std::nullopt;
  }
  return w;
}

std::vector<workload::Job> make_jobs(const Workload& w) {
  workload::GeneratorConfig generator = w.generator;
  if (w.offered_load > 0.0) generator.mean_interarrival = 1.0;
  std::vector<workload::Job> jobs = workload::generate_workload(generator);
  if (w.offered_load > 0.0 && !jobs.empty()) {
    // Exponential draws scale linearly with their mean, so generating at a
    // mean of 1 s and multiplying is the same Poisson stream at the rate that
    // puts this seed's job mix at the offered load.
    double node_seconds = 0.0;
    for (const workload::Job& job : jobs) {
      node_seconds += job.requested_nodes *
                      workload::estimate_runtime(job, job.requested_nodes,
                                                 w.generator.flops_per_node);
    }
    const double interarrival = node_seconds / static_cast<double>(jobs.size()) /
                                (w.offered_load * static_cast<double>(w.platform.node_count));
    for (workload::Job& job : jobs) job.submit_time *= interarrival;
  }
  return jobs;
}

std::vector<core::FailureEvent> make_failures(const Workload& w) {
  if (w.faults.mtbf <= 0.0) return {};
  return core::FaultInjector(w.faults).generate(w.platform.node_count);
}

// ---------------------------------------------------------------------------
// Output check and counters
// ---------------------------------------------------------------------------

/// FNV-1a over the jobs CSV plus the headline simulated statistics. Any
/// change to a schedule, or to float rounding in a reported time, moves it.
std::string output_digest(const stats::Recorder& recorder) {
  std::ostringstream text;
  recorder.write_jobs_csv(text);
  char summary[256];
  std::snprintf(summary, sizeof(summary),
                "makespan=%.17g wait=%.17g bsld=%.17g util=%.17g requeues=%d",
                recorder.makespan(), recorder.mean_wait(), recorder.mean_bounded_slowdown(),
                recorder.average_utilization(), recorder.total_requeues());
  text << summary;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

/// The digest and exact work counters of a finished run.
json::Object outcome_json(const core::SimulationResult& result) {
  json::Object out;
  out["digest"] = output_digest(result.recorder);
  out["submitted"] = result.submitted;
  out["finished"] = result.finished;
  out["killed"] = result.killed;
  out["stuck"] = result.stuck;
  out["cancelled"] = result.cancelled;
  out["engine.events"] = result.events_processed;
  out["queue.pushes"] = result.queue_pushes;
  out["queue.pops"] = result.queue_pops;
  out["queue.event_peak"] = result.queue_peak;
  out["fluid.solves"] = result.rebalances;
  out["fluid.activities_touched"] = result.activities_touched;
  out["batch.jobs_scanned"] = result.scheduler_jobs_scanned;
  out["sched.invocations"] = result.scheduler_invocations;
  out["sched.rounds"] = result.scheduler_rounds;
  out["batch.requeues"] = result.recorder.total_requeues();
  return out;
}

void print_line(json::Object out) {
  std::printf("%s\n", json::dump(json::Value(std::move(out))).c_str());
}

/// This process's peak resident set in MiB. Read from VmHWM, which starts
/// afresh at exec, rather than getrusage's ru_maxrss, which Linux carries
/// over from the parent across exec (the driving Python process would set
/// its floor).
double peak_rss_mib(std::uint64_t fallback_bytes) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return static_cast<double>(fallback_bytes) / (1024.0 * 1024.0);
}

/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

// ---------------------------------------------------------------------------
// Untraced run: set-up timing plus core::run_scenario
// ---------------------------------------------------------------------------

struct SetupTimes {
  double generate_s = 0.0;
  double faults_s = 0.0;
  double submit_s = 0.0;
  double total() const { return generate_s + faults_s + submit_s; }
};

/// One timed set-up from seed to the first event, torn down untimed.
SetupTimes time_setup(const Workload& w) {
  SetupTimes t;
  auto begin = Clock::now();
  std::vector<workload::Job> jobs = make_jobs(w);
  t.generate_s = seconds_since(begin);
  begin = Clock::now();
  const std::vector<core::FailureEvent> failures = make_failures(w);
  t.faults_s = seconds_since(begin);
  begin = Clock::now();
  stats::Recorder recorder;
  sim::Engine engine;
  platform::Cluster cluster(engine, w.platform);
  core::BatchSystem batch(engine, cluster, core::make_scheduler(w.scheduler), recorder,
                          w.batch);
  core::FaultInjector::apply(batch, failures);
  batch.submit_all(std::move(jobs));
  t.submit_s = seconds_since(begin);
  return t;
}

int run_untraced(const Workload& w) {
  // A set-up takes milliseconds, so one sample is mostly noise.
  constexpr int kSetupRepeats = 7;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) setup.push_back(time_setup(w).total());

  const std::vector<workload::Job> jobs = make_jobs(w);
  const std::vector<core::FailureEvent> failures = make_failures(w);
  core::RunConfig run;
  run.scheduler = w.scheduler;
  run.batch = w.batch;
  if (!failures.empty()) run.failures = &failures;
  const core::SimulationResult result = core::run_scenario(w.platform, jobs, run);

  json::Object out = outcome_json(result);
  out["mode"] = "untraced";
  out["wall_s"] = result.wall_seconds;
  out["setup_s"] = percentile(setup, 0.5);
  out["peak_rss_mb"] = peak_rss_mib(result.peak_rss_bytes);
  out["failures_injected"] = failures.size();
  print_line(std::move(out));
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: the same simulation, split by layer from the outside
// ---------------------------------------------------------------------------

struct SchedulerTimes {
  double policy_s = 0.0;
  double evolving_s = 0.0;
  double start_job_s = 0.0;
  double set_target_s = 0.0;
  double user_usage_s = 0.0;
  std::size_t user_usage_calls = 0;
  std::vector<double> call_s;
};

/// Forwards every SchedulerContext call to the batch system, timing the
/// three that do batch-system work on the policy's behalf.
class TimedContext final : public core::SchedulerContext {
 public:
  TimedContext(core::SchedulerContext& inner, SchedulerTimes& times)
      : inner_(inner), times_(times) {}

  double now() const override { return inner_.now(); }
  int total_nodes() const override { return inner_.total_nodes(); }
  int free_nodes() const override { return inner_.free_nodes(); }
  const std::vector<core::QueuedJob>& queue() const override { return inner_.queue(); }
  const std::vector<core::RunningJob>& running() const override { return inner_.running(); }
  double user_usage(const std::string& user) const override {
    const auto begin = Clock::now();
    const double usage = inner_.user_usage(user);
    times_.user_usage_s += seconds_since(begin);
    ++times_.user_usage_calls;
    return usage;
  }
  void start_job(workload::JobId id, int nodes) override {
    const auto begin = Clock::now();
    inner_.start_job(id, nodes);
    times_.start_job_s += seconds_since(begin);
  }
  void set_target(workload::JobId id, int nodes) override {
    const auto begin = Clock::now();
    inner_.set_target(id, nodes);
    times_.set_target_s += seconds_since(begin);
  }
  bool explaining() const override { return inner_.explaining(); }
  void explain(workload::JobId id, stats::HoldReason reason, std::string detail) override {
    inner_.explain(id, reason, std::move(detail));
  }

 private:
  core::SchedulerContext& inner_;
  SchedulerTimes& times_;
};

/// Scheduler decorator: times each call into the wrapped policy and hands it
/// a TimedContext. Decisions are the inner policy's, untouched.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<core::Scheduler> inner, SchedulerTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  std::string name() const override { return inner_->name(); }
  void schedule(core::SchedulerContext& ctx) override {
    TimedContext timed(ctx, times_);
    const auto begin = Clock::now();
    inner_->schedule(timed);
    const double elapsed = seconds_since(begin);
    times_.policy_s += elapsed;
    times_.call_s.push_back(elapsed);
  }
  bool on_evolving_request(core::SchedulerContext& ctx, workload::JobId id,
                           int delta) override {
    TimedContext timed(ctx, times_);
    const auto begin = Clock::now();
    const bool granted = inner_->on_evolving_request(timed, id, delta);
    times_.evolving_s += seconds_since(begin);
    return granted;
  }

 private:
  std::unique_ptr<core::Scheduler> inner_;
  SchedulerTimes& times_;
};

int run_traced(const Workload& w) {
  namespace prof = stats::profiler;
  const auto run_begin = Clock::now();

  SetupTimes setup;
  auto begin = Clock::now();
  std::vector<workload::Job> jobs = make_jobs(w);
  setup.generate_s = seconds_since(begin);
  begin = Clock::now();
  const std::vector<core::FailureEvent> failures = make_failures(w);
  setup.faults_s = seconds_since(begin);

  // Same construction order and sinks as core::run_scenario (its recorder
  // lives in the result, built first; the flight recorder is always on).
  begin = Clock::now();
  core::SimulationResult result;
  SchedulerTimes sched;
  auto engine = std::make_unique<sim::Engine>();
  auto cluster = std::make_unique<platform::Cluster>(*engine, w.platform);
  auto batch = std::make_unique<core::BatchSystem>(
      *engine, *cluster,
      std::make_unique<TimedScheduler>(core::make_scheduler(w.scheduler), sched),
      result.recorder, w.batch);
  if (!failures.empty()) core::FaultInjector::apply(*batch, failures);
  core::FlightRecorder* flight =
      core::FlightRecorder::enabled() ? &core::FlightRecorder::thread_current() : nullptr;
  std::pair<prof::detail::PhaseHook, void*> previous_tap{nullptr, nullptr};
  if (flight != nullptr) {
    engine->set_event_hook(&core::FlightRecorder::engine_event_hook, flight);
    batch->set_flight_recorder(flight);
    previous_tap = flight->arm_phase_tap();
    flight->set_context("scheduler", w.scheduler);
  }
  result.submitted = batch->submit_all(std::move(jobs));
  if (flight != nullptr) {
    flight->note_mark(engine->now(), core::FlightMark::kRunBegin, result.submitted);
  }
  setup.submit_s = seconds_since(begin);

  // The event loop, one step at a time so the job-queue peak is observable.
  prof::set_enabled(true);
  std::size_t job_queue_peak = 0;
  const auto loop_begin = Clock::now();
  while (engine->step()) job_queue_peak = std::max(job_queue_peak, batch->queued_jobs());
  const double loop_s = seconds_since(loop_begin);
  const prof::Profiler& profiler = prof::Profiler::global();
  const double fluid_s = profiler.stats(prof::Phase::kFluidSolve).exclusive_s;
  const prof::PhaseStats sched_phase = profiler.stats(prof::Phase::kScheduler);
  const double sinks_s = profiler.stats(prof::Phase::kSinks).exclusive_s;
  const double fault_s = profiler.stats(prof::Phase::kFault).exclusive_s;
  prof::set_enabled(false);
  if (flight != nullptr) {
    flight->note_mark(engine->now(), core::FlightMark::kRunEnd, engine->events_processed());
    prof::set_phase_hook(previous_tap.first, previous_tap.second);
  }

  // The fields core::run_scenario fills, from the same sources.
  result.finished = batch->finished_jobs();
  result.killed = batch->killed_jobs();
  result.stuck = batch->queued_jobs() + batch->running_jobs();
  result.events_processed = engine->events_processed();
  result.rebalances = engine->fluid().rebalance_count();
  result.queue_pushes = engine->queue().pushes();
  result.queue_pops = engine->queue().pops();
  result.queue_peak = engine->queue().peak_size();
  result.activities_touched = engine->fluid().activities_touched();
  result.scheduler_invocations = batch->scheduler_invocations();
  result.scheduler_rounds = batch->scheduler_rounds();
  result.scheduler_jobs_scanned = batch->scheduler_jobs_scanned();

  // Teardown stays inside the traced wall, as unattributed time.
  batch.reset();
  cluster.reset();
  engine.reset();
  const double traced_wall_s = seconds_since(run_begin);

  // Self time per layer. Profiler exclusive times already net out nested
  // phases (fluid solves started inside start_job, scheduler points inside
  // fault handlers); the decorator splits the scheduler phase into policy
  // work and the batch-system calls it makes.
  const double callbacks_s = sched.start_job_s + sched.set_target_s + sched.user_usage_s;
  const double policy_own_s = sched.policy_s - callbacks_s;
  const double sched_self_s = policy_own_s + sched.evolving_s;
  const double batch_self_s = sched_phase.exclusive_s - policy_own_s;
  const double engine_self_s = loop_s - fluid_s - sched_phase.exclusive_s - sinks_s -
                               fault_s - sched.evolving_s;
  const double attributed_s = setup.total() + engine_self_s + fluid_s + batch_self_s +
                              sched_self_s + fault_s + sinks_s;
  const double unattributed_s = traced_wall_s - attributed_s;

  json::Object out = outcome_json(result);
  out["mode"] = "traced";
  out["sched.user_usage_calls"] = sched.user_usage_calls;
  out["traced_wall_s"] = traced_wall_s;
  out["loop_s"] = loop_s;
  out["batch.job_queue_peak"] = job_queue_peak;
  out["setup.generate_s"] = setup.generate_s;
  out["setup.faults_s"] = setup.faults_s;
  out["setup.submit_s"] = setup.submit_s;
  out["engine.self_s"] = engine_self_s;
  out["fluid.solve_s"] = fluid_s;
  out["batch.self_s"] = batch_self_s;
  out["batch.views_s"] = sched_phase.inclusive_s - sched.policy_s;
  out["batch.start_job_s"] = sched.start_job_s;
  out["batch.set_target_s"] = sched.set_target_s;
  out["sched.self_s"] = sched_self_s;
  out["sched.policy_s"] = sched.policy_s;
  out["sched.user_usage_s"] = sched.user_usage_s;
  out["sched.call_p50_us"] = percentile(sched.call_s, 0.50) * 1e6;
  out["sched.call_p99_us"] = percentile(sched.call_s, 0.99) * 1e6;
  out["fault.self_s"] = fault_s;
  out["sinks_s"] = sinks_s;
  out["unattributed_s"] = unattributed_s;
  out["failures_injected"] = failures.size();
  print_line(std::move(out));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: elsim_layerbench --workload <wide-steady|backlog-fairshare|"
               "overload-io-faults> [--seed <n>] [--part <0-999>] [--traced]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 42;
  std::uint64_t part = 0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--part" && has_value) {
      part = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--traced") {
      traced = true;
    } else {
      return usage();
    }
  }
  if (part >= 1000) return usage();
  const std::optional<Workload> w = make_workload(name, part_seed(seed, part));
  if (!w) return usage();
  try {
    return traced ? run_traced(*w) : run_untraced(*w);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "elsim_layerbench: %s\n", error.what());
    return 1;
  }
}
