// elastisim — command-line front end.
//
//   elastisim --platform platform.json --workload workload.json
//             [--scheduler easy-malleable] [--interval 0] [--no-reconfig-cost]
//             [--out-dir results] [--log info]
//
//   elastisim --platform platform.json --swf trace.swf
//             [--swf-cores-per-node 48] [--swf-malleable 0.0] ...
//
// Runs the workload on the platform under the chosen algorithm and writes
//   <out-dir>/jobs.csv        per-job records,
//   <out-dir>/timeline.csv    allocated-node step function,
//   <out-dir>/summary.json    headline metrics,
//   <out-dir>/telemetry.json  counters/gauges/histograms (with --telemetry),
// printing the summary to stdout as well. --timeseries additionally writes
// <out-dir>/timeseries.csv, a simulation-state timeline sampled at every
// scheduling point (plus a fixed cadence with --sample-interval, which
// implies --timeseries). --chrome-trace <file> writes a Chrome trace_event
// JSON viewable in Perfetto, and --journal <file> a JSONL decision journal
// explaining every scheduling verdict (see docs/OBSERVABILITY.md). The
// artifacts feed the offline subcommands
//
//   elastisim inspect --job <id> <journal>    why a job waited
//   elastisim inspect --diff <a> <b>          first divergent decision
//   elastisim report <out-dir>                self-contained report.html
//   elastisim profile <profile.json>          phase table for a --profile run
//
// --profile <file.json> (or ELSIM_PROFILE=<path>, ELSIM_PROFILE=1 for
// <out-dir>/profile.json) runs the self-profiler: hierarchical phase wall
// times plus work-metric counters, written as deterministic-schema JSON.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>

#include "cli/inspect.h"
#include "cli/postmortem.h"
#include "cli/profile.h"
#include "cli/report.h"
#include "cli/sweep.h"
#include "cli/sweep_report.h"
#include "core/fault_injector.h"
#include "core/flight_recorder.h"
#include "core/invariant_checker.h"
#include "core/simulation.h"
#include "json/json.h"
#include "json/reader.h"
#include "stats/chrome_trace.h"
#include "stats/journal.h"
#include "stats/profiler.h"
#include "stats/state_sampler.h"
#include "stats/telemetry.h"
#include "stats/trace.h"
#include "platform/loader.h"
#include "sim/cancellation.h"
#include "util/flags.h"
#include "util/load_error.h"
#include "util/log.h"
#include "util/units.h"
#include "workload/swf.h"
#include "workload/workload_io.h"

using namespace elastisim;

namespace {

void usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s --platform <file.json> (--workload <file.json> | --swf <trace>)\n"
               "          [--scheduler <name>] [--interval <seconds>] [--no-reconfig-cost]\n"
               "          [--out-dir <dir>] [--trace] [--telemetry]\n"
               "          [--timeseries] [--sample-interval <seconds>]\n"
               "          [--chrome-trace <file.json>] [--journal <file.jsonl>]\n"
               "          [--profile <file.json>] [--validate] [--log <level>]\n"
               "   or: %s sweep <sweep.json> [--threads <n>] [--out-dir <dir>]\n"
               "   or: %s sweep-report <sweep-dir> [--out <report.html>]\n"
               "   or: %s inspect --job <id> <journal.jsonl>\n"
               "   or: %s inspect --diff <a.jsonl> <b.jsonl>\n"
               "   or: %s report <out-dir> [--out <report.html>]\n"
               "   or: %s profile <profile.json> [--top <n>]\n"
               "   or: %s postmortem <postmortem.json>\n"
               "failures: [--mtbf <duration>] [--failure-dist exponential|weibull]\n"
               "          [--weibull-shape <k>] [--repair <duration>]\n"
               "          [--repair-dist constant|lognormal] [--repair-sigma <s>]\n"
               "          [--pod-correlation <p>] [--failure-horizon <duration>]\n"
               "          [--failure-seed <n>] [--failure-trace <file.json>]\n"
               "          [--save-failure-trace <file.json>]\n"
               "          [--failure-policy kill|requeue|requeue-restart]\n"
               "          [--restart-overhead <duration>] [--max-requeues <n>]\n\n"
               "schedulers:",
               program, program, program, program, program, program, program, program);
  for (const std::string& name : core::scheduler_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

json::Value summary_json(const core::SimulationResult& result,
                         const core::SimulationConfig& config) {
  json::Object out;
  out["scheduler"] = config.scheduler;
  out["submitted"] = result.submitted;
  out["finished"] = result.finished;
  out["killed"] = result.killed;
  out["stuck"] = result.stuck;
  out["makespan_s"] = result.makespan;
  out["mean_wait_s"] = result.recorder.mean_wait();
  out["median_wait_s"] = result.recorder.median_wait();
  out["max_wait_s"] = result.recorder.max_wait();
  out["mean_turnaround_s"] = result.recorder.mean_turnaround();
  out["mean_bounded_slowdown"] = result.recorder.mean_bounded_slowdown();
  out["avg_utilization"] = result.recorder.average_utilization();
  out["expansions"] = result.recorder.total_expansions();
  out["shrinks"] = result.recorder.total_shrinks();
  out["requeues"] = result.recorder.total_requeues();
  out["lost_node_seconds"] = result.recorder.total_lost_node_seconds();
  out["redone_seconds"] = result.recorder.total_redone_seconds();
  out["wall_seconds"] = result.wall_seconds;
  out["events_processed"] = result.events_processed;
  out["partial"] = result.cancelled;
  return json::Value(std::move(out));
}

/// A bare "--flag" parses as the boolean value "true"; a path-valued flag
/// demands a real path instead of silently writing a file named "true".
bool missing_path(const util::Flags& flags, const char* name) {
  const std::string value = flags.get(name, std::string());
  if (!flags.has(name) || (!value.empty() && value != "true")) return false;
  std::fprintf(stderr, "error: --%s requires a file path\n", name);
  return true;
}

double duration_flag(const util::Flags& flags, const std::string& name, double fallback) {
  const std::string raw = flags.get(name, std::string());
  if (raw.empty()) return fallback;
  if (auto parsed = util::parse_duration(raw)) return *parsed;
  throw util::FlagError(name, raw, "a duration (seconds, or with ms/s/m/h/d)");
}

/// Cooperative single-run interrupt: the SIGINT/SIGTERM handler cancels this
/// token, the engine stops between events, and the normal artifact-writing
/// path still runs (summary.json lands with "partial": true, exit 130).
// elsim-lint: allow(mutable-static) -- single-run CLI path; the token's flag is atomic and the handler is installed before the engine starts
sim::CancellationToken g_run_token;

void handle_run_signal(int) {
  g_run_token.cancel(sim::CancelReason::kInterrupted);
}

/// Ends the "setup" profiler phase when the event loop starts, so setup
/// covers everything up to job submission, the run's own set-up included.
class SetupPhaseEnd final : public stats::BatchSubscriber {
 public:
  explicit SetupPhaseEnd(std::optional<stats::profiler::ScopedPhase>& scope) : scope_(scope) {}
  void on_event(const stats::BatchEvent& event) override {
    if (event.kind == stats::BatchEventKind::kRunBegin) scope_.reset();
  }

 private:
  std::optional<stats::profiler::ScopedPhase>& scope_;
};

}  // namespace

int main(int argc, char** argv) try {
  util::Flags flags(argc, argv);
  util::set_log_level(util::parse_log_level(flags.get("log", std::string("warn"))));
  for (const std::string& name : flags.duplicates()) {
    std::fprintf(stderr, "warning: --%s given more than once; using the last value\n",
                 name.c_str());
  }

  if (!flags.positional().empty() && flags.positional().front() == "inspect") {
    return cli::run_inspect(flags);
  }
  if (!flags.positional().empty() && flags.positional().front() == "report") {
    return cli::run_report(flags);
  }
  if (!flags.positional().empty() && flags.positional().front() == "profile") {
    return cli::run_profile(flags);
  }
  if (!flags.positional().empty() && flags.positional().front() == "postmortem") {
    return cli::run_postmortem(flags);
  }
  if (!flags.positional().empty() && flags.positional().front() == "sweep-report") {
    return cli::run_sweep_report(flags);
  }
  if (!flags.positional().empty() && flags.positional().front() == "sweep") {
    return cli::run_sweep(flags);
  }

  const std::string platform_path = flags.get("platform", std::string());
  const std::string workload_path = flags.get("workload", std::string());
  const std::string swf_path = flags.get("swf", std::string());
  if (platform_path.empty() || (workload_path.empty() && swf_path.empty())) {
    usage(argv[0]);
    return 2;
  }

  // --profile <file.json> / ELSIM_PROFILE env (a path, or "1" for
  // <out-dir>/profile.json): self-profiler, enabled before any work so the
  // setup phase covers config parsing and workload generation too.
  if (missing_path(flags, "profile") || missing_path(flags, "chrome-trace") ||
      missing_path(flags, "journal")) {
    usage(argv[0]);
    return 2;
  }
  std::string profile_path = flags.get("profile", std::string());
  if (profile_path.empty()) {
    const char* env = std::getenv("ELSIM_PROFILE");
    if (env != nullptr && *env != '\0' && std::string(env) != "0") {
      profile_path = std::string(env) == "1"
                         ? flags.get("out-dir", std::string("results")) + "/profile.json"
                         : std::string(env);
    }
  }
  const bool want_profile = !profile_path.empty();
  if (want_profile) {
    if (!stats::profiler::compiled()) {
      std::fprintf(stderr,
                   "warning: this build compiled the profiler out (ELSIM_NO_PROFILER); "
                   "%s will contain zero phase times\n",
                   profile_path.c_str());
    }
    stats::profiler::set_enabled(true);
  }

  // Hoisted above the try so the exception handlers can name the postmortem
  // destination.
  const std::string out_dir = flags.get("out-dir", std::string("results"));
  // Always-on black box (disable with ELSIM_FLIGHT=0): the ring of recent
  // engine/scheduler/job activity that postmortem.json decodes after an
  // abnormal end. Created before setup, with this thread's phase tap armed,
  // so config parsing is on record too.
  core::FlightRecorder* flight =
      core::FlightRecorder::enabled() ? &core::FlightRecorder::thread_current() : nullptr;

  try {
    // Everything up to job submission bills to the "setup" phase; the scope
    // closes just before the event loop starts.
    std::optional<stats::profiler::ScopedPhase> setup_scope(
        std::in_place, stats::profiler::Phase::kSetup);
    core::SimulationConfig config;
    config.platform = platform::load_cluster_config(platform_path);
    config.scheduler = flags.get("scheduler", std::string("easy-malleable"));
    config.batch.scheduling_interval = flags.get("interval", 0.0);
    config.batch.charge_reconfiguration = !flags.get("no-reconfig-cost", false);
    const std::string policy_name = flags.get("failure-policy", std::string("requeue"));
    if (auto policy = core::failure_policy_from_string(policy_name)) {
      config.batch.failure_policy = *policy;
    } else {
      std::fprintf(stderr, "error: unknown --failure-policy %s\n", policy_name.c_str());
      usage(argv[0]);
      return 2;
    }
    config.batch.restart_overhead = duration_flag(flags, "restart-overhead", 0.0);
    config.batch.max_requeues = static_cast<int>(
        flags.get("max-requeues", std::int64_t{0}, 0, std::numeric_limits<int>::max()));
    if (const auto error = core::validate(config.batch)) {
      throw util::FlagError(error->flag, flags.get(error->flag, std::string()), error->expected);
    }
    const double sample_interval = duration_flag(flags, "sample-interval", 0.0);
    if (!(std::isfinite(sample_interval) && sample_interval >= 0.0)) {
      throw util::FlagError("sample-interval", flags.get("sample-interval", std::string()),
                            "a finite, non-negative duration");
    }

    std::vector<workload::Job> jobs;
    if (!workload_path.empty()) {
      jobs = workload::load_workload(workload_path);
    } else {
      workload::SwfImportOptions options;
      options.flops_per_node =
          config.platform.cores_per_node * config.platform.flops_per_core;
      options.processors_per_node = static_cast<int>(
          flags.get("swf-cores-per-node", std::int64_t{1}, 1, std::numeric_limits<int>::max()));
      options.malleable_fraction = flags.get("swf-malleable", 0.0);
      options.max_nodes = static_cast<int>(config.platform.node_count);
      options.seed = static_cast<std::uint64_t>(
          flags.get("seed", std::int64_t{42}, 0, json::kMaxSafeInteger));
      jobs = workload::jobs_from_swf(workload::parse_swf_file(swf_path), options);
    }
    std::printf("loaded %zu jobs, %zu-node %s platform, scheduler %s\n", jobs.size(),
                config.platform.node_count,
                platform::to_string(config.platform.topology).c_str(),
                config.scheduler.c_str());

    // Failure schedule: replay a recorded trace, or draw one from the MTBF
    // model (per-node renewal processes; see docs/RESILIENCE.md).
    std::vector<core::FailureEvent> failures;
    const std::string failure_trace_path = flags.get("failure-trace", std::string());
    const double mtbf = duration_flag(flags, "mtbf", 0.0);
    if (!failure_trace_path.empty()) {
      failures = core::FaultInjector::load_trace(failure_trace_path);
      for (std::size_t i = 0; i < failures.size(); ++i) {
        if (failures[i].node >= config.platform.node_count) {
          throw util::LoadError(
              failure_trace_path, "$.failures[" + std::to_string(i) + "].node",
              "a node id below " + std::to_string(config.platform.node_count),
              std::to_string(failures[i].node));
        }
      }
      std::printf("loaded %zu failure events from %s\n", failures.size(),
                  failure_trace_path.c_str());
    } else if (mtbf > 0.0) {
      core::FaultModelConfig fault;
      fault.mtbf = mtbf;
      const std::string dist = flags.get("failure-dist", std::string("exponential"));
      const auto failure_distribution = core::failure_distribution_from_string(dist);
      if (!failure_distribution) {
        throw util::FlagError("failure-dist", dist, "one of exponential|weibull");
      }
      fault.failure_distribution = *failure_distribution;
      const std::string repair_dist = flags.get("repair-dist", std::string("constant"));
      const auto repair_distribution = core::repair_distribution_from_string(repair_dist);
      if (!repair_distribution) {
        throw util::FlagError("repair-dist", repair_dist, "one of constant|lognormal");
      }
      fault.repair_distribution = *repair_distribution;
      fault.weibull_shape = flags.get("weibull-shape", fault.weibull_shape);
      fault.mean_repair = duration_flag(flags, "repair", fault.mean_repair);
      fault.repair_sigma = flags.get("repair-sigma", fault.repair_sigma);
      fault.pod_correlation = flags.get("pod-correlation", 0.0);
      fault.horizon = duration_flag(flags, "failure-horizon", 0.0);
      if (const auto error = core::validate(fault)) {
        throw util::FlagError(error->flag, flags.get(error->flag, std::string()),
                              error->expected);
      }
      fault.horizon = core::failure_horizon(fault, jobs);
      fault.seed = static_cast<std::uint64_t>(
          flags.get("failure-seed", std::int64_t{1}, 0, json::kMaxSafeInteger));
      failures = core::FaultInjector(fault).generate(config.platform.node_count,
                                                     config.platform.pod_size);
      std::printf("generated %zu failure events (mtbf %.0fs, horizon %.0fs, seed %llu)\n",
                  failures.size(), fault.mtbf, fault.horizon,
                  static_cast<unsigned long long>(fault.seed));
    }
    const std::string save_failures = flags.get("save-failure-trace", std::string());
    if (!save_failures.empty()) {
      core::FaultInjector::save_trace(save_failures, failures);
      std::printf("wrote %zu failure events to %s\n", failures.size(), save_failures.c_str());
    }

    if (flight != nullptr) {
      flight->set_context("platform", platform_path);
      flight->set_context("workload", !workload_path.empty() ? workload_path : swf_path);
      flight->set_context("scheduler", config.scheduler);
      // The signal handler can O_CREAT the file but not its directories.
      std::filesystem::create_directories(out_dir);
      core::FlightRecorder::install_crash_handler(flight, out_dir + "/postmortem.json");
    }

    const bool want_trace = flags.get("trace", false);
    const std::string chrome_path = flags.get("chrome-trace", std::string());
    const std::string journal_path = flags.get("journal", std::string());
    // --sample-interval without --timeseries still means "I want the
    // timeline"; a bare --timeseries samples at scheduling points only.
    const bool want_timeseries = flags.get("timeseries", false) || sample_interval > 0.0;
    const bool want_telemetry = flags.get("telemetry", false) || !chrome_path.empty();
    // Flags only read on branches this invocation skipped (e.g. --swf-* on a
    // --workload run) are still legitimate; register them before diagnosing.
    flags.note_known({"platform", "workload", "swf", "scheduler", "interval",
                      "no-reconfig-cost", "out-dir", "trace", "telemetry", "timeseries",
                      "sample-interval", "chrome-trace", "journal", "profile", "validate",
                      "log", "seed", "swf-cores-per-node", "swf-malleable", "mtbf",
                      "failure-dist", "weibull-shape", "repair", "repair-dist",
                      "repair-sigma", "pod-correlation", "failure-horizon", "failure-seed",
                      "failure-trace", "save-failure-trace", "failure-policy",
                      "restart-overhead", "max-requeues"});
    if (flags.report_unknown()) {
      usage(argv[0]);
      return 2;
    }
    if (want_telemetry) telemetry::set_enabled(true);

    // Sinks subscribe in this order: the trace before the journal, so
    // journal verdicts link to trace rows.
    stats::EventTrace trace;
    stats::DecisionJournal journal;
    stats::StateSampler sampler(sample_interval);
    telemetry::ChromeTraceBuilder chrome;
    SetupPhaseEnd setup_end(setup_scope);
    if (want_trace) config.subscribers.push_back(&trace);
    if (!journal_path.empty()) config.subscribers.push_back(&journal);
    if (want_timeseries) config.subscribers.push_back(&sampler);
    if (!chrome_path.empty()) config.subscribers.push_back(&chrome);
    config.subscribers.push_back(&setup_end);
    // --validate (or ELSIM_VALIDATE) runs the InvariantChecker for the whole
    // simulation: node conservation, queue/journal/sampler agreement, and
    // monotonic clocks are re-verified at every scheduling point
    // (docs/ANALYSIS.md).
    config.validate = flags.get("validate", false);
    config.checked_sinks = {want_trace ? &trace : nullptr,
                            !journal_path.empty() ? &journal : nullptr,
                            want_timeseries ? &sampler : nullptr};
    config.failures = &failures;
    // Ctrl-C stops the engine between events; every sink below still
    // flushes, so an interrupted run leaves complete (partial) artifacts.
    config.cancel = &g_run_token;
    std::signal(SIGINT, handle_run_signal);
    std::signal(SIGTERM, handle_run_signal);
    const core::SimulationResult result = core::run_simulation(config, std::move(jobs));
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    if (result.validated_events > 0) {
      std::printf("validated %llu scheduling points, %llu events: all invariants hold\n",
                  static_cast<unsigned long long>(result.validated_points),
                  static_cast<unsigned long long>(result.validated_events));
    }
    {
      // Everything from here on is artifact writing, billed to "output".
      ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kOutput);
      if (want_trace) {
        std::filesystem::create_directories(out_dir);
        std::ofstream trace_csv(out_dir + "/trace.csv");
        trace.write_csv(trace_csv);
      }
      if (want_timeseries) {
        std::filesystem::create_directories(out_dir);
        sampler.save(out_dir + "/timeseries.csv");
        std::printf("wrote state timeline (%zu samples, %llu updates) to %s/timeseries.csv\n",
                    sampler.samples().size(),
                    static_cast<unsigned long long>(sampler.updates()), out_dir.c_str());
      }
      if (!journal_path.empty()) {
        const std::filesystem::path parent =
            std::filesystem::path(journal_path).parent_path();
        if (!parent.empty()) std::filesystem::create_directories(parent);
        journal.save(journal_path);
        std::printf("wrote decision journal (%zu records) to %s\n", journal.size(),
                    journal_path.c_str());
      }
      if (want_telemetry) {
        auto& registry = telemetry::Registry::global();
        registry.counter("engine.events").add(result.events_processed);
        registry.gauge("engine.events_per_second")
            .set(result.makespan, result.wall_seconds > 0.0
                                      ? static_cast<double>(result.events_processed) /
                                            result.wall_seconds
                                      : 0.0);
      }
      if (!chrome_path.empty()) {
        const std::filesystem::path parent =
            std::filesystem::path(chrome_path).parent_path();
        if (!parent.empty()) std::filesystem::create_directories(parent);
        chrome.write_file(chrome_path);
        std::printf("wrote Chrome trace (%zu events) to %s\n", chrome.event_count(),
                    chrome_path.c_str());
      }
    }

    std::filesystem::create_directories(out_dir);
    {
      ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kOutput);
      std::ofstream jobs_csv(out_dir + "/jobs.csv");
      result.recorder.write_jobs_csv(jobs_csv);
      std::ofstream timeline_csv(out_dir + "/timeline.csv");
      result.recorder.write_timeline_csv(timeline_csv);
      json::write_file(out_dir + "/summary.json", summary_json(result, config));
      if (want_telemetry) {
        json::write_file(out_dir + "/telemetry.json",
                         telemetry::Registry::global().to_json());
      }
    }

    // The profile is written last so its window covers every other artifact;
    // the write itself is the only work it cannot see.
    if (want_profile) {
      core::record_profile_counters(result, config.scheduler);
      const std::filesystem::path parent =
          std::filesystem::path(profile_path).parent_path();
      if (!parent.empty()) std::filesystem::create_directories(parent);
      auto& profiler = stats::profiler::Profiler::global();
      json::write_file(profile_path, profiler.report());
      std::printf("wrote profile (%.3f s window) to %s\n", profiler.window_s(),
                  profile_path.c_str());
    }

    std::printf("\n%s\n", json::dump_pretty(summary_json(result, config)).c_str());
    std::printf("\nwrote %s/jobs.csv, %s/timeline.csv, %s/summary.json%s\n", out_dir.c_str(),
                out_dir.c_str(), out_dir.c_str(),
                want_telemetry ? ", telemetry.json" : "");
    if (result.cancelled) {
      std::fprintf(stderr,
                   "warning: run interrupted after %llu events; artifacts describe a "
                   "partial run (summary.json has \"partial\": true)\n",
                   static_cast<unsigned long long>(result.events_processed));
      if (flight != nullptr) {
        flight->write_postmortem(out_dir + "/postmortem.json", "interrupted",
                                 "SIGINT/SIGTERM during run");
        std::fprintf(stderr, "wrote %s/postmortem.json\n", out_dir.c_str());
      }
      return 130;
    }
    if (result.stuck > 0) {
      // Name the offenders (first few) so the user can go straight to
      // `elastisim inspect --job` instead of bisecting the workload.
      std::string ids;
      const std::size_t shown = std::min<std::size_t>(result.stuck_ids.size(), 5);
      for (std::size_t i = 0; i < shown; ++i) {
        if (!ids.empty()) ids += ", ";
        ids += std::to_string(static_cast<long long>(result.stuck_ids[i]));
      }
      if (result.stuck_ids.size() > shown) ids += ", ...";
      std::fprintf(stderr,
                   "warning: %zu jobs never completed (check job sizes vs platform): "
                   "job ids %s\n",
                   result.stuck, ids.c_str());
      return 1;
    }
    return 0;
  } catch (const util::LoadError& error) {
    // Malformed platform/workload input: the structured diagnostic names the
    // file, the JSON path, and expected-vs-found. Loading happens before any
    // sink opens, so no partial output files exist (and a postmortem would
    // only echo the message back).
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const util::FlagError&) {
    throw;  // a usage error: reported below, without a postmortem
  } catch (const core::InvariantViolation& error) {
    std::fprintf(stderr, "error: invariant violation: %s\n", error.what());
    if (flight != nullptr) {
      try {
        flight->write_postmortem(out_dir + "/postmortem.json", "invariant-violation",
                                 error.what());
        std::fprintf(stderr, "wrote %s/postmortem.json\n", out_dir.c_str());
      } catch (...) {
        // A postmortem that cannot be written must not mask the failure.
      }
    }
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    if (flight != nullptr) {
      try {
        flight->write_postmortem(out_dir + "/postmortem.json", "exception", error.what());
        std::fprintf(stderr, "wrote %s/postmortem.json\n", out_dir.c_str());
      } catch (...) {
      }
    }
    return 1;
  }
} catch (const util::FlagError& error) {
  // Malformed numeric flags, here or in a subcommand: exit like any other
  // usage error.
  std::fprintf(stderr, "error: %s\n", error.what());
  return 2;
}
