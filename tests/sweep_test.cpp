// Tests for the fault-tolerant sweep orchestrator: grid expansion, crash
// isolation, timeout/stall watchdogs, retry accounting, graceful interrupt,
// spec parsing diagnostics, and serial-vs-parallel determinism.
#include "core/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "platform/loader.h"
#include "util/load_error.h"
#include "workload/workload_io.h"

using namespace elastisim;
using core::CellStatus;

namespace {

/// A spec whose file paths are never opened: tests install a stub cell body,
/// so load_inputs() is never called.
core::SweepSpec stub_spec(std::vector<std::string> schedulers = {"fcfs"},
                          std::vector<std::uint64_t> seeds = {1}) {
  core::SweepSpec spec;
  spec.platforms = {"unopened-platform.json"};
  spec.workloads = {"unopened-workload.json"};
  spec.schedulers = std::move(schedulers);
  spec.seeds = std::move(seeds);
  spec.retry.backoff_s = 0.001;
  return spec;
}

core::SweepOptions fast_options(std::size_t threads = 2) {
  core::SweepOptions options;
  options.threads = threads;
  options.watchdog_period_s = 0.002;
  return options;
}

core::SimulationResult ok_result() { return core::SimulationResult{}; }

/// Spins without event progress until the watchdog (or interrupt) cancels.
core::SimulationResult block_until_cancelled(sim::CancellationToken& token) {
  while (!token.cancelled()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return core::SimulationResult{};
}

std::filesystem::path temp_file(const std::string& name, const std::string& contents) {
  const std::filesystem::path path = std::filesystem::temp_directory_path() / name;
  std::ofstream out(path);
  out << contents;
  return path;
}

}  // namespace

// --- Grid expansion ---------------------------------------------------------

TEST(SweepGridTest, ExpandsInDocumentedOrder) {
  core::SweepSpec spec = stub_spec({"fcfs", "easy-backfill"}, {7, 9});
  spec.platforms = {"p0.json", "p1.json"};
  core::SweepRunner runner(spec, fast_options());
  const auto& cells = runner.cells();
  ASSERT_EQ(cells.size(), 2u * 1u * 2u * 2u);
  // Seeds innermost, then schedulers, workloads, platforms outermost.
  EXPECT_EQ(cells[0].platform_index, 0u);
  EXPECT_EQ(cells[0].scheduler, "fcfs");
  EXPECT_EQ(cells[0].seed, 7u);
  EXPECT_EQ(cells[1].seed, 9u);
  EXPECT_EQ(cells[2].scheduler, "easy-backfill");
  EXPECT_EQ(cells[4].platform_index, 1u);
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);
}

// --- Statuses ---------------------------------------------------------------

TEST(SweepRunTest, AllCellsSucceed) {
  core::SweepRunner runner(stub_spec({"fcfs"}, {1, 2, 3}), fast_options());
  runner.set_cell_body([](const core::SweepCell&, sim::CancellationToken&) {
    return ok_result();
  });
  const core::SweepResult result = runner.run();
  ASSERT_EQ(result.outcomes.size(), 3u);
  for (const core::CellOutcome& outcome : result.outcomes) {
    EXPECT_EQ(outcome.status, CellStatus::kOk);
    EXPECT_EQ(outcome.attempts, 1);
    EXPECT_TRUE(outcome.has_metrics);
  }
  EXPECT_FALSE(result.partial());
  EXPECT_EQ(core::sweep_exit_code(result), 0);
}

TEST(SweepRunTest, CrashIsIsolatedAndReported) {
  core::SweepRunner runner(stub_spec({"fcfs"}, {1, 2, 3}), fast_options());
  runner.set_cell_body([](const core::SweepCell& cell, sim::CancellationToken&) {
    if (cell.seed == 2) throw std::runtime_error("boom in cell");
    return ok_result();
  });
  const core::SweepResult result = runner.run();
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kOk);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kCrashed);
  EXPECT_EQ(result.outcomes[1].error, "boom in cell");
  EXPECT_EQ(result.outcomes[2].status, CellStatus::kOk);
  EXPECT_TRUE(result.partial());
  EXPECT_EQ(core::sweep_exit_code(result), 3);
}

TEST(SweepRunTest, RetriesThenSucceeds) {
  core::SweepSpec spec = stub_spec();
  spec.retry.max_attempts = 3;
  core::SweepRunner runner(spec, fast_options(1));
  std::atomic<int> calls{0};
  runner.set_cell_body([&calls](const core::SweepCell&, sim::CancellationToken&) {
    if (calls.fetch_add(1) < 2) throw std::runtime_error("flaky");
    return ok_result();
  });
  const core::SweepResult result = runner.run();
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kRetried);
  EXPECT_EQ(result.outcomes[0].attempts, 3);
  EXPECT_TRUE(result.outcomes[0].succeeded());
  EXPECT_FALSE(result.partial());
}

TEST(SweepRunTest, RetryBudgetExhausts) {
  core::SweepSpec spec = stub_spec();
  spec.retry.max_attempts = 2;
  core::SweepRunner runner(spec, fast_options(1));
  std::atomic<int> calls{0};
  runner.set_cell_body([&calls](const core::SweepCell&, sim::CancellationToken&) {
    calls.fetch_add(1);
    throw std::runtime_error("always fails");
    return ok_result();
  });
  const core::SweepResult result = runner.run();
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kCrashed);
  EXPECT_EQ(result.outcomes[0].attempts, 2);
  EXPECT_EQ(calls.load(), 2);
}

TEST(SweepRunTest, CrashRetryCanBeDisabled) {
  core::SweepSpec spec = stub_spec();
  spec.retry.max_attempts = 5;
  spec.retry.retry_crashed = false;
  core::SweepRunner runner(spec, fast_options(1));
  runner.set_cell_body([](const core::SweepCell&, sim::CancellationToken&) {
    throw std::runtime_error("fatal");
    return ok_result();
  });
  const core::SweepResult result = runner.run();
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kCrashed);
  EXPECT_EQ(result.outcomes[0].attempts, 1);
}

TEST(SweepRunTest, TimeoutCancelsCell) {
  core::SweepSpec spec = stub_spec();
  spec.timeout_s = 0.03;
  core::SweepRunner runner(spec, fast_options(1));
  runner.set_cell_body([](const core::SweepCell&, sim::CancellationToken& token) {
    return block_until_cancelled(token);
  });
  const core::SweepResult result = runner.run();
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kTimeout);
  EXPECT_EQ(result.outcomes[0].attempts, 1);  // timeouts are not retried by default
  EXPECT_TRUE(result.partial());
}

TEST(SweepRunTest, StallWatchdogCancelsCell) {
  core::SweepSpec spec = stub_spec();
  spec.stall_timeout_s = 0.03;
  spec.retry.retry_stalled = false;
  core::SweepRunner runner(spec, fast_options(1));
  runner.set_cell_body([](const core::SweepCell&, sim::CancellationToken& token) {
    return block_until_cancelled(token);
  });
  const core::SweepResult result = runner.run();
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kStalled);
  EXPECT_TRUE(result.partial());
}

TEST(SweepRunTest, ProgressDefeatsStallWatchdog) {
  core::SweepSpec spec = stub_spec();
  spec.stall_timeout_s = 0.05;
  core::SweepRunner runner(spec, fast_options(1));
  runner.set_cell_body([](const core::SweepCell&, sim::CancellationToken& token) {
    // Keeps publishing event progress for ~4 stall budgets: must finish ok.
    for (std::uint64_t i = 1; i <= 20; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      token.note_progress(i, static_cast<double>(i));
      if (token.cancelled()) break;
    }
    return ok_result();
  });
  const core::SweepResult result = runner.run();
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kOk);
}

TEST(SweepRunTest, InterruptSkipsInFlightAndPendingCells) {
  core::SweepSpec spec = stub_spec({"fcfs"}, {1, 2, 3});
  std::atomic<bool> interrupt{false};
  core::SweepOptions options = fast_options(1);
  options.interrupt = &interrupt;
  core::SweepRunner runner(spec, options);
  runner.set_cell_body([](const core::SweepCell&, sim::CancellationToken& token) {
    return block_until_cancelled(token);
  });
  std::thread trigger([&interrupt] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    interrupt.store(true);
  });
  const core::SweepResult result = runner.run();
  trigger.join();
  EXPECT_TRUE(result.interrupted);
  ASSERT_EQ(result.outcomes.size(), 3u);
  // The in-flight cell was cancelled, the queued ones never started.
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kSkipped);
  EXPECT_EQ(result.outcomes[0].attempts, 1);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kSkipped);
  EXPECT_EQ(result.outcomes[1].attempts, 0);
  EXPECT_EQ(result.outcomes[2].status, CellStatus::kSkipped);
  EXPECT_TRUE(result.partial());
  EXPECT_EQ(core::sweep_exit_code(result), 3);
}

TEST(SweepRunTest, ResultJsonCarriesStatusesAndAggregates) {
  core::SweepSpec spec = stub_spec({"fcfs", "easy-backfill"}, {1});
  core::SweepRunner runner(spec, fast_options());
  runner.set_cell_body([](const core::SweepCell& cell, sim::CancellationToken&) {
    if (cell.scheduler == "easy-backfill") throw std::runtime_error("nope");
    core::SimulationResult result;
    result.makespan = 100.0;
    return result;
  });
  core::SweepResult result = runner.run();
  const json::Value report = core::sweep_result_to_json(spec, std::move(result), 2);
  EXPECT_EQ(report.member_or("schema", ""), "elastisim-sweep-v2");
  // The v2 aggregates section groups per (platform, workload, scheduler);
  // the crashed easy-backfill cell still gets a group, with zero samples.
  const json::Value* aggregates = report.find("aggregates");
  ASSERT_NE(aggregates, nullptr);
  const json::Value* groups = aggregates->find("groups");
  ASSERT_NE(groups, nullptr);
  ASSERT_EQ(groups->as_array().size(), 2u);
  EXPECT_EQ(groups->as_array()[0].member_or("scheduler", ""), "fcfs");
  EXPECT_EQ(groups->as_array()[0].member_or("succeeded", std::int64_t{0}), 1);
  EXPECT_EQ(groups->as_array()[1].member_or("succeeded", std::int64_t{0}), 0);
  EXPECT_EQ(groups->as_array()[1].find("jobs"), nullptr);
  EXPECT_TRUE(report.member_or("partial", false));
  const json::Value* totals = report.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->member_or("cells", std::int64_t{0}), 2);
  EXPECT_EQ(totals->member_or("ok", std::int64_t{0}), 1);
  EXPECT_EQ(totals->member_or("crashed", std::int64_t{0}), 1);
  const json::Value* cells = report.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->as_array().size(), 2u);
  EXPECT_EQ(cells->as_array()[0].member_or("status", ""), "ok");
  EXPECT_EQ(cells->as_array()[1].member_or("status", ""), "crashed");
  EXPECT_EQ(cells->as_array()[1].member_or("error", ""), "nope");
  const json::Value* by_scheduler = report.find("by_scheduler");
  ASSERT_NE(by_scheduler, nullptr);
  ASSERT_EQ(by_scheduler->as_array().size(), 2u);
  EXPECT_EQ(by_scheduler->as_array()[0].member_or("mean_makespan_s", 0.0), 100.0);
}

// --- Spec parsing -----------------------------------------------------------

TEST(SweepSpecTest, ParsesFullSpec) {
  const json::Value value = json::parse(R"({
    "platforms": ["p.json"], "workloads": ["w.json"],
    "schedulers": ["fcfs", "easy"], "seeds": [1, 2, 3],
    "timeout": "90s", "stall_timeout": 5,
    "retry": {"max_attempts": 4, "backoff": "250ms", "timeout": true},
    "batch": {"interval": "30s", "failure_policy": "requeue-restart",
              "restart_overhead": 30, "max_requeues": 2},
    "faults": {"mtbf": "6h", "failure_dist": "weibull", "weibull_shape": 1.5,
               "repair": "10m", "repair_dist": "lognormal", "pod_correlation": 0.1}
  })");
  const core::SweepSpec spec = core::parse_sweep_spec(value);
  EXPECT_EQ(spec.platforms, std::vector<std::string>{"p.json"});
  EXPECT_EQ(spec.schedulers.size(), 2u);
  EXPECT_EQ(spec.seeds.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.timeout_s, 90.0);
  EXPECT_DOUBLE_EQ(spec.stall_timeout_s, 5.0);
  EXPECT_EQ(spec.retry.max_attempts, 4);
  EXPECT_DOUBLE_EQ(spec.retry.backoff_s, 0.25);
  EXPECT_TRUE(spec.retry.retry_timeout);
  EXPECT_DOUBLE_EQ(spec.batch.scheduling_interval, 30.0);
  EXPECT_EQ(spec.batch.max_requeues, 2);
  ASSERT_TRUE(spec.faults.has_value());
  EXPECT_DOUBLE_EQ(spec.faults->mtbf, 21600.0);
  EXPECT_EQ(spec.faults->failure_distribution, core::FailureDistribution::kWeibull);
}

TEST(SweepSpecTest, DefaultsSchedulersAndSeeds) {
  const core::SweepSpec spec = core::parse_sweep_spec(
      json::parse(R"({"platforms": ["p.json"], "workloads": ["w.json"]})"));
  EXPECT_EQ(spec.schedulers, std::vector<std::string>{"easy-malleable"});
  EXPECT_EQ(spec.seeds, std::vector<std::uint64_t>{1});
  EXPECT_EQ(spec.retry.max_attempts, 1);
}

TEST(SweepSpecTest, MissingPlatformsIsDiagnosed) {
  try {
    core::parse_sweep_spec(json::parse(R"({"workloads": ["w.json"]})"));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.platforms");
    EXPECT_EQ(error.found(), "nothing");
  }
}

TEST(SweepSpecTest, UnknownSchedulerIsDiagnosed) {
  try {
    core::parse_sweep_spec(json::parse(
        R"({"platforms": ["p.json"], "workloads": ["w.json"],
            "schedulers": ["fcfs", "frobnicate"]})"));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.schedulers[1]");
    EXPECT_EQ(error.expected(), "a known scheduler name");
  }
}

TEST(SweepSpecTest, BadSeedIsDiagnosed) {
  try {
    core::parse_sweep_spec(json::parse(
        R"({"platforms": ["p.json"], "workloads": ["w.json"], "seeds": [1, "x"]})"));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.seeds[1]");
  }
}

TEST(SweepSpecTest, BadRetryIsDiagnosed) {
  try {
    core::parse_sweep_spec(json::parse(
        R"({"platforms": ["p.json"], "workloads": ["w.json"],
            "retry": {"max_attempts": 0}})"));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.retry.max_attempts");
  }
}

TEST(SweepSpecTest, BadFaultsAreDiagnosed) {
  try {
    core::parse_sweep_spec(json::parse(
        R"({"platforms": ["p.json"], "workloads": ["w.json"], "faults": {}})"));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.faults.mtbf");
    EXPECT_EQ(error.expected(), "a positive duration");
  }
}

TEST(SweepSpecTest, InvalidFaultModelValueIsDiagnosed) {
  // A shape generate() cannot draw with fails at load, before any cell runs.
  try {
    core::parse_sweep_spec(json::parse(R"({"platforms": ["p.json"], "workloads": ["w.json"],
                                           "faults": {"mtbf": "3h", "weibull_shape": 0}})"));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.faults.weibull_shape");
    EXPECT_EQ(error.expected(), "a finite number above 0");
    EXPECT_EQ(error.found(), "0");
  }
}

// Each row must fail at its member instead of running on a default or a
// rounded value: a string number or flag, a seed above 2^53 - 1, a
// fractional count, an unknown key.
TEST(SweepSpecTest, MalformedMemberThrowsAtItsJsonPath) {
  const std::pair<const char*, const char*> cases[] = {
      {R"("faults": {"mtbf": "6h", "failure_dist": "weibull", "weibull_shape": "2"})",
       "$.faults.weibull_shape"},
      {R"("faults": {"mtbf": "6h", "repair_sigma": "0.5"})", "$.faults.repair_sigma"},
      {R"("faults": {"mtbf": "6h", "pod_correlation": true})", "$.faults.pod_correlation"},
      {R"("faults": {"mtbf": "6h", "seed": 3})", "$.faults.seed"},
      {R"("seeds": [1, 9007199254740993])", "$.seeds[1]"},
      {R"("seeds": [1.5])", "$.seeds[0]"},
      {R"("retry": {"crashed": "no"})", "$.retry.crashed"},
      {R"("retry": {"max_attempts": 2.5})", "$.retry.max_attempts"},
      {R"("batch": {"reconfig_cost": 1})", "$.batch.reconfig_cost"},
      {R"("batch": {"intervall": "30s"})", "$.batch.intervall"},
      {R"("batch": {"max_requeues": -1})", "$.batch.max_requeues"},
      {R"("timeout": "soon")", "$.timeout"},
      {R"("schedulers": [5])", "$.schedulers[0]"},
      {R"("thread": 4)", "$.thread"},
  };
  for (const auto& [member, path] : cases) {
    const std::string text =
        std::string(R"({"platforms": ["p.json"], "workloads": ["w.json"], )") + member + "}";
    try {
      core::parse_sweep_spec(json::parse(text));
      ADD_FAILURE() << "expected LoadError for " << text;
    } catch (const util::LoadError& error) {
      EXPECT_EQ(error.json_path(), path) << text;
    }
  }
}

// 2^53 - 1 is the largest seed a JSON number keeps exactly; the error for a
// larger one names that bound instead of running on a rounded seed.
TEST(SweepSpecTest, SeedErrorNamesTheBound) {
  const core::SweepSpec spec = core::parse_sweep_spec(json::parse(
      R"({"platforms": ["p.json"], "workloads": ["w.json"], "seeds": [9007199254740991]})"));
  EXPECT_EQ(spec.seeds, std::vector<std::uint64_t>{9007199254740991u});
  try {
    core::parse_sweep_spec(json::parse(
        R"({"platforms": ["p.json"], "workloads": ["w.json"], "seeds": [9007199254740993]})"));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.seeds[0]");
    EXPECT_EQ(error.expected(), "a non-negative integer below 2^53");
  }
}

TEST(SweepSpecTest, LoadAnnotatesTheFile) {
  const std::filesystem::path path =
      temp_file("elsim_sweep_bad.json", "{\"platforms\": [");
  try {
    core::load_sweep_spec(path.string());
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.file(), path.string());
    EXPECT_EQ(error.json_path(), "$");
    EXPECT_EQ(error.expected(), "valid JSON");
  }
  std::filesystem::remove(path);
}

// --- Loader error paths (platform / workload hardening) ---------------------

TEST(LoaderErrorTest, PlatformBadTopology) {
  try {
    platform::parse_cluster_config(json::parse(R"({"topology": "moebius"})"));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.topology");
    EXPECT_EQ(error.expected(), "a known topology name");
    EXPECT_EQ(error.found(), "\"moebius\"");
  }
}

TEST(LoaderErrorTest, PlatformBadNodeCount) {
  try {
    platform::parse_cluster_config(json::parse(R"({"nodes": "many"})"));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.nodes");
    EXPECT_EQ(error.expected(), "a positive integer");
  }
}

TEST(LoaderErrorTest, PlatformMalformedFileIsAnnotated) {
  const std::filesystem::path path =
      temp_file("elsim_platform_bad.json", "{\"nodes\": 4,}");
  try {
    platform::load_cluster_config(path.string());
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.file(), path.string());
    EXPECT_EQ(error.expected(), "valid JSON");
  }
  std::filesystem::remove(path);
}

TEST(LoaderErrorTest, WorkloadBadTaskTypeCarriesFullPath) {
  const json::Value value = json::parse(R"({"jobs": [{
    "id": 1, "application": {"phases": [{"groups": [[
      {"name": "t", "type": "quantum"}
    ]]}]}
  }]})");
  try {
    workload::workload_from_json(value);
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.jobs[0].application.phases[0].groups[0][0].type");
    EXPECT_EQ(error.expected(), "one of compute|comm|io|delay");
  }
}

TEST(LoaderErrorTest, WorkloadMissingApplicationNamesJob) {
  try {
    workload::workload_from_json(json::parse(R"({"jobs": [{"id": 7}]})"));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.jobs[0].application");
  }
}

// --- Determinism ------------------------------------------------------------

TEST(SweepDeterminismTest, SerialAndParallelCellsAgreeExactly) {
  const std::filesystem::path platform_path = temp_file("elsim_sweep_platform.json", R"({
    "topology": "star", "nodes": 4, "cores_per_node": 8, "flops_per_core": 1e9
  })");
  const std::filesystem::path workload_path = temp_file("elsim_sweep_workload.json", R"({
    "jobs": [
      {"id": 1, "type": "rigid", "submit_time": 0, "requested_nodes": 2,
       "application": {"phases": [{"iterations": 2, "groups": [[
         {"name": "w", "type": "compute", "work": 2e11, "scaling": "strong"}]]}]}},
      {"id": 2, "type": "malleable", "submit_time": 5, "requested_nodes": 2,
       "min_nodes": 1, "max_nodes": 4,
       "application": {"phases": [{"iterations": 3, "groups": [[
         {"name": "w", "type": "compute", "work": 1e11, "scaling": "strong"}]]}]}},
      {"id": 3, "type": "rigid", "submit_time": 10, "requested_nodes": 1,
       "application": {"phases": [{"iterations": 1, "groups": [[
         {"name": "w", "type": "compute", "work": 5e10, "scaling": "strong"}]]}]}}
    ]})");

  core::SweepSpec spec;
  spec.platforms = {platform_path.string()};
  spec.workloads = {workload_path.string()};
  spec.schedulers = {"fcfs", "easy-malleable"};
  spec.seeds = {1, 2};
  core::FaultModelConfig faults;
  faults.mtbf = 3600.0;
  faults.mean_repair = 60.0;
  faults.horizon = 4000.0;
  spec.faults = faults;

  const auto run_with_threads = [&spec](std::size_t threads) {
    core::SweepOptions options;
    options.threads = threads;
    core::SweepRunner runner(spec, options);
    return runner.run();
  };
  const core::SweepResult serial = run_with_threads(1);
  const core::SweepResult parallel = run_with_threads(4);

  ASSERT_EQ(serial.outcomes.size(), 4u);
  ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    const core::CellOutcome& a = serial.outcomes[i];
    const core::CellOutcome& b = parallel.outcomes[i];
    ASSERT_EQ(a.status, CellStatus::kOk) << "cell " << i;
    ASSERT_EQ(b.status, CellStatus::kOk) << "cell " << i;
    // Same cell, same inputs: every deterministic metric must match exactly,
    // regardless of worker count or completion order.
    EXPECT_EQ(a.metrics.events_processed, b.metrics.events_processed) << "cell " << i;
    EXPECT_EQ(a.metrics.makespan, b.metrics.makespan) << "cell " << i;
    EXPECT_EQ(a.metrics.finished, b.metrics.finished) << "cell " << i;
    EXPECT_EQ(a.metrics.requeues, b.metrics.requeues) << "cell " << i;
    EXPECT_EQ(a.metrics.mean_wait, b.metrics.mean_wait) << "cell " << i;
  }
  // The fault seeds axis must actually vary the failure realization.
  EXPECT_NE(serial.outcomes[0].metrics.events_processed,
            serial.outcomes[1].metrics.events_processed);

  std::filesystem::remove(platform_path);
  std::filesystem::remove(workload_path);
}
