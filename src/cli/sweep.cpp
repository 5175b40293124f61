#include "cli/sweep.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_runner.h"
#include "json/json.h"
#include "stats/profiler.h"
#include "util/flags.h"
#include "util/load_error.h"

namespace elastisim::cli {

namespace {

/// Set by the SIGINT/SIGTERM handler; the sweep watchdog polls it and turns
/// it into cooperative cancellation of every in-flight cell.
std::atomic<bool> g_sweep_interrupt{false};

void handle_sweep_signal(int) { g_sweep_interrupt.store(true); }

void usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s sweep <sweep.json> [--threads <n>] [--out-dir <dir>]\n"
               "          [--cell-outputs true|false] [--progress]\n"
               "          [--inject-crash <i,j,...>] [--inject-stall <i,j,...>]\n",
               program);
}

/// Parses "3,17,24" into cell indices; returns false on garbage.
bool parse_index_list(const std::string& text, std::set<std::size_t>& out) {
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(begin, end - begin);
    if (!token.empty()) {
      std::size_t value = 0;
      const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec != std::errc{} || ptr != token.data() + token.size()) return false;
      out.insert(value);
    }
    begin = end + 1;
  }
  return true;
}

/// Prints the cell, per-scheduler and totals tables of a sweep.json report.
void print_summary(const json::Value& report) {
  const auto count = [](const json::Value& object, std::string_view key) {
    return static_cast<long long>(object.find(key)->as_int());
  };
  const auto number = [](const json::Value& object, std::string_view key) {
    return object.find(key)->as_double();
  };
  std::printf("\n%-5s %-22s %-9s %6s %9s  %s\n", "cell", "scheduler/seed", "status",
              "tries", "time", "detail");
  for (const json::Value& cell : report.find("cells")->as_array()) {
    const std::string label =
        cell.member_or("scheduler", "") + "/" + std::to_string(count(cell, "seed"));
    std::string detail = cell.member_or("error", "");
    if (const json::Value* metrics = cell.find("metrics"); detail.empty() && metrics) {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "makespan %.0fs", number(*metrics, "makespan_s"));
      detail = buffer;
    }
    std::printf("%-5lld %-22s %-9s %6lld %8.2fs  %s\n", count(cell, "index"), label.c_str(),
                cell.member_or("status", "").c_str(), count(cell, "attempts"),
                number(cell, "duration_s"), detail.c_str());
  }

  std::printf("\n%-20s %6s %6s %14s %12s %10s %6s\n", "scheduler", "cells", "ok",
              "mean makespan", "mean wait", "slowdown", "util");
  for (const json::Value& row : report.find("by_scheduler")->as_array()) {
    std::printf("%-20s %6lld %6lld %13.0fs %11.1fs %10.2f %5.0f%%\n",
                row.member_or("scheduler", "").c_str(), count(row, "cells"),
                count(row, "succeeded"), number(row, "mean_makespan_s"),
                number(row, "mean_wait_s"), number(row, "mean_bounded_slowdown"),
                100.0 * number(row, "avg_utilization"));
  }

  const json::Value& totals = *report.find("totals");
  std::printf("\n%lld/%lld cells succeeded (ok %lld, retried %lld, timeout %lld, stalled %lld, "
              "crashed %lld, skipped %lld)%s\n",
              count(totals, "succeeded"), count(totals, "cells"), count(totals, "ok"),
              count(totals, "retried"), count(totals, "timeout"), count(totals, "stalled"),
              count(totals, "crashed"), count(totals, "skipped"),
              report.member_or("interrupted", false) ? " — interrupted, partial results" : "");
}

}  // namespace

int run_sweep(const util::Flags& flags) {
  const char* program = flags.program().empty() ? "elastisim" : flags.program().c_str();
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "error: sweep requires a spec file\n");
    usage(program);
    return 2;
  }
  const std::string spec_path = flags.positional()[1];
  const std::string out_dir = flags.get("out-dir", std::string("sweep-results"));
  const bool cell_outputs = flags.get("cell-outputs", true);
  const bool progress = flags.get("progress", false);
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get("threads", static_cast<std::int64_t>(hardware))));

  std::set<std::size_t> crash_cells;
  std::set<std::size_t> stall_cells;
  if (!parse_index_list(flags.get("inject-crash", std::string()), crash_cells) ||
      !parse_index_list(flags.get("inject-stall", std::string()), stall_cells)) {
    std::fprintf(stderr, "error: --inject-crash/--inject-stall take comma-separated "
                         "cell indices\n");
    usage(program);
    return 2;
  }

  if (flags.report_unknown()) {
    usage(program);
    return 2;
  }

  core::SweepSpec spec;
  try {
    spec = core::load_sweep_spec(spec_path);
  } catch (const util::LoadError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }

  core::SweepOptions options;
  options.threads = threads;
  if (cell_outputs) options.cell_output_dir = out_dir;
  options.interrupt = &g_sweep_interrupt;
  options.progress = progress;

  core::SweepRunner runner(std::move(spec), std::move(options));
  try {
    // Parse every input up front: a malformed platform/workload fails the
    // sweep cleanly before any output directory exists.
    runner.load_inputs();
  } catch (const util::LoadError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }

  if (!crash_cells.empty() || !stall_cells.empty()) {
    runner.set_cell_body([&runner, crash_cells, stall_cells](
                             const core::SweepCell& cell, sim::CancellationToken& token) {
      if (crash_cells.count(cell.index) != 0) {
        // Die inside a profiled phase so the flight recorder's postmortem
        // names the dying phase, like a real scheduler crash would.
        ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kScheduler);
        throw std::runtime_error("injected crash in cell " + std::to_string(cell.index));
      }
      if (stall_cells.count(cell.index) != 0) {
        // Burn wall-clock without event progress until the stall watchdog
        // (or a timeout/interrupt) cancels the token.
        ELSIM_PROFILE_SCOPE(stats::profiler::Phase::kScheduler);
        while (!token.cancelled()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return core::SimulationResult{};
      }
      return runner.run_cell(cell, token);
    });
  }

  std::printf("sweep: %zu cells (%zu platforms x %zu workloads x %zu schedulers x %zu "
              "seeds) on %zu threads\n",
              runner.cells().size(), runner.spec().platforms.size(),
              runner.spec().workloads.size(), runner.spec().schedulers.size(),
              runner.spec().seeds.size(), threads);

  g_sweep_interrupt.store(false);
  std::signal(SIGINT, handle_sweep_signal);
  std::signal(SIGTERM, handle_sweep_signal);
  core::SweepResult result = runner.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  const int exit_code = core::sweep_exit_code(result);
  const json::Value report = core::sweep_result_to_json(runner.spec(), std::move(result), threads);
  print_summary(report);

  std::filesystem::create_directories(out_dir);
  const std::string sweep_json = out_dir + "/sweep.json";
  json::write_file(sweep_json, report);
  const std::string extra = cell_outputs ? " and " + out_dir + "/cells/*/" : std::string();
  std::printf("wrote %s%s\n", sweep_json.c_str(), extra.c_str());

  return exit_code;
}

}  // namespace elastisim::cli
