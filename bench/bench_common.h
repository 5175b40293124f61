// Shared setup for the experiment harnesses (bench_r*): the reference
// evaluation platform, workload factories, and table printing.
//
// Every harness prints a self-describing CSV block to stdout so EXPERIMENTS.md
// and downstream plotting scripts can consume the rows directly.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <algorithm>

#include "core/simulation.h"
#include "json/json.h"
#include "platform/cluster.h"
#include "stats/journal.h"
#include "stats/profiler.h"
#include "stats/state_sampler.h"
#include "stats/telemetry.h"
#include "stats/telemetry_sink.h"
#include "workload/generator.h"

namespace elastisim::bench {

namespace detail {
/// Event-queue high-water mark across every bench::run() in this process —
/// the capacity figure the TelemetryScope summary reports next to peak RSS.
inline std::uint64_t& queue_high_water() {
  static std::uint64_t mark = 0;
  return mark;
}
}  // namespace detail

/// The reference cluster used across experiments: 128 nodes, 48 x 2 GF cores,
/// 12.5 GB/s injection links, fat-tree pods of 16 with 100 GB/s uplinks, and
/// a 120/80 GB/s PFS.
inline platform::ClusterConfig reference_platform(std::size_t nodes = 128) {
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

/// The reference workload: 200 jobs, 1-64 node power-of-two sizes, iterative
/// compute + allreduce applications, 30% with I/O phases. `malleable_fraction`
/// is the evaluation's main axis.
inline workload::GeneratorConfig reference_workload(double malleable_fraction,
                                                    std::size_t jobs = 200,
                                                    std::uint64_t seed = 42) {
  workload::GeneratorConfig config;
  config.job_count = jobs;
  config.seed = seed;
  config.mean_interarrival = 45.0;
  config.min_nodes = 1;
  config.max_nodes = 64;
  config.malleable_fraction = malleable_fraction;
  config.mean_iteration_compute = 60.0;
  config.flops_per_node = 48.0 * 2e9;
  config.comm_bytes = 64.0 * 1024 * 1024;
  config.io_fraction = 0.3;
  config.io_bytes = 4.0 * 1024 * 1024 * 1024;
  config.state_bytes_per_node = 256.0 * 1024 * 1024;
  return config;
}

/// Directory from ELSIM_BENCH_JOURNAL ("1" = working directory), empty when
/// the variable is unset — the opt-in switch for per-run decision journals.
inline const std::string& journal_dir() {
  static const std::string dir = [] {
    const char* raw = std::getenv("ELSIM_BENCH_JOURNAL");
    if (!raw || !*raw) return std::string();
    return std::string(raw) == "1" ? std::string(".") : std::string(raw);
  }();
  return dir;
}

/// Directory from ELSIM_BENCH_TIMESERIES ("1" = working directory), empty
/// when unset — the opt-in switch for per-run state timelines
/// (<dir>/<scheduler>.<n>.timeseries.csv, the format behind
/// `elastisim report`).
inline const std::string& timeseries_dir() {
  static const std::string dir = [] {
    const char* raw = std::getenv("ELSIM_BENCH_TIMESERIES");
    if (!raw || !*raw) return std::string();
    return std::string(raw) == "1" ? std::string(".") : std::string(raw);
  }();
  return dir;
}

inline core::SimulationResult run(const platform::ClusterConfig& platform,
                                  const std::string& scheduler,
                                  std::vector<workload::Job> jobs,
                                  core::BatchConfig batch = {}) {
  core::SimulationConfig config;
  config.platform = platform;
  config.scheduler = scheduler;
  config.batch = batch;
  stats::DecisionJournal journal;
  if (!journal_dir().empty()) {
    config.subscribers.push_back(&journal);
    config.checked_sinks.journal = &journal;
  }
  stats::StateSampler sampler;
  if (!timeseries_dir().empty()) {
    config.subscribers.push_back(&sampler);
    config.checked_sinks.sampler = &sampler;
  }
  const double wall_begin = telemetry::enabled() ? telemetry::wall_now() : 0.0;
  core::SimulationResult result = core::run_simulation(config, std::move(jobs));
  detail::queue_high_water() = std::max(detail::queue_high_water(), result.queue_peak);
  if (!timeseries_dir().empty()) {
    // Numbered like the journals: <dir>/<scheduler>.<n>.timeseries.csv.
    static int sample_index = 0;
    const std::string path = timeseries_dir() + "/" + scheduler + "." +
                             std::to_string(sample_index++) + ".timeseries.csv";
    try {
      std::filesystem::create_directories(timeseries_dir());
      sampler.save(path);
      std::fprintf(stderr, "timeseries: wrote %s (%zu samples)\n", path.c_str(),
                   sampler.samples().size());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "timeseries: write failed: %s\n", error.what());
    }
  }
  if (!journal_dir().empty()) {
    // One journal per bench::run(), numbered in call order:
    //   <dir>/<scheduler>.<n>.journal.jsonl
    static int run_index = 0;
    const std::string path = journal_dir() + "/" + scheduler + "." +
                             std::to_string(run_index++) + ".journal.jsonl";
    try {
      std::filesystem::create_directories(journal_dir());
      journal.save(path);
      std::fprintf(stderr, "journal: wrote %s (%zu records)\n", path.c_str(),
                   journal.size());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "journal: write failed: %s\n", error.what());
    }
  }
  if (telemetry::enabled()) {
    auto& registry = telemetry::Registry::global();
    registry.counter("bench.runs").add();
    registry.counter("bench.events").add(result.events_processed);
    registry.histogram("bench.run_seconds").record(telemetry::wall_now() - wall_begin);
  }
  return result;
}

/// Subscribes the batch telemetry sink to a harness-built BatchSystem while
/// telemetry is on (bench::run gets one from core::run_scenario).
class BatchTelemetry {
 public:
  explicit BatchTelemetry(core::BatchSystem& batch) {
    if (telemetry::enabled()) batch.subscribe(&sink_.emplace());
  }

 private:
  std::optional<stats::TelemetrySink> sink_;
};

/// Opt-in telemetry for the experiment harnesses: when the environment
/// variable ELSIM_BENCH_TELEMETRY is set, enables collection for the
/// harness's lifetime and writes <dir>/<name>.telemetry.json on destruction
/// (the variable's value is the directory; "1" means the working directory).
/// Every bench::run() records events/sec and a per-run wall-time histogram,
/// so any bench_r* binary can be profiled without a rebuild:
///   ELSIM_BENCH_TELEMETRY=out ./bench_r3_scheduler_comparison
class TelemetryScope {
 public:
  explicit TelemetryScope(std::string name) : name_(std::move(name)) {
    const char* dir = std::getenv("ELSIM_BENCH_TELEMETRY");
    if (!dir || !*dir) return;
    dir_ = std::string(dir) == "1" ? "." : dir;
    telemetry::set_enabled(true);
    start_ = telemetry::wall_now();
  }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  ~TelemetryScope() {
    if (dir_.empty()) return;
    auto& registry = telemetry::Registry::global();
    const double wall = telemetry::wall_now() - start_;
    const auto events = registry.counter("bench.events").value();
    json::Object out;
    out["bench"] = name_;
    out["wall_seconds"] = wall;
    out["events"] = static_cast<std::int64_t>(events);
    out["events_per_second"] = wall > 0.0 ? static_cast<double>(events) / wall : 0.0;
    out["peak_rss_bytes"] = static_cast<std::int64_t>(stats::profiler::peak_rss_bytes());
    out["queue_peak"] = static_cast<std::int64_t>(detail::queue_high_water());
    out["registry"] = registry.to_json();
    try {
      std::filesystem::create_directories(dir_);
      json::write_file(dir_ + "/" + name_ + ".telemetry.json",
                       json::Value(std::move(out)));
      std::fprintf(stderr, "telemetry: wrote %s/%s.telemetry.json\n", dir_.c_str(),
                   name_.c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "telemetry: write failed: %s\n", error.what());
    }
  }

 private:
  std::string name_;
  std::string dir_;
  double start_ = 0.0;
};

/// Prints "# <title>" followed by a CSV header — the harness convention.
inline void table_header(const std::string& title, const std::string& columns) {
  std::printf("# %s\n%s\n", title.c_str(), columns.c_str());
}

}  // namespace elastisim::bench
