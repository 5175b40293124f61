// Fault-tolerant parallel scenario orchestrator: the engine behind
// `elastisim sweep`.
//
// A sweep expands a (platforms x workloads x schedulers x seeds) grid into
// cells and fans them across a worker pool. Platform and workload files are
// parsed ONCE into immutable shared snapshots (run_scenario copies the job
// list per cell); each cell then runs crash-isolated:
//
//   - exceptions (including util::CheckError) are captured into the cell's
//     outcome instead of killing the sweep,
//   - a wall-clock timeout and a stall watchdog (no event progress through
//     the cell's CancellationToken within a budget) tear a cell down
//     cooperatively,
//   - failed cells retry with capped exponential backoff when their status
//     is configured retryable,
//   - an external interrupt flag (SIGINT/SIGTERM) cancels in-flight cells
//     and marks pending ones skipped — completed results are never lost.
//
// Determinism contract: a cell's simulation output depends only on its
// inputs, never on pool size or completion order; per-cell artifacts are
// byte-identical between --threads 1 and --threads 32 runs (enforced by
// cli_sweep_smoke). The orchestration layer itself reports cells in grid
// order regardless of which worker finished them when.
//
// See docs/SWEEP.md for the sweep.json schemas and the status glossary.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/fault_injector.h"
#include "core/simulation.h"
#include "json/json.h"
#include "sim/cancellation.h"

namespace elastisim::core {

/// Terminal state of one sweep cell.
enum class CellStatus {
  /// Completed on the first attempt.
  kOk,
  /// Completed, but only after at least one retry.
  kRetried,
  /// Cancelled after exceeding the per-cell wall-clock budget.
  kTimeout,
  /// Cancelled by the stall watchdog (no event progress within budget).
  kStalled,
  /// The cell body threw; the exception message is captured in the outcome.
  kCrashed,
  /// Never ran (or was cancelled mid-run) because the sweep was interrupted.
  kSkipped,
};

std::string to_string(CellStatus status);

/// Retry policy for failed cells. Backoff before attempt n (2-based) is
/// backoff_s * 2^(n-2), so attempts pace out without livelocking a sweep on
/// a deterministic failure.
struct SweepRetryPolicy {
  /// Total attempts a retryable cell may consume (1 = no retries).
  int max_attempts = 1;
  /// Base backoff before the first retry, seconds.
  double backoff_s = 0.5;
  bool retry_crashed = true;
  bool retry_stalled = true;
  bool retry_timeout = false;

  bool retries(CellStatus status) const {
    return (status == CellStatus::kCrashed && retry_crashed) ||
           (status == CellStatus::kStalled && retry_stalled) ||
           (status == CellStatus::kTimeout && retry_timeout);
  }
};

/// Parsed sweep description (the input sweep.json; schema in docs/SWEEP.md).
struct SweepSpec {
  std::vector<std::string> platforms;   ///< platform JSON paths
  std::vector<std::string> workloads;   ///< workload JSON paths
  std::vector<std::string> schedulers;  ///< make_scheduler() names
  std::vector<std::uint64_t> seeds;     ///< per-cell seeds (default {1})
  /// Per-cell wall-clock budget, seconds; 0 = unlimited.
  double timeout_s = 0.0;
  /// Stall budget, seconds: a cell whose token reports no new events for
  /// this long is cancelled as stalled; 0 disables the watchdog.
  double stall_timeout_s = 0.0;
  SweepRetryPolicy retry;
  /// Batch-system knobs shared by every cell.
  BatchConfig batch;
  /// Optional fault model; when present, each cell generates a failure
  /// schedule with the cell's seed as the master seed (the seeds axis then
  /// samples failure realizations).
  std::optional<FaultModelConfig> faults;
};

/// Parses a sweep spec; throws util::LoadError naming the JSON path of any
/// malformed member. Scheduler names are validated against the registry.
SweepSpec parse_sweep_spec(const json::Value& value);

/// Loads a sweep spec from a file (util::LoadError carries the file name).
SweepSpec load_sweep_spec(const std::string& path);

/// One point of the expanded grid. Grid order: platforms outermost, then
/// workloads, schedulers, seeds; `index` is the rank in that order.
struct SweepCell {
  std::size_t index = 0;
  std::size_t platform_index = 0;
  std::size_t workload_index = 0;
  std::string scheduler;
  std::uint64_t seed = 1;
};

/// Deterministic summary metrics of one completed cell (no wall-clock
/// values: everything here must be byte-stable across pool sizes).
struct CellMetrics {
  std::size_t submitted = 0;
  std::size_t finished = 0;
  std::size_t killed = 0;
  std::size_t stuck = 0;
  double makespan = 0.0;
  double mean_wait = 0.0;
  double max_wait = 0.0;
  double mean_turnaround = 0.0;
  double mean_bounded_slowdown = 0.0;
  double avg_utilization = 0.0;
  std::size_t requeues = 0;
  double lost_node_seconds = 0.0;
  std::uint64_t events_processed = 0;
  /// Wait and bounded slowdown of every completed job, in record order (the
  /// per-job distributions of sweep.json's aggregates; not in metrics.json).
  std::vector<double> job_waits;
  std::vector<double> job_slowdowns;
};

struct CellOutcome {
  CellStatus status = CellStatus::kSkipped;
  /// Attempts consumed (0 when the cell never started).
  int attempts = 0;
  /// Wall-clock seconds across all attempts (includes backoff sleeps).
  double duration_s = 0.0;
  /// Last failure's message; empty for clean cells.
  std::string error;
  /// Path (relative to the sweep output dir) of the postmortem.json the
  /// final failed attempt left behind; empty for clean/skipped cells or when
  /// cell outputs are off.
  std::string postmortem;
  bool has_metrics = false;
  CellMetrics metrics;

  bool succeeded() const {
    return status == CellStatus::kOk || status == CellStatus::kRetried;
  }
};

struct SweepOptions {
  /// Worker threads; clamped to [1, cell count].
  std::size_t threads = 1;
  /// When non-empty, each completed cell writes <dir>/cells/<index>/jobs.csv
  /// and metrics.json (the artifacts the byte-identity smoke compares).
  std::string cell_output_dir;
  /// External interrupt (SIGINT handler sets it); polled by the watchdog.
  /// Not owned; may be nullptr.
  const std::atomic<bool>* interrupt = nullptr;
  /// Watchdog sampling period, seconds (tests shrink it).
  double watchdog_period_s = 0.02;
  /// Live heartbeat: the watchdog prints "progress: done/total, cells/s,
  /// eta" to stderr while the sweep runs (the `--progress` CLI flag).
  bool progress = false;
  /// Minimum seconds between heartbeat lines (tests shrink it).
  double progress_period_s = 1.0;
};

struct SweepResult {
  std::vector<SweepCell> cells;
  std::vector<CellOutcome> outcomes;  ///< parallel to `cells`, grid order
  bool interrupted = false;

  std::size_t count(CellStatus status) const;
  std::size_t succeeded() const;
  /// True when any cell did not succeed (or the sweep was interrupted):
  /// the output carries "partial": true and the exit code signals it.
  bool partial() const;
};

class SweepRunner {
 public:
  /// A cell body runs one attempt and returns its result; the default body
  /// is run_cell(). Bodies must honor the token cooperatively and may throw
  /// (the worker captures the exception as kCrashed). Tests and the
  /// --inject-crash/--inject-stall hooks substitute their own.
  using CellBody =
      std::function<SimulationResult(const SweepCell& cell, sim::CancellationToken& token)>;

  SweepRunner(SweepSpec spec, SweepOptions options);
  ~SweepRunner();  // out-of-line: Slot is incomplete here

  const SweepSpec& spec() const { return spec_; }
  const std::vector<SweepCell>& cells() const { return cells_; }

  /// Replaces the default cell body (test seam / failure injection). A
  /// custom body that delegates to run_cell() must call load_inputs() first.
  void set_cell_body(CellBody body) { body_ = std::move(body); }

  /// Parses every platform and workload file once into shared immutable
  /// snapshots; throws util::LoadError on the first malformed input, before
  /// any sweep output exists. Idempotent.
  void load_inputs();

  /// The default cell body: copies the cell's shared inputs into a fresh
  /// run_scenario call (generating a per-seed failure schedule when the spec
  /// has a fault model). Requires load_inputs().
  SimulationResult run_cell(const SweepCell& cell, sim::CancellationToken& token) const;

  /// Runs the whole grid; never throws for per-cell failures. Calls
  /// load_inputs() when the default body is in use.
  SweepResult run();

 private:
  struct Slot;

  CellOutcome run_one(const SweepCell& cell, Slot& slot);
  void worker(Slot& slot);
  void watchdog();
  bool interrupt_requested() const {
    return options_.interrupt != nullptr &&
           options_.interrupt->load(std::memory_order_relaxed);
  }
  void write_cell_outputs(const SweepCell& cell, const SimulationResult& result,
                          const CellMetrics& metrics) const;
  /// Dumps the worker thread's flight recorder for a cell that ended
  /// crashed/stalled/timed-out, recording the relative path in `outcome`.
  /// Best-effort: a postmortem that cannot be written never fails the sweep.
  void write_cell_postmortem(const SweepCell& cell, CellOutcome& outcome,
                             const sim::CancellationToken* token) const;

  SweepSpec spec_;
  SweepOptions options_;
  std::vector<SweepCell> cells_;
  CellBody body_;
  bool inputs_loaded_ = false;
  std::vector<std::shared_ptr<const platform::ClusterConfig>> platform_snapshots_;
  std::vector<std::shared_ptr<const std::vector<workload::Job>>> workload_snapshots_;

  // Run-scoped state (valid during run()).
  std::unique_ptr<Slot[]> slots_;
  std::size_t slot_count_ = 0;
  std::vector<CellOutcome> outcomes_;
  std::atomic<std::size_t> next_cell_{0};
  std::atomic<std::size_t> cells_done_{0};
  std::atomic<bool> stop_watchdog_{false};
  std::atomic<bool> interrupted_{false};
  /// Sweep start, for the heartbeat's cells/sec and ETA.
  std::chrono::steady_clock::time_point run_begin_{};
};

/// Serializes a finished sweep (schema "elastisim-sweep-v2": per-cell
/// status/attempts/duration/metrics, per-scheduler mean tables, and the
/// `aggregates` section — per-(platform x workload x scheduler) distribution
/// statistics with seed-variance bands and exact per-job wait and
/// bounded-slowdown quantiles, built by stats::SweepAggregator in grid order
/// so the section is byte-identical across pool sizes). Takes the result by
/// value: the cells' per-job values move into the aggregator.
json::Value sweep_result_to_json(const SweepSpec& spec, SweepResult result, std::size_t threads);

/// 0 = every cell succeeded; 3 = sweep completed but partial (failed or
/// skipped cells — graceful degradation, results were still written).
int sweep_exit_code(const SweepResult& result);

}  // namespace elastisim::core
