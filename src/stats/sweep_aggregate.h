// Cross-run sweep aggregation: the deterministic streaming layer behind the
// sweep.json `aggregates` section (schema elastisim-sweep-v2) and the
// `elastisim sweep-report` comparison tables.
//
// A sweep produces one CellMetrics per succeeded cell, which carries the
// cell's per-job waits and bounded slowdowns. SweepAggregator folds those —
// always in grid order, cells one at a time — into per-(platform x workload x
// scheduler) distribution statistics:
//
//   - per-seed bands: the distribution of each *cell-level* metric (mean
//     wait, mean bounded slowdown, average utilization, makespan) across the
//     group's seeds,
//   - per-job distributions: exact wait-time and bounded-slowdown quantiles
//     over every completed job of the group's succeeded cells.
//
// Everything folded here is deterministic simulation output (no wall-clock
// values), and the fold happens after the sweep in grid order, so the
// emitted JSON is byte-identical across --threads 1 and --threads N runs —
// the property cli_sweep_report_smoke enforces.
//
// Quantiles are exact: values are kept, sorted at summary time, and read at
// rank q*(n-1) with linear interpolation between neighbors (the scheme
// docs/FORMATS.md documents). Mean/stddev are two-pass over insertion order;
// stddev is the population form (divide by n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "json/json.h"

namespace elastisim::stats {

/// Distribution summary of one metric: moments plus exact quantiles.
struct DistSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // population stddev (divide by n)
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Accumulates raw values and produces a DistSummary with exact quantiles.
/// Values are retained (exactness needs them); memory is linear in the
/// sample count, which is bounded by jobs-per-group for the heaviest use.
class DistAccumulator {
 public:
  void add(double value) { values_.push_back(value); }
  bool empty() const { return values_.empty(); }

  /// Exact quantile with linear interpolation: rank q*(n-1) of the sorted
  /// sample. Empty input returns 0.0; q is clamped to [0, 1].
  static double quantile(std::vector<double> values, double q);

  /// All-zero (count 0) when nothing was added — never NaN.
  DistSummary summary() const;

 private:
  std::vector<double> values_;
};

/// The DistSummary JSON shape shared by every aggregates member:
/// {count, mean, stddev, min, max, p50, p95, p99}.
json::Value dist_summary_to_json(const DistSummary& summary);

/// Metric sample of one succeeded cell: the deterministic CellMetrics fields
/// the seed-variance bands are computed over, and the per-job values of its
/// completed jobs (stats::JobRecord::wait_time() and bounded_slowdown()).
struct SweepCellSample {
  std::uint64_t seed = 0;
  double mean_wait_s = 0.0;
  double mean_bounded_slowdown = 0.0;
  double avg_utilization = 0.0;
  double makespan_s = 0.0;
  std::vector<double> job_waits;
  std::vector<double> job_slowdowns;
};

/// Folds per-cell results into per-(platform x workload x scheduler) groups.
/// Feed cells in grid order: groups are emitted in first-seen order, so the
/// output order — like everything else here — is a pure function of the
/// sweep spec, never of worker scheduling.
class SweepAggregator {
 public:
  /// Counts a cell toward its group. Only succeeded cells should also call
  /// add_cell_sample; failed ones still show up in `cells`.
  void add_cell(const std::string& platform, const std::string& workload,
                const std::string& scheduler);

  /// Folds a succeeded cell's metric values into the group's per-seed bands
  /// and its per-job values into the group's per-job distributions.
  void add_cell_sample(const std::string& platform, const std::string& workload,
                       const std::string& scheduler, SweepCellSample sample);

  std::size_t group_count() const { return groups_.size(); }

  /// The sweep.json `aggregates` section (docs/FORMATS.md,
  /// elastisim-sweep-v2). Deterministic: group order is insertion order,
  /// member order is fixed, quantiles are exact.
  json::Value to_json() const;

 private:
  struct Group {
    std::string platform;
    std::string workload;
    std::string scheduler;
    std::size_t cells = 0;      ///< all cells of the group, any status
    std::size_t succeeded = 0;  ///< cells that contributed samples (and jobs)
    std::vector<std::uint64_t> seeds;  ///< seeds of succeeded cells, fold order
    DistAccumulator mean_wait_s;
    DistAccumulator mean_bounded_slowdown;
    DistAccumulator avg_utilization;
    DistAccumulator makespan_s;
    /// Per-job samples across the group's succeeded cells.
    DistAccumulator job_wait_s;
    DistAccumulator job_bounded_slowdown;
  };

  Group& group_for(const std::string& platform, const std::string& workload,
                   const std::string& scheduler);

  std::vector<Group> groups_;
};

}  // namespace elastisim::stats
