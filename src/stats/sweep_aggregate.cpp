#include "stats/sweep_aggregate.h"

#include <algorithm>
#include <cmath>

namespace elastisim::stats {

namespace {

/// Reads a sorted, non-empty sample at rank q*(n-1), interpolating linearly
/// between neighbors.
double interpolate(const std::vector<double>& sorted, double q) {
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

double DistAccumulator::quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return interpolate(values, std::clamp(q, 0.0, 1.0));
}

DistSummary DistAccumulator::summary() const {
  DistSummary out;
  out.count = values_.size();
  if (values_.empty()) return out;

  // Two-pass moments in insertion order: the fold order is fixed (grid
  // order), so the float accumulation is reproducible bit for bit.
  double sum = 0.0;
  for (double v : values_) sum += v;
  out.mean = sum / static_cast<double>(values_.size());
  double squares = 0.0;
  for (double v : values_) squares += (v - out.mean) * (v - out.mean);
  out.stddev = std::sqrt(squares / static_cast<double>(values_.size()));

  std::vector<double> sorted(values_);
  std::sort(sorted.begin(), sorted.end());
  out.min = sorted.front();
  out.max = sorted.back();
  out.p50 = interpolate(sorted, 0.50);
  out.p95 = interpolate(sorted, 0.95);
  out.p99 = interpolate(sorted, 0.99);
  return out;
}

json::Value dist_summary_to_json(const DistSummary& summary) {
  json::Object out;
  out["count"] = summary.count;
  out["mean"] = summary.mean;
  out["stddev"] = summary.stddev;
  out["min"] = summary.min;
  out["max"] = summary.max;
  out["p50"] = summary.p50;
  out["p95"] = summary.p95;
  out["p99"] = summary.p99;
  return json::Value(std::move(out));
}

SweepAggregator::Group& SweepAggregator::group_for(const std::string& platform,
                                                   const std::string& workload,
                                                   const std::string& scheduler) {
  for (Group& group : groups_) {
    // elsim-lint: allow(float-equality) -- std::string comparisons
    if (group.platform == platform && group.workload == workload &&
        group.scheduler == scheduler) {
      return group;
    }
  }
  Group group;
  group.platform = platform;
  group.workload = workload;
  group.scheduler = scheduler;
  groups_.push_back(std::move(group));
  return groups_.back();
}

void SweepAggregator::add_cell(const std::string& platform, const std::string& workload,
                               const std::string& scheduler) {
  ++group_for(platform, workload, scheduler).cells;
}

void SweepAggregator::add_cell_sample(const std::string& platform,
                                      const std::string& workload,
                                      const std::string& scheduler,
                                      SweepCellSample sample) {
  Group& group = group_for(platform, workload, scheduler);
  ++group.succeeded;
  group.seeds.push_back(sample.seed);
  group.mean_wait_s.add(sample.mean_wait_s);
  group.mean_bounded_slowdown.add(sample.mean_bounded_slowdown);
  group.avg_utilization.add(sample.avg_utilization);
  group.makespan_s.add(sample.makespan_s);
  for (double v : sample.job_waits) group.job_wait_s.add(v);
  for (double v : sample.job_slowdowns) group.job_bounded_slowdown.add(v);
}

json::Value SweepAggregator::to_json() const {
  json::Object out;
  // Self-describing quantile provenance so downstream consumers never have
  // to guess which estimator produced p50/p95/p99.
  out["quantiles"] = std::string("exact-linear-interpolation");
  json::Array groups;
  for (const Group& group : groups_) {
    json::Object entry;
    entry["platform"] = group.platform;
    entry["workload"] = group.workload;
    entry["scheduler"] = group.scheduler;
    entry["cells"] = group.cells;
    entry["succeeded"] = group.succeeded;
    json::Array seeds;
    for (std::uint64_t seed : group.seeds) {
      seeds.emplace_back(static_cast<std::size_t>(seed));
    }
    entry["seeds"] = json::Value(std::move(seeds));
    json::Object metrics;
    metrics["mean_wait_s"] = dist_summary_to_json(group.mean_wait_s.summary());
    metrics["mean_bounded_slowdown"] =
        dist_summary_to_json(group.mean_bounded_slowdown.summary());
    metrics["avg_utilization"] = dist_summary_to_json(group.avg_utilization.summary());
    metrics["makespan_s"] = dist_summary_to_json(group.makespan_s.summary());
    entry["metrics"] = json::Value(std::move(metrics));
    if (group.succeeded > 0) {
      json::Object jobs;
      jobs["cells_with_jobs"] = group.succeeded;
      jobs["wait_s"] = dist_summary_to_json(group.job_wait_s.summary());
      jobs["bounded_slowdown"] =
          dist_summary_to_json(group.job_bounded_slowdown.summary());
      entry["jobs"] = json::Value(std::move(jobs));
    }
    groups.emplace_back(std::move(entry));
  }
  out["groups"] = json::Value(std::move(groups));
  return json::Value(std::move(out));
}

}  // namespace elastisim::stats
