// Tests for the sweep aggregator: exact-quantile and variance math on known
// inputs, group ordering and JSON shape, and per-job value folding.
#include "stats/sweep_aggregate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sweep_runner.h"
#include "json/json.h"
#include "workload/job.h"

using namespace elastisim;
using stats::DistAccumulator;
using stats::DistSummary;
using stats::SweepAggregator;
using stats::SweepCellSample;

namespace {

SweepCellSample sample(std::uint64_t seed, double wait, double slowdown,
                       double utilization, double makespan) {
  SweepCellSample out;
  out.seed = seed;
  out.mean_wait_s = wait;
  out.mean_bounded_slowdown = slowdown;
  out.avg_utilization = utilization;
  out.makespan_s = makespan;
  return out;
}

// --- exact quantiles ---------------------------------------------------------

TEST(DistAccumulatorTest, QuantilesInterpolateLinearly) {
  // 1..10: rank p*(n-1) with linear interpolation between neighbors.
  std::vector<double> values;
  for (int i = 1; i <= 10; ++i) values.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(DistAccumulator::quantile(values, 0.50), 5.5);
  EXPECT_DOUBLE_EQ(DistAccumulator::quantile(values, 0.95), 9.55);
  EXPECT_DOUBLE_EQ(DistAccumulator::quantile(values, 0.99), 9.91);
  EXPECT_DOUBLE_EQ(DistAccumulator::quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(DistAccumulator::quantile(values, 1.0), 10.0);
}

TEST(DistAccumulatorTest, QuantileIsExactOnUnsortedInput) {
  std::vector<double> values = {9.0, 1.0, 5.0};  // sorted internally
  EXPECT_DOUBLE_EQ(DistAccumulator::quantile(values, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(DistAccumulator::quantile(values, 0.25), 3.0);
}

TEST(DistAccumulatorTest, PopulationStddevOnKnownInput) {
  // The textbook example: stddev({2,4,4,4,5,5,7,9}) = 2 exactly (÷ n).
  DistAccumulator accumulator;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) accumulator.add(v);
  const DistSummary summary = accumulator.summary();
  EXPECT_EQ(summary.count, 8u);
  EXPECT_DOUBLE_EQ(summary.mean, 5.0);
  EXPECT_DOUBLE_EQ(summary.stddev, 2.0);
  EXPECT_DOUBLE_EQ(summary.min, 2.0);
  EXPECT_DOUBLE_EQ(summary.max, 9.0);
  EXPECT_DOUBLE_EQ(summary.p50, 4.5);
}

TEST(DistAccumulatorTest, EmptySummaryIsAllZeros) {
  DistAccumulator accumulator;
  EXPECT_TRUE(accumulator.empty());
  const DistSummary summary = accumulator.summary();
  EXPECT_EQ(summary.count, 0u);
  EXPECT_DOUBLE_EQ(summary.mean, 0.0);
  EXPECT_DOUBLE_EQ(summary.stddev, 0.0);
  EXPECT_DOUBLE_EQ(summary.min, 0.0);
  EXPECT_DOUBLE_EQ(summary.max, 0.0);
  EXPECT_DOUBLE_EQ(summary.p99, 0.0);
}

TEST(DistAccumulatorTest, SingleValueCollapsesEveryStatistic) {
  DistAccumulator accumulator;
  accumulator.add(42.0);
  const DistSummary summary = accumulator.summary();
  EXPECT_EQ(summary.count, 1u);
  EXPECT_DOUBLE_EQ(summary.mean, 42.0);
  EXPECT_DOUBLE_EQ(summary.stddev, 0.0);
  EXPECT_DOUBLE_EQ(summary.min, 42.0);
  EXPECT_DOUBLE_EQ(summary.max, 42.0);
  EXPECT_DOUBLE_EQ(summary.p50, 42.0);
  EXPECT_DOUBLE_EQ(summary.p95, 42.0);
  EXPECT_DOUBLE_EQ(summary.p99, 42.0);
}

// --- aggregator groups and JSON shape ---------------------------------------

TEST(SweepAggregatorTest, GroupsKeepFirstAppearanceOrder) {
  SweepAggregator aggregator;
  aggregator.add_cell("p.json", "w.json", "fcfs");
  aggregator.add_cell("p.json", "w.json", "easy");
  aggregator.add_cell("p.json", "w.json", "fcfs");  // same group again
  aggregator.add_cell_sample("p.json", "w.json", "fcfs", sample(1, 10.0, 2.0, 0.5, 100.0));
  aggregator.add_cell_sample("p.json", "w.json", "fcfs", sample(2, 20.0, 4.0, 0.7, 200.0));
  EXPECT_EQ(aggregator.group_count(), 2u);

  const json::Value out = aggregator.to_json();
  EXPECT_EQ(out.member_or("quantiles", ""), "exact-linear-interpolation");
  const json::Value* groups = out.find("groups");
  ASSERT_NE(groups, nullptr);
  ASSERT_EQ(groups->as_array().size(), 2u);
  const json::Value& fcfs = groups->as_array()[0];
  EXPECT_EQ(fcfs.member_or("scheduler", ""), "fcfs");
  EXPECT_EQ(fcfs.member_or("cells", std::int64_t{0}), 2);
  EXPECT_EQ(fcfs.member_or("succeeded", std::int64_t{0}), 2);
  const json::Value* seeds = fcfs.find("seeds");
  ASSERT_NE(seeds, nullptr);
  ASSERT_EQ(seeds->as_array().size(), 2u);
  EXPECT_EQ(seeds->as_array()[0].as_int(), 1);

  const json::Value* metrics = fcfs.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* wait = metrics->find("mean_wait_s");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->member_or("count", std::int64_t{0}), 2);
  EXPECT_DOUBLE_EQ(wait->member_or("mean", 0.0), 15.0);
  EXPECT_DOUBLE_EQ(wait->member_or("stddev", 0.0), 5.0);
  EXPECT_DOUBLE_EQ(wait->member_or("p50", 0.0), 15.0);

  // Both succeeded cells count toward the per-job section, even without jobs.
  const json::Value* jobs = fcfs.find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->member_or("cells_with_jobs", std::int64_t{0}), 2);
  EXPECT_EQ(jobs->find("wait_s")->member_or("count", std::int64_t{-1}), 0);

  // The easy group exists with zero samples (its cell never succeeded), and
  // its jobs member is absent, not empty.
  const json::Value& easy = groups->as_array()[1];
  EXPECT_EQ(easy.member_or("succeeded", std::int64_t{0}), 0);
  EXPECT_EQ(easy.find("jobs"), nullptr);
}

// --- per-job folding ---------------------------------------------------------

TEST(SweepAggregatorTest, FoldsPerJobValues) {
  // Two cells of one group: waits 5 and 0 with slowdowns 1.5 and 1.0, then
  // one job with wait 7 and slowdown 2.
  SweepCellSample first = sample(1, 2.5, 1.25, 0.5, 15.0);
  first.job_waits = {5.0, 0.0};
  first.job_slowdowns = {1.5, 1.0};
  SweepCellSample second = sample(2, 7.0, 2.0, 0.5, 20.0);
  second.job_waits = {7.0};
  second.job_slowdowns = {2.0};
  SweepAggregator aggregator;
  aggregator.add_cell("p", "w", "fcfs");
  aggregator.add_cell_sample("p", "w", "fcfs", std::move(first));
  aggregator.add_cell("p", "w", "fcfs");
  aggregator.add_cell_sample("p", "w", "fcfs", std::move(second));
  const json::Value out = aggregator.to_json();
  const json::Value* jobs = out.find("groups")->as_array()[0].find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->member_or("cells_with_jobs", std::int64_t{0}), 2);
  const json::Value* wait = jobs->find("wait_s");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->member_or("count", std::int64_t{0}), 3);
  EXPECT_DOUBLE_EQ(wait->member_or("mean", 0.0), 4.0);
  EXPECT_DOUBLE_EQ(wait->member_or("max", 0.0), 7.0);
  EXPECT_DOUBLE_EQ(wait->member_or("p50", 0.0), 5.0);
  const json::Value* slowdown = jobs->find("bounded_slowdown");
  ASSERT_NE(slowdown, nullptr);
  EXPECT_DOUBLE_EQ(slowdown->member_or("min", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(slowdown->member_or("max", 0.0), 2.0);
}

TEST(SweepAggregatorTest, SkipsUnfinishedJobs) {
  // A cell with one completed job (wait 5 s, bounded slowdown 15/10) and one
  // that never started: only the completed one reaches the per-job
  // distributions the sweep runner hands the aggregator.
  core::SweepSpec spec;
  spec.platforms = {"unopened-platform.json"};
  spec.workloads = {"unopened-workload.json"};
  spec.schedulers = {"fcfs"};
  spec.seeds = {1};
  core::SweepOptions options;
  options.threads = 1;
  core::SweepRunner runner(spec, options);
  runner.set_cell_body([](const core::SweepCell&, sim::CancellationToken&) {
    core::SimulationResult result;
    workload::Job job;
    for (workload::JobId id : {1, 2}) {
      job.id = id;
      result.recorder.on_submit(job, 0.0);
    }
    result.recorder.on_start(1, 5.0, 1);
    result.recorder.on_finish(1, 15.0, /*killed=*/false);
    return result;
  });
  const json::Value report = core::sweep_result_to_json(spec, runner.run(), 1);
  const json::Value* jobs =
      report.find("aggregates")->find("groups")->as_array()[0].find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->member_or("cells_with_jobs", std::int64_t{0}), 1);
  EXPECT_EQ(jobs->find("wait_s")->member_or("count", std::int64_t{0}), 1);
  EXPECT_DOUBLE_EQ(jobs->find("wait_s")->member_or("max", 0.0), 5.0);
  EXPECT_EQ(jobs->find("bounded_slowdown")->member_or("count", std::int64_t{0}), 1);
  EXPECT_DOUBLE_EQ(jobs->find("bounded_slowdown")->member_or("max", 0.0), 1.5);
}

}  // namespace
