// Job model, scaling rules, generator, SWF import/export, JSON round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

#include "util/load_error.h"
#include "workload/generator.h"
#include "workload/job.h"
#include "workload/swf.h"
#include "workload/workload_io.h"

namespace elastisim::workload {
namespace {

// ---------------------------------------------------------------------------
// Scaling models
// ---------------------------------------------------------------------------

TEST(Scaling, StrongSplitsWork) {
  EXPECT_DOUBLE_EQ(scaled_work_per_node(ScalingModel::kStrong, 100.0, 0.0, 4), 25.0);
  EXPECT_DOUBLE_EQ(scaled_work_per_node(ScalingModel::kStrong, 100.0, 0.0, 1), 100.0);
}

TEST(Scaling, WeakKeepsPerNodeWork) {
  EXPECT_DOUBLE_EQ(scaled_work_per_node(ScalingModel::kWeak, 100.0, 0.0, 4), 100.0);
}

TEST(Scaling, AmdahlLimitsSpeedup) {
  const double alpha = 0.1;
  const double at_1 = scaled_work_per_node(ScalingModel::kAmdahl, 100.0, alpha, 1);
  const double at_16 = scaled_work_per_node(ScalingModel::kAmdahl, 100.0, alpha, 16);
  EXPECT_DOUBLE_EQ(at_1, 100.0);
  // Speedup bounded by 1/alpha.
  EXPECT_GT(at_16, 100.0 * alpha);
  EXPECT_NEAR(at_16, 100.0 * (0.1 + 0.9 / 16.0), 1e-9);
}

TEST(Scaling, AmdahlZeroAlphaEqualsStrong) {
  EXPECT_DOUBLE_EQ(scaled_work_per_node(ScalingModel::kAmdahl, 80.0, 0.0, 8),
                   scaled_work_per_node(ScalingModel::kStrong, 80.0, 0.0, 8));
}

TEST(Scaling, MonotoneInNodes) {
  for (auto model : {ScalingModel::kStrong, ScalingModel::kAmdahl}) {
    double previous = scaled_work_per_node(model, 100.0, 0.2, 1);
    for (int k = 2; k <= 64; k *= 2) {
      const double current = scaled_work_per_node(model, 100.0, 0.2, k);
      EXPECT_LE(current, previous);
      previous = current;
    }
  }
}

// ---------------------------------------------------------------------------
// Job validation
// ---------------------------------------------------------------------------

Job minimal_job() {
  Job job;
  job.id = 1;
  job.requested_nodes = job.min_nodes = job.max_nodes = 2;
  Phase phase;
  phase.name = "p";
  phase.groups.push_back({Task{"c", ComputeTask{1e9, ScalingModel::kStrong, 0.0}}});
  job.application.phases.push_back(std::move(phase));
  return job;
}

TEST(JobValidate, MinimalJobIsValid) { EXPECT_FALSE(minimal_job().validate().has_value()); }

TEST(JobValidate, RejectsEmptyApplication) {
  Job job = minimal_job();
  job.application.phases.clear();
  EXPECT_TRUE(job.validate().has_value());
}

TEST(JobValidate, RejectsInvertedBounds) {
  Job job = minimal_job();
  job.type = JobType::kMalleable;
  job.min_nodes = 4;
  job.max_nodes = 2;
  EXPECT_TRUE(job.validate().has_value());
}

TEST(JobValidate, RejectsRigidWithRange) {
  Job job = minimal_job();
  job.min_nodes = 1;
  job.max_nodes = 4;
  EXPECT_TRUE(job.validate().has_value());
}

TEST(JobValidate, RejectsNonPositiveIterations) {
  Job job = minimal_job();
  job.application.phases[0].iterations = 0;
  EXPECT_TRUE(job.validate().has_value());
}

TEST(JobValidate, RejectsEvolvingDeltaOnRigid) {
  Job job = minimal_job();
  job.application.phases[0].evolving_delta = 2;
  EXPECT_TRUE(job.validate().has_value());
}

TEST(JobValidate, RejectsNegativeSubmitTime) {
  Job job = minimal_job();
  job.submit_time = -1.0;
  EXPECT_TRUE(job.validate().has_value());
}

TEST(JobValidate, ClampNodes) {
  Job job = minimal_job();
  job.type = JobType::kMalleable;
  job.min_nodes = 2;
  job.max_nodes = 8;
  EXPECT_EQ(job.clamp_nodes(1), 2);
  EXPECT_EQ(job.clamp_nodes(5), 5);
  EXPECT_EQ(job.clamp_nodes(100), 8);
}

TEST(JobValidate, TypeNamesRoundTrip) {
  for (JobType type : {JobType::kRigid, JobType::kMoldable, JobType::kMalleable,
                       JobType::kEvolving}) {
    EXPECT_EQ(job_type_from_string(to_string(type)), type);
  }
  EXPECT_FALSE(job_type_from_string("elastic").has_value());
}

TEST(JobValidate, TotalIterationsSumsPhases) {
  Job job = minimal_job();
  job.application.phases[0].iterations = 3;
  Phase extra;
  extra.name = "q";
  extra.iterations = 4;
  extra.groups.push_back({Task{"d", DelayTask{1.0}}});
  job.application.phases.push_back(std::move(extra));
  EXPECT_EQ(job.application.total_iterations(), 7);
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

GeneratorConfig small_config() {
  GeneratorConfig config;
  config.job_count = 50;
  config.seed = 7;
  config.min_nodes = 1;
  config.max_nodes = 16;
  return config;
}

TEST(Generator, ProducesRequestedCount) {
  EXPECT_EQ(generate_workload(small_config()).size(), 50u);
}

TEST(Generator, AllJobsValid) {
  for (const Job& job : generate_workload(small_config())) {
    EXPECT_FALSE(job.validate().has_value()) << "job " << job.id;
  }
}

TEST(Generator, DeterministicForSeed) {
  const auto a = generate_workload(small_config());
  const auto b = generate_workload(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].requested_nodes, b[i].requested_nodes);
    EXPECT_DOUBLE_EQ(a[i].walltime_limit, b[i].walltime_limit);
  }
}

TEST(Generator, SeedChangesWorkload) {
  auto config = small_config();
  const auto a = generate_workload(config);
  config.seed = 8;
  const auto b = generate_workload(config);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].submit_time != b[i].submit_time) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Generator, PrefixStableWhenCountGrows) {
  auto config = small_config();
  const auto small = generate_workload(config);
  config.job_count = 80;
  const auto large = generate_workload(config);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_DOUBLE_EQ(small[i].submit_time, large[i].submit_time);
    EXPECT_EQ(small[i].requested_nodes, large[i].requested_nodes);
  }
}

TEST(Generator, SubmitTimesSorted) {
  const auto jobs = generate_workload(small_config());
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_LE(jobs[i - 1].submit_time, jobs[i].submit_time);
  }
}

TEST(Generator, NodesArePowersOfTwoInRange) {
  for (const Job& job : generate_workload(small_config())) {
    EXPECT_GE(job.requested_nodes, 1);
    EXPECT_LE(job.requested_nodes, 16);
    EXPECT_EQ(job.requested_nodes & (job.requested_nodes - 1), 0);
  }
}

TEST(Generator, ClassMixApproximatelyHonored) {
  auto config = small_config();
  config.job_count = 2000;
  config.malleable_fraction = 0.4;
  config.moldable_fraction = 0.2;
  config.evolving_fraction = 0.1;
  std::map<JobType, int> counts;
  for (const Job& job : generate_workload(config)) ++counts[job.type];
  const double n = 2000.0;
  EXPECT_NEAR(counts[JobType::kMalleable] / n, 0.4, 0.05);
  EXPECT_NEAR(counts[JobType::kMoldable] / n, 0.2, 0.05);
  EXPECT_NEAR(counts[JobType::kEvolving] / n, 0.1, 0.03);
  EXPECT_NEAR(counts[JobType::kRigid] / n, 0.3, 0.05);
}

TEST(Generator, PureRigidWhenFractionsZero) {
  for (const Job& job : generate_workload(small_config())) {
    EXPECT_EQ(job.type, JobType::kRigid);
  }
}

TEST(Generator, IoFractionAddsIoPhases) {
  auto config = small_config();
  config.io_fraction = 1.0;
  for (const Job& job : generate_workload(config)) {
    EXPECT_EQ(job.application.phases.front().name, "input");
    EXPECT_EQ(job.application.phases.back().name, "output");
  }
}

TEST(Generator, CheckpointFractionAddsCheckpointTask) {
  auto config = small_config();
  config.checkpoint_fraction = 1.0;
  const auto jobs = generate_workload(config);
  bool found = false;
  for (const TaskGroup& group : jobs[0].application.phases[0].groups) {
    for (const Task& task : group) {
      if (task.name == "checkpoint") found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Generator, EvolvingJobsHaveRequests) {
  auto config = small_config();
  config.evolving_fraction = 1.0;
  config.min_nodes = 4;  // span so deltas are possible
  config.max_nodes = 32;
  config.evolving_phase_fraction = 1.0;
  int with_delta = 0;
  for (const Job& job : generate_workload(config)) {
    EXPECT_EQ(job.type, JobType::kEvolving);
    for (const Phase& phase : job.application.phases) {
      if (phase.evolving_delta != 0) ++with_delta;
    }
  }
  EXPECT_GT(with_delta, 0);
}

TEST(Generator, MainLoopCalibratedToDrawnTime) {
  // Per-iteration compute at the requested size should land within the
  // generator's draw range [0.5, 2] x mean.
  auto config = small_config();
  config.mean_iteration_compute = 100.0;
  config.comm_bytes = 0.0;
  for (const Job& job : generate_workload(config)) {
    const double estimate =
        estimate_runtime(job, job.requested_nodes, config.flops_per_node);
    const double per_iteration = estimate / job.application.total_iterations();
    EXPECT_GE(per_iteration, 49.0);
    EXPECT_LE(per_iteration, 201.0);
  }
}

TEST(Generator, WalltimeCoversEstimate) {
  const auto config = small_config();
  for (const Job& job : generate_workload(config)) {
    const double estimate =
        estimate_runtime(job, job.requested_nodes, config.flops_per_node);
    EXPECT_GE(job.walltime_limit, estimate);
  }
}

TEST(EstimateRuntime, MoreNodesNeverSlower) {
  const auto jobs = generate_workload(small_config());
  for (const Job& job : jobs) {
    const double at_min = estimate_runtime(job, 1, 48e9);
    const double at_more = estimate_runtime(job, 8, 48e9);
    EXPECT_LE(at_more, at_min * (1.0 + 1e-9));
  }
}

// ---------------------------------------------------------------------------
// SWF
// ---------------------------------------------------------------------------

constexpr const char* kSwfSample = R"(; UnixStartTime: 0
; MaxNodes: 128
  ; indented comment
1 0 10 3600 64 -1 -1 64 7200 -1 1 3 -1 -1 -1 -1 -1 -1
2 60 -1 100 8 -1 -1 8 -1 -1 1 5 -1 -1 -1 -1 -1 -1
3 120 5 0 16 -1 -1 16 300 -1 0 3 -1 -1 -1 -1 -1 -1
garbage line that should be skipped
4 180 5 50 -1 -1 -1 4 300 -1 1 9 -1 -1 -1 -1 -1 -1
)";

TEST(Swf, ParsesValidRecordsOnly) {
  std::istringstream in(kSwfSample);
  const auto records = parse_swf(in);
  // Record 3 has run_time 0 and is dropped; the garbage line is skipped.
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].job_number, 1);
  EXPECT_DOUBLE_EQ(records[0].run_time, 3600.0);
  EXPECT_EQ(records[0].requested_processors, 64);
  EXPECT_DOUBLE_EQ(records[0].requested_time, 7200.0);
}

TEST(Swf, UsesAllocatedWhenRequestedMissing) {
  std::istringstream in(kSwfSample);
  const auto records = parse_swf(in);
  SwfImportOptions options;
  const auto jobs = jobs_from_swf(records, options);
  // Record 4 requested 4 processors (field 8) with allocated -1.
  EXPECT_EQ(jobs.back().requested_nodes, 4);
}

TEST(Swf, ImportProducesValidRigidJobs) {
  std::istringstream in(kSwfSample);
  const auto jobs = jobs_from_swf(parse_swf(in), SwfImportOptions{});
  for (const Job& job : jobs) {
    EXPECT_FALSE(job.validate().has_value());
    EXPECT_EQ(job.type, JobType::kRigid);
  }
}

TEST(Swf, ProcessorsRoundUpToNodes) {
  std::istringstream in("1 0 0 100 9 -1 -1 9 200 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  SwfImportOptions options;
  options.processors_per_node = 4;
  const auto jobs = jobs_from_swf(parse_swf(in), options);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].requested_nodes, 3);  // ceil(9/4)
}

TEST(Swf, RuntimeCalibration) {
  std::istringstream in("1 0 0 500 8 -1 -1 8 1000 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  SwfImportOptions options;
  options.flops_per_node = 1e9;
  const auto jobs = jobs_from_swf(parse_swf(in), options);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_NEAR(estimate_runtime(jobs[0], 8, options.flops_per_node), 500.0, 1e-6);
}

TEST(Swf, MalleableRewrite) {
  std::ostringstream trace;
  trace << "; header\n";
  for (int i = 1; i <= 40; ++i) {
    trace << i << " " << i * 10 << " 0 100 8 -1 -1 8 200 -1 1 1 -1 -1 -1 -1 -1 -1\n";
  }
  std::istringstream in(trace.str());
  SwfImportOptions options;
  options.malleable_fraction = 0.5;
  options.max_nodes = 64;
  const auto jobs = jobs_from_swf(parse_swf(in), options);
  int malleable = 0;
  for (const Job& job : jobs) {
    EXPECT_FALSE(job.validate().has_value());
    if (job.type == JobType::kMalleable) {
      ++malleable;
      EXPECT_LT(job.min_nodes, job.requested_nodes);
      EXPECT_GT(job.max_nodes, job.requested_nodes);
    }
  }
  EXPECT_GT(malleable, 8);
  EXPECT_LT(malleable, 32);
}

TEST(Swf, WalltimeNeverBelowRuntime) {
  // Requested time (field 9) below the recorded runtime must be corrected.
  std::istringstream in("1 0 0 1000 4 -1 -1 4 500 -1 1 1 -1 -1 -1 -1 -1 -1\n");
  const auto jobs = jobs_from_swf(parse_swf(in), SwfImportOptions{});
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_GE(jobs[0].walltime_limit, 1000.0);
}

TEST(Swf, ExportReimportPreservesShape) {
  GeneratorConfig config;
  config.job_count = 10;
  config.seed = 3;
  const auto jobs = generate_workload(config);
  std::ostringstream out;
  write_swf(out, jobs, config.flops_per_node, 1);
  std::istringstream in(out.str());
  SwfImportOptions options;
  options.flops_per_node = config.flops_per_node;
  const auto reimported = jobs_from_swf(parse_swf(in), options);
  ASSERT_EQ(reimported.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(reimported[i].requested_nodes, jobs[i].requested_nodes);
    EXPECT_NEAR(reimported[i].submit_time, jobs[i].submit_time, 0.51);
  }
}

// ---------------------------------------------------------------------------
// JSON workload round-trip
// ---------------------------------------------------------------------------

TEST(WorkloadIo, RoundTripsGeneratedWorkload) {
  GeneratorConfig config;
  config.job_count = 20;
  config.seed = 5;
  config.malleable_fraction = 0.3;
  config.evolving_fraction = 0.2;
  config.io_fraction = 0.4;
  config.checkpoint_fraction = 0.3;
  const auto jobs = generate_workload(config);
  const auto back = workload_from_json(workload_to_json(jobs));
  ASSERT_EQ(back.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(back[i].id, jobs[i].id);
    EXPECT_EQ(back[i].type, jobs[i].type);
    EXPECT_DOUBLE_EQ(back[i].submit_time, jobs[i].submit_time);
    EXPECT_EQ(back[i].min_nodes, jobs[i].min_nodes);
    EXPECT_EQ(back[i].max_nodes, jobs[i].max_nodes);
    EXPECT_DOUBLE_EQ(back[i].walltime_limit, jobs[i].walltime_limit);
    ASSERT_EQ(back[i].application.phases.size(), jobs[i].application.phases.size());
    for (std::size_t p = 0; p < jobs[i].application.phases.size(); ++p) {
      const Phase& original = jobs[i].application.phases[p];
      const Phase& restored = back[i].application.phases[p];
      EXPECT_EQ(restored.iterations, original.iterations);
      EXPECT_EQ(restored.evolving_delta, original.evolving_delta);
      ASSERT_EQ(restored.groups.size(), original.groups.size());
    }
  }
}

TEST(WorkloadIo, TaskPayloadsSurviveRoundTrip) {
  Job job = minimal_job();
  job.application.phases[0].groups.push_back(
      {Task{"x", CommTask{CommPattern::kStencil2D, 12345.0}},
       Task{"w", IoTask{true, 6789.0, ScalingModel::kWeak, IoTarget::kBurstBuffer}},
       Task{"d", DelayTask{3.25}}});
  const Job back = job_from_json(job_to_json(job));
  const TaskGroup& group = back.application.phases[0].groups[1];
  ASSERT_EQ(group.size(), 3u);
  const auto& comm = std::get<CommTask>(group[0].payload);
  EXPECT_EQ(comm.pattern, CommPattern::kStencil2D);
  EXPECT_DOUBLE_EQ(comm.bytes, 12345.0);
  const auto& io = std::get<IoTask>(group[1].payload);
  EXPECT_TRUE(io.write);
  EXPECT_EQ(io.scaling, ScalingModel::kWeak);
  EXPECT_EQ(io.target, IoTarget::kBurstBuffer);
  const auto& delay = std::get<DelayTask>(group[2].payload);
  EXPECT_DOUBLE_EQ(delay.seconds, 3.25);
}

TEST(WorkloadIo, InfiniteWalltimeOmittedAndRestored) {
  Job job = minimal_job();
  job.walltime_limit = std::numeric_limits<double>::infinity();
  const json::Value value = job_to_json(job);
  EXPECT_EQ(value.find("walltime_limit"), nullptr);
  EXPECT_TRUE(std::isinf(job_from_json(value).walltime_limit));
}

TEST(WorkloadIo, RejectsUnknownTaskType) {
  EXPECT_THROW(job_from_json(json::parse(R"({
    "id": 1, "type": "rigid", "requested_nodes": 1, "min_nodes": 1, "max_nodes": 1,
    "application": {"phases": [{"name": "p", "groups": [[{"type": "quantum"}]]}]}
  })")),
               std::runtime_error);
}

TEST(WorkloadIo, RejectsUnknownJobType) {
  EXPECT_THROW(job_from_json(json::parse(R"({"id": 1, "type": "wobbly",
    "application": {"phases": []}})")),
               std::runtime_error);
}

TEST(WorkloadIo, RejectsMissingApplication) {
  EXPECT_THROW(job_from_json(json::parse(R"({"id": 1, "type": "rigid"})")),
               std::runtime_error);
}

TEST(WorkloadIo, RejectsInvalidJob) {
  // min > max fails Job::validate() during deserialization.
  EXPECT_THROW(job_from_json(json::parse(R"({
    "id": 1, "type": "malleable", "requested_nodes": 4, "min_nodes": 8, "max_nodes": 2,
    "application": {"phases": [{"name": "p", "groups": []}]}
  })")),
               std::runtime_error);
}

TEST(WorkloadIo, RejectsDuplicateJobId) {
  std::vector<Job> jobs = {minimal_job(), minimal_job(), minimal_job()};
  jobs[0].id = 3;
  jobs[1].id = 4;
  jobs[2].id = 3;
  try {
    workload_from_json(workload_to_json(jobs));
    FAIL() << "expected LoadError";
  } catch (const util::LoadError& error) {
    EXPECT_EQ(error.json_path(), "$.jobs[2].id");
    EXPECT_EQ(error.found(), "duplicate job id 3, first used at $.jobs[0]");
  }
}

/// A two-job workload with `text` at `at` ("@job0", "@phase", "@task" or
/// "@job1") and every other marker removed.
std::string two_jobs(const std::string& at, const std::string& text) {
  std::string out = R"({"jobs": [
      {"id": 1@job0, "application": {"phases": [
        {"name": "p"@phase, "groups": [[{"type": "io", "bytes": 1024@task}]]}]}},
      {"id": 2@job1, "application": {"phases": [{"groups": [[{"type": "delay"}]]}]}}]})";
  for (const char* marker : {"@job0", "@phase", "@task", "@job1"}) {
    out.replace(out.find(marker), std::strlen(marker), at == marker ? text : "");
  }
  return out;
}

// Each row must fail at its member, not at the job and not by running on
// another value: a string count or flag, a count past int, a fractional id,
// a misspelled or misplaced key.
TEST(WorkloadIo, MalformedMemberThrowsAtItsJsonPath) {
  const std::string task = "$.jobs[0].application.phases[0].groups[0][0]";
  const struct {
    const char* at;
    const char* text;
    std::string path;
  } cases[] = {
      {"@phase", R"(, "iterations": "3")", "$.jobs[0].application.phases[0].iterations"},
      {"@phase", R"(, "iterations": 4294967298)", "$.jobs[0].application.phases[0].iterations"},
      {"@task", R"(, "write": "false")", task + ".write"},
      {"@job0", R"(, "type": "rigid", "requested_nodes": 4294967297,
                    "min_nodes": 4294967297, "max_nodes": 4294967297)",
       "$.jobs[0].requested_nodes"},
      {"@job0", ".6", "$.jobs[0].id"},
      {"@job1", R"(, "walltime": 5)", "$.jobs[1].walltime"},
      {"@job1", R"(, "dependencies": ["1"])", "$.jobs[1].dependencies[0]"},
      {"@job1", R"(, "priority": 1.5)", "$.jobs[1].priority"},
      {"@job0", R"(, "walltime_limit": "soon")", "$.jobs[0].walltime_limit"},
      {"@job0", R"(, "submit_time": -1)", "$.jobs[0].submit_time"},
      {"@phase", R"(, "group": [])", "$.jobs[0].application.phases[0].group"},
      {"@task", R"(, "target": "tape")", task + ".target"},
      {"@task", R"(, "seconds": 1)", task + ".seconds"},
  };
  for (const auto& c : cases) {
    const std::string text = two_jobs(c.at, c.text);
    try {
      workload_from_json(json::parse(text));
      ADD_FAILURE() << "expected LoadError for " << text;
    } catch (const util::LoadError& error) {
      EXPECT_EQ(error.json_path(), c.path) << text;
    }
  }
  EXPECT_EQ(workload_from_json(json::parse(two_jobs("", ""))).size(), 2u);
}

// A unit string reads as the value it spells, in every quantity member.
TEST(WorkloadIo, UnitStringsReadAsTheirValues) {
  const Job with_units = job_from_json(json::parse(R"({"id": 1, "submit_time": "10",
      "walltime_limit": "1h", "memory_per_node": "2GiB",
      "application": {"state_bytes_per_node": "1MiB", "phases": [{"groups": [[
        {"type": "io", "bytes": "32GiB"}, {"type": "compute", "work": "2GF"},
        {"type": "comm", "bytes": "64KiB"}, {"type": "delay", "seconds": "2m"}]]}]}})"));
  const Job with_numbers = job_from_json(json::parse(R"({"id": 1, "submit_time": 10,
      "walltime_limit": 3600, "memory_per_node": 2147483648,
      "application": {"state_bytes_per_node": 1048576, "phases": [{"groups": [[
        {"type": "io", "bytes": 34359738368}, {"type": "compute", "work": 2e9},
        {"type": "comm", "bytes": 65536}, {"type": "delay", "seconds": 120}]]}]}})"));
  EXPECT_EQ(json::dump(job_to_json(with_units)), json::dump(job_to_json(with_numbers)));
  EXPECT_DOUBLE_EQ(with_units.walltime_limit, 3600.0);
  EXPECT_DOUBLE_EQ(with_units.submit_time, 10.0);
}

// Every optional branch of job_to_json (priorities, dependencies,
// checkpoints, evolving deltas, memory, GPU and delay tasks) reads back to
// the same workload.
TEST(WorkloadIo, FileRoundTrip) {
  GeneratorConfig config;
  config.job_count = 40;
  config.malleable_fraction = 0.3;
  config.evolving_fraction = 0.3;
  config.evolving_phase_fraction = 1.0;
  config.io_fraction = 0.3;
  config.checkpoint_fraction = 0.3;
  config.max_priority = 5;
  config.chain_fraction = 0.3;
  auto jobs = generate_workload(config);
  jobs[0].memory_bytes_per_node = 64.0 * 1024 * 1024 * 1024;
  ComputeTask gpu{1e12, ScalingModel::kStrong, 0.0, ComputeTarget::kGpu};
  jobs[0].application.phases[0].groups.push_back(
      {Task{"gpu", gpu}, Task{"settle", DelayTask{1.5}}});
  const std::string path = testing::TempDir() + "/elsim_workload_test.json";
  save_workload(path, jobs);
  const auto back = load_workload(path);
  EXPECT_EQ(back.size(), jobs.size());
  EXPECT_EQ(json::dump(workload_to_json(back)), json::dump(workload_to_json(jobs)));
  const std::string written = json::dump(workload_to_json(jobs));
  for (const char* key : {"\"priority\"", "\"dependencies\"", "\"checkpoint\"",
                          "\"evolving_delta\"", "\"memory_per_node\"", "\"alpha\"",
                          "\"walltime_limit\"", "\"gpu\"", "\"seconds\""}) {
    EXPECT_NE(written.find(key), std::string::npos) << key;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace elastisim::workload
