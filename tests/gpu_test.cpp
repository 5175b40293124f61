// GPU/accelerator model: per-node GPU resources, compute-task targeting,
// CPU/GPU overlap within a task group, and serialization.
#include <gtest/gtest.h>

#include "core/job_execution.h"
#include "platform/loader.h"
#include "test_support.h"
#include "workload/workload_io.h"

namespace elastisim::core {
namespace {

using test::tiny_platform;
using workload::ComputeTarget;
using workload::ComputeTask;
using workload::Job;
using workload::Phase;
using workload::ScalingModel;
using workload::Task;
using workload::TaskGroup;

platform::ClusterConfig gpu_platform(std::size_t nodes) {
  auto config = tiny_platform(nodes);
  config.gpus_per_node = 4;
  config.flops_per_gpu = 5e9;  // 20 GF of GPU vs 1 GF of CPU per node
  return config;
}

struct Fixture {
  explicit Fixture(platform::ClusterConfig config) : cluster(engine, config) {}

  double run_job(Job job, std::vector<platform::NodeId> nodes) {
    stored = std::move(job);
    double completed = -1.0;
    JobExecution execution(
        engine, cluster, stored, std::move(nodes), [] {},
        [&] { completed = engine.now(); });
    execution.start();
    engine.run();
    return completed;
  }

  sim::Engine engine;
  platform::Cluster cluster;
  Job stored;
};

Job compute_targeted(ComputeTarget target, double work) {
  Job job;
  job.id = 1;
  job.requested_nodes = job.min_nodes = job.max_nodes = 2;
  Phase phase;
  phase.name = "p";
  phase.groups.push_back(
      {Task{"c", ComputeTask{work, ScalingModel::kStrong, 0.0, target}}});
  job.application.phases.push_back(std::move(phase));
  return job;
}

TEST(Gpu, PlatformBuildsGpuResources) {
  sim::Engine engine;
  platform::Cluster cluster(engine, gpu_platform(2));
  ASSERT_TRUE(cluster.node(0).gpu.has_value());
  EXPECT_DOUBLE_EQ(engine.fluid().capacity(*cluster.node(0).gpu), 20e9);
  EXPECT_DOUBLE_EQ(cluster.node(0).gpu_capacity(), 20e9);
}

TEST(Gpu, CpuOnlyPlatformHasNoGpuResource) {
  sim::Engine engine;
  platform::Cluster cluster(engine, tiny_platform(2));
  EXPECT_FALSE(cluster.node(0).gpu.has_value());
}

TEST(Gpu, GpuTaskRunsAtGpuSpeed) {
  Fixture f(gpu_platform(2));
  // 4e10 FLOPs over 2 nodes: per-node 2e10 at 20 GF/s -> 1 s.
  EXPECT_DOUBLE_EQ(f.run_job(compute_targeted(ComputeTarget::kGpu, 4e10), {0, 1}), 1.0);
}

TEST(Gpu, CpuTaskUnaffectedByGpus) {
  Fixture f(gpu_platform(2));
  // Same work on the 1 GF/s CPUs -> 20 s.
  EXPECT_DOUBLE_EQ(f.run_job(compute_targeted(ComputeTarget::kCpu, 4e10), {0, 1}), 20.0);
}

TEST(Gpu, GpuTaskFallsBackToCpuWithoutGpus) {
  Fixture f(tiny_platform(2));
  EXPECT_DOUBLE_EQ(f.run_job(compute_targeted(ComputeTarget::kGpu, 4e10), {0, 1}), 20.0);
}

TEST(Gpu, CpuAndGpuTasksOverlapInOneGroup) {
  Fixture f(gpu_platform(2));
  Job job;
  job.id = 1;
  job.requested_nodes = job.min_nodes = job.max_nodes = 2;
  Phase phase;
  phase.name = "p";
  phase.groups.push_back(TaskGroup{
      Task{"cpu-part", ComputeTask{4e10, ScalingModel::kStrong, 0.0, ComputeTarget::kCpu}},
      Task{"gpu-part", ComputeTask{4e10, ScalingModel::kStrong, 0.0, ComputeTarget::kGpu}}});
  job.application.phases.push_back(std::move(phase));
  // CPU part takes 20 s, GPU part 1 s; they run on disjoint resources, so
  // the group completes at max(20, 1) = 20 s, not 21 s.
  EXPECT_DOUBLE_EQ(f.run_job(std::move(job), {0, 1}), 20.0);
}

TEST(Gpu, TwoGpuJobsShareTheAccelerators) {
  // Both jobs pinned to the same nodes' GPUs: fair sharing doubles runtimes.
  sim::Engine engine;
  platform::Cluster cluster(engine, gpu_platform(2));
  Job a = compute_targeted(ComputeTarget::kGpu, 4e10);
  Job b = compute_targeted(ComputeTarget::kGpu, 4e10);
  b.id = 2;
  double a_done = -1.0, b_done = -1.0;
  JobExecution exec_a(
      engine, cluster, a, {0, 1}, [] {}, [&] { a_done = engine.now(); });
  JobExecution exec_b(
      engine, cluster, b, {0, 1}, [] {}, [&] { b_done = engine.now(); });
  exec_a.start();
  exec_b.start();
  engine.run();
  EXPECT_DOUBLE_EQ(a_done, 2.0);
  EXPECT_DOUBLE_EQ(b_done, 2.0);
}

TEST(Gpu, LoaderParsesGpuFields) {
  const auto config = platform::parse_cluster_config(json::parse(R"({
    "gpus_per_node": 8, "flops_per_gpu": "10GF"
  })"));
  EXPECT_EQ(config.gpus_per_node, 8);
  EXPECT_DOUBLE_EQ(config.flops_per_gpu, 10e9);
  const auto back = platform::parse_cluster_config(platform::cluster_config_to_json(config));
  EXPECT_EQ(back.gpus_per_node, 8);
}

TEST(Gpu, LoaderRejectsNegativeGpuCount) {
  EXPECT_THROW(platform::parse_cluster_config(json::parse(R"({"gpus_per_node": -1})")),
               std::runtime_error);
}

TEST(Gpu, TargetSurvivesJsonRoundTrip) {
  Job job = compute_targeted(ComputeTarget::kGpu, 1e9);
  const Job back = workload::job_from_json(workload::job_to_json(job));
  const auto& compute =
      std::get<ComputeTask>(back.application.phases[0].groups[0][0].payload);
  EXPECT_EQ(compute.target, ComputeTarget::kGpu);
  // CPU target stays implicit.
  Job cpu_job = compute_targeted(ComputeTarget::kCpu, 1e9);
  const json::Value value = workload::job_to_json(cpu_job);
  const auto& task_json = value.find("application")
                              ->find("phases")
                              ->as_array()[0]
                              .find("groups")
                              ->as_array()[0]
                              .as_array()[0];
  EXPECT_EQ(task_json.find("target"), nullptr);
}

TEST(Gpu, RejectsUnknownComputeTarget) {
  EXPECT_THROW(workload::job_from_json(json::parse(R"({
    "id": 1, "type": "rigid", "requested_nodes": 1, "min_nodes": 1, "max_nodes": 1,
    "application": {"phases": [{"name": "p", "groups": [[
      {"type": "compute", "work": 1, "target": "tpu"}]]}]}
  })")),
               std::runtime_error);
}

}  // namespace
}  // namespace elastisim::core
