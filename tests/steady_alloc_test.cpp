// Counts heap allocations over whole simulations of one iterative job: a run
// of 40 iterations must allocate exactly as often as a run of 10, so a steady
// iteration (task launches, completions, the scheduling point between
// iterations) allocates nothing. The count is exact and the same on every
// host. This executable replaces the global operator new and delete to count;
// the main test binary keeps the standard ones.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/batch_system.h"
#include "core/scheduler.h"
#include "platform/cluster.h"
#include "sim/engine.h"
#include "stats/metrics.h"
#include "workload/job.h"

namespace {
// Single-threaded: the simulations below run on the test's own thread.
std::uint64_t allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++allocations;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* block = counted_malloc(size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* block = counted_malloc(size)) return block;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_malloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept { std::free(block); }
void operator delete[](void* block, const std::nothrow_t&) noexcept { std::free(block); }

namespace elastisim::core {
namespace {

/// 32 nodes in pods of 8 with a PFS, so the job's transfers cross pod links.
platform::ClusterConfig fat_tree(double link_latency) {
  platform::ClusterConfig config;
  config.topology = platform::TopologyKind::kFatTree;
  config.node_count = 32;
  config.pod_size = 8;
  config.cores_per_node = 4;
  config.flops_per_core = 1e9;
  config.link_bandwidth = 1e10;
  config.link_latency = link_latency;
  config.pod_bandwidth = 2e10;
  config.pfs.read_bandwidth = 4e10;
  config.pfs.write_bandwidth = 4e10;
  return config;
}

/// A rigid 16-node job whose iteration computes, all-reduces, writes to the
/// PFS and waits, one task per group.
workload::Job steady_job(int iterations) {
  workload::Job job;
  job.id = 1;
  job.name = "steady";
  job.type = workload::JobType::kRigid;
  job.requested_nodes = job.min_nodes = job.max_nodes = 16;
  workload::Phase phase;
  phase.name = "main";
  phase.iterations = iterations;
  phase.groups.push_back(
      {workload::Task{"compute", workload::ComputeTask{1.6e11, workload::ScalingModel::kStrong,
                                                       0.0}}});
  phase.groups.push_back(
      {workload::Task{"allreduce", workload::CommTask{workload::CommPattern::kAllReduce, 1e8}}});
  phase.groups.push_back({workload::Task{
      "write", workload::IoTask{true, 1.6e9, workload::ScalingModel::kStrong}}});
  phase.groups.push_back({workload::Task{"wait", workload::DelayTask{0.5}}});
  job.application.phases.push_back(std::move(phase));
  return job;
}

/// Heap allocations over one whole simulation of steady_job(iterations),
/// set-up and teardown included.
std::uint64_t allocations_of_run(const std::string& scheduler, double link_latency,
                                 int iterations) {
  const std::uint64_t before = allocations;
  {
    sim::Engine engine;
    platform::Cluster cluster(engine, fat_tree(link_latency));
    stats::Recorder recorder;
    BatchSystem batch(engine, cluster, make_scheduler(scheduler), recorder);
    EXPECT_TRUE(batch.submit(steady_job(iterations)));
    engine.run();
    EXPECT_EQ(batch.finished_jobs(), 1u);
  }
  return allocations - before;
}

TEST(SteadyIteration, AllocatesNothing) {
  for (const char* scheduler : {"fcfs", "easy-malleable", "fair-share"}) {
    for (const double latency : {0.0, 1e-6}) {
      SCOPED_TRACE(std::string(scheduler) + ", link latency " + std::to_string(latency));
      allocations_of_run(scheduler, latency, 10);  // warm-up: one-time statics
      const std::uint64_t short_run = allocations_of_run(scheduler, latency, 10);
      const std::uint64_t long_run = allocations_of_run(scheduler, latency, 40);
      EXPECT_GT(short_run, 0u);
      EXPECT_EQ(long_run, short_run) << "30 more iterations allocated "
                                     << static_cast<double>(long_run - short_run) / 30.0
                                     << " times each";
    }
  }
}

}  // namespace
}  // namespace elastisim::core
