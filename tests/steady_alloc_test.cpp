// Counts heap allocations over whole simulations of one iterative job: a run
// of 40 iterations must allocate exactly as often as a run of 10, so a steady
// iteration (task launches, completions, the scheduling point between
// iterations) allocates nothing. A malleable job resized back and forth
// between two node sets allocates nothing per cycle after the first but for
// the recorder's utilization timeline, which every resize lengthens. A
// scheduling point repeated over an unchanged queue must allocate nothing
// either. The counts are exact and the same on every host. This executable
// replaces the global operator new and delete to count; the main test binary
// keeps the standard ones.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/batch_system.h"
#include "core/scheduler.h"
#include "core/schedulers.h"
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

/// Resizes its one malleable job between 8 and 16 nodes at every boundary:
/// each scheduling point asks for the size the job does not have, and the
/// batch system applies it at the job's next boundary. Notes the allocations
/// so far at every scheduling point, with the capacity of the recorder's
/// utilization timeline.
class SeesawScheduler final : public Scheduler {
 public:
  struct Point {
    std::uint64_t allocations;
    std::size_t timeline_capacity;
  };

  explicit SeesawScheduler(const stats::Recorder& recorder) : recorder_(&recorder) {
    points.reserve(1000);
  }
  std::string name() const override { return "seesaw"; }
  void schedule(SchedulerContext& ctx) override {
    if (!ctx.queue().empty()) ctx.start_job(ctx.queue().front()->id, 8);
    for (const RunningJob& running : ctx.running()) {
      ctx.set_target(running.job->id, running.nodes == 8 ? 16 : 8);
    }
    points.push_back({allocations, recorder_->timeline().capacity()});
  }

  std::vector<Point> points;

 private:
  const stats::Recorder* recorder_;
};

TEST(ResizeCycle, AllocatesNothingAfterTheFirst) {
  for (const double latency : {0.0, 1e-6}) {
    SCOPED_TRACE("link latency " + std::to_string(latency));
    sim::Engine engine;
    platform::Cluster cluster(engine, fat_tree(latency));
    stats::Recorder recorder;
    auto owned = std::make_unique<SeesawScheduler>(recorder);
    const SeesawScheduler& seesaw = *owned;
    BatchSystem batch(engine, cluster, std::move(owned), recorder);
    // The steady job's iteration on 8 to 16 nodes, with 1 GB of state per
    // node to redistribute at every resize.
    workload::Job job = steady_job(40);
    job.type = workload::JobType::kMalleable;
    job.requested_nodes = job.min_nodes = 8;
    job.max_nodes = 16;
    job.application.state_bytes_per_node = 1e9;
    ASSERT_TRUE(batch.submit(std::move(job)));
    engine.run();
    ASSERT_EQ(batch.finished_jobs(), 1u);
    // Lowest-id placement takes nodes 8-15 at every expansion and a shrink
    // hands back the same tail: two node sets, 39 boundaries, 39 resizes.
    EXPECT_EQ(recorder.records().front().expansions, 20);
    EXPECT_EQ(recorder.records().front().shrinks, 19);
    // Points: the submit, a boundary per expansion, a boundary and a
    // completion per shrink, and the finish. The first cycle ends at point
    // 3, the first shrink's completion; from there on only the timeline may
    // allocate, once whenever its capacity grew.
    ASSERT_EQ(seesaw.points.size(), 1u + 20u + 2u * 19u + 1u);
    for (std::size_t i = 3; i + 1 < seesaw.points.size(); ++i) {
      const SeesawScheduler::Point& from = seesaw.points[i];
      const SeesawScheduler::Point& to = seesaw.points[i + 1];
      const std::uint64_t timeline_growth = to.timeline_capacity != from.timeline_capacity;
      EXPECT_EQ(to.allocations - from.allocations, timeline_growth)
          << "between scheduling points " << i << " and " << i + 1;
    }
  }
}

/// A scheduling point frozen in place: 2 of 16 nodes free, two malleable
/// jobs of 7 nodes running, and a queue whose 8-node head blocks and whose
/// 2-node job fits now but can neither end by the head's shadow time nor
/// fit its one spare node. Every pass runs in full and nothing starts:
/// the walk reserves, shrink_to_admit_head and expand_into_idle build their
/// candidates, and fair-share ranks four users. Targets are counted, not
/// applied, so each repeat takes the same path.
class FrozenContext final : public SchedulerContext {
 public:
  FrozenContext() {
    const auto add = [this](workload::JobId id, workload::JobType type, int requested, int min,
                            int max, double walltime, const char* user) {
      workload::Job& job = jobs_[id - 1];
      job.id = id;
      job.type = type;
      job.requested_nodes = requested;
      job.min_nodes = min;
      job.max_nodes = max;
      job.walltime_limit = walltime;
      job.user = user;
      return &job;
    };
    const double inf = std::numeric_limits<double>::infinity();
    for (workload::JobId id : {1, 2}) {
      const workload::Job* job =
          add(id, workload::JobType::kMalleable, 7, 1, 8, 500.0, id == 1 ? "ann" : "bo");
      recorder_.on_submit(*job, 0.0);
      recorder_.on_start(id, 100.0 * static_cast<double>(id), 7);
      running_.push_back({job, 100.0 * static_cast<double>(id), 7, 7});
    }
    const char* users[] = {"cy", "di", "ann", "bo", "cy", "di"};
    for (workload::JobId id = 3; id <= 8; ++id) {
      const bool fits = id == 4;
      const int size = fits ? 2 : 8;
      const workload::Job* job =
          add(id, workload::JobType::kRigid, size, size, size, fits ? inf : 300.0, users[id - 3]);
      queue_.push_back(queued_job(*job, recorder_.on_submit(*job, 0.0)));
    }
  }

  double now() const override { return 1000.0; }
  int total_nodes() const override { return 16; }
  int free_nodes() const override { return 2; }
  const std::vector<QueuedJob>& queue() const override { return queue_; }
  const std::vector<RunningJob>& running() const override { return running_; }
  double user_usage(const std::string& user) const override {
    return recorder_.user_node_seconds(user, now());
  }
  void start_job(workload::JobId id, int nodes) override {
    ADD_FAILURE() << "start of job " << id << " on " << nodes << " nodes";
  }
  void set_target(workload::JobId, int) override { ++targets; }

  std::size_t targets = 0;

 private:
  workload::Job jobs_[8];
  stats::Recorder recorder_;
  std::vector<QueuedJob> queue_;
  std::vector<RunningJob> running_;
};

TEST(SchedulingPoint, RepeatedOverAnUnchangedQueueAllocatesNothing) {
  for (const char* scheduler : {"easy", "easy-malleable", "fcfs-malleable", "priority",
                                "fair-share"}) {
    SCOPED_TRACE(scheduler);
    FrozenContext ctx;
    const std::unique_ptr<Scheduler> policy = make_scheduler(scheduler);
    policy->schedule(ctx);  // the first point sizes the scheduler's storage
    const std::uint64_t before = allocations;
    for (int point = 0; point < 10; ++point) policy->schedule(ctx);
    EXPECT_EQ(allocations - before, 0u);
  }
  // The malleable passes ran: easy-malleable and fcfs-malleable each
  // shrink one job and expand both at every point.
  FrozenContext ctx;
  EasyMalleableScheduler().schedule(ctx);
  EXPECT_EQ(ctx.targets, 3u);
}

}  // namespace
}  // namespace elastisim::core
