// Shared builders for core-layer tests: small clusters and hand-crafted jobs
// with exactly predictable timings.
#pragma once

#include <algorithm>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.h"
#include "platform/cluster.h"
#include "stats/metrics.h"
#include "workload/job.h"

namespace elastisim::test {

/// Star cluster with 1-core 1-GFLOP/s nodes and generous bandwidth, so
/// compute times are exact and network effects are negligible unless a test
/// opts into tight bandwidths.
inline platform::ClusterConfig tiny_platform(std::size_t nodes) {
  platform::ClusterConfig config;
  config.topology = platform::TopologyKind::kStar;
  config.node_count = nodes;
  config.cores_per_node = 1;
  config.flops_per_core = 1e9;
  config.link_bandwidth = 1e12;
  config.pfs.read_bandwidth = 1e12;
  config.pfs.write_bandwidth = 1e12;
  return config;
}

/// A strong-scaling compute job that takes exactly `seconds_at_requested`
/// seconds per iteration when run on `requested` nodes of the tiny platform
/// (and requested/k times that on k nodes).
inline workload::Job compute_job(workload::JobId id, workload::JobType type, int requested,
                                 double seconds_at_requested, int min_nodes, int max_nodes,
                                 double submit = 0.0, int iterations = 1) {
  workload::Job job;
  job.id = id;
  job.name = "job" + std::to_string(id);
  job.type = type;
  job.submit_time = submit;
  job.requested_nodes = requested;
  job.min_nodes = min_nodes;
  job.max_nodes = max_nodes;
  workload::Phase phase;
  phase.name = "main";
  phase.iterations = iterations;
  phase.groups.push_back({workload::Task{
      "compute",
      workload::ComputeTask{seconds_at_requested * 1e9 * requested,
                            workload::ScalingModel::kStrong, 0.0}}});
  job.application.phases.push_back(std::move(phase));
  return job;
}

inline workload::Job rigid_job(workload::JobId id, int nodes, double seconds,
                               double submit = 0.0, int iterations = 1) {
  return compute_job(id, workload::JobType::kRigid, nodes, seconds, nodes, nodes, submit,
                     iterations);
}

/// A SchedulerContext over lists the test owns, for calling one policy's
/// schedule() directly: a fixed clock, a free-node count that start_job()
/// draws down, and a Recorder behind user_usage(). It keeps the starts and
/// hold verdicts (with their detail text) in the order the policy made them
/// and counts the free_nodes() and user_usage() calls.
class FakeContext final : public core::SchedulerContext {
 public:
  FakeContext(double now, int total_nodes, int free_nodes, bool explaining)
      : now_(now), total_(total_nodes), free_(free_nodes), explaining_(explaining) {}

  double now() const override { return now_; }
  int total_nodes() const override { return total_; }
  int free_nodes() const override {
    ++free_calls;
    return free_;
  }
  const std::vector<core::QueuedJob>& queue() const override { return queue_; }
  const std::vector<core::RunningJob>& running() const override { return running_; }
  double user_usage(const std::string& user) const override {
    usage_calls.push_back(user);
    return recorder.user_node_seconds(user, now_);
  }
  void start_job(workload::JobId id, int nodes) override {
    const auto it = std::find_if(queue_.begin(), queue_.end(),
                                 [id](const core::QueuedJob& job) { return job->id == id; });
    ASSERT_NE(it, queue_.end()) << "start of job " << id << ", which is not queued";
    ASSERT_LE(nodes, free_) << "start of job " << id;
    running_.push_back({it->job, now_, nodes, nodes});
    queue_.erase(it);
    free_ -= nodes;
    recorder.on_start(id, now_, nodes);
    starts.emplace_back(id, nodes);
  }
  void set_target(workload::JobId id, int nodes) override {
    ADD_FAILURE() << "set_target(" << id << ", " << nodes << ") on a fake context";
  }
  bool explaining() const override { return explaining_; }
  void explain(workload::JobId id, stats::HoldReason reason, std::string detail) override {
    verdicts.emplace_back(id, reason);
    details.push_back(std::move(detail));
  }

  /// Queues `job` (submitted to the recorder at its submit time), its entry
  /// filled by core::queued_job() as the batch system fills it.
  void enqueue(const workload::Job& job) {
    queue_.push_back(core::queued_job(job, recorder.on_submit(job, job.submit_time)));
  }
  /// Records `job` as running on `nodes` nodes since `since`, holding them.
  void run(const workload::Job& job, double since, int nodes) {
    recorder.on_submit(job, job.submit_time);
    recorder.on_start(job.id, since, nodes);
    running_.push_back({&job, since, nodes, nodes});
  }

  stats::Recorder recorder;
  std::vector<std::pair<workload::JobId, int>> starts;
  std::vector<std::pair<workload::JobId, stats::HoldReason>> verdicts;
  /// Each verdict's detail text, parallel to `verdicts`.
  std::vector<std::string> details;
  mutable std::size_t free_calls = 0;
  /// The user of every user_usage() call, in call order.
  mutable std::vector<std::string> usage_calls;

 private:
  double now_;
  int total_;
  int free_;
  bool explaining_;
  std::vector<core::QueuedJob> queue_;
  std::vector<core::RunningJob> running_;
};

}  // namespace elastisim::test
