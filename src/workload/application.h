// Abstract application model.
//
// An application is an ordered list of *phases*; each phase is an ordered
// list of *task groups*, and the tasks inside one group run concurrently
// (fork-join). A phase may repeat. Phase boundaries are the application's
// scheduling points: malleable jobs apply scheduler-initiated expand/shrink
// decisions there, and evolving jobs submit their own resize requests there.
//
// Tasks carry abstract work (FLOPs, bytes) plus a scaling rule, so the
// simulator can re-cost a phase whenever the job's node allocation changes —
// the property that makes malleability worth simulating at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace elastisim::workload {

/// How a task's work responds to the number of allocated nodes k.
enum class ScalingModel {
  /// Fixed total work split evenly: per-node work = work / k (strong scaling).
  kStrong,
  /// Fixed work per node: per-node work = work (weak scaling).
  kWeak,
  /// Amdahl: per-node work = work * (alpha + (1 - alpha) / k); alpha is the
  /// task's serial fraction.
  kAmdahl,
};

/// Per-node work of a task under the given scaling model.
double scaled_work_per_node(ScalingModel model, double work, double alpha, int nodes);

/// Collective/exchange shapes. `bytes` semantics per pattern are documented
/// on pattern_flows() in patterns.h.
enum class CommPattern { kAllToAll, kAllReduce, kBroadcast, kRing, kStencil2D, kGather, kScatter };

enum class IoTarget { kPfs, kBurstBuffer };

/// Which on-node execution resource a compute task occupies.
enum class ComputeTarget { kCpu, kGpu };

struct ComputeTask {
  /// FLOPs; interpretation depends on `scaling` (total for kStrong, per-node
  /// for kWeak, sequential-equivalent for kAmdahl).
  double work = 0.0;
  ScalingModel scaling = ScalingModel::kStrong;
  /// Serial fraction for kAmdahl; ignored otherwise.
  double alpha = 0.0;
  /// Runs on the nodes' CPUs or their accelerators. GPU tasks on a platform
  /// without GPUs fall back to the CPUs (logged).
  ComputeTarget target = ComputeTarget::kCpu;
};

struct CommTask {
  CommPattern pattern = CommPattern::kAllReduce;
  /// Message size in bytes; per-pattern semantics (see patterns.h).
  double bytes = 0.0;
};

struct IoTask {
  bool write = true;
  /// Interpretation depends on `scaling`: kStrong = total bytes striped over
  /// the allocation, kWeak = bytes per node.
  double bytes = 0.0;
  ScalingModel scaling = ScalingModel::kStrong;
  IoTarget target = IoTarget::kPfs;
  /// Marks this write as a durable application checkpoint: once the iteration
  /// containing it completes, a requeued job under the requeue-restart
  /// failure policy resumes from the following iteration instead of from
  /// scratch.
  bool checkpoint = false;
};

struct DelayTask {
  double seconds = 0.0;
};

struct Task {
  std::string name;
  std::variant<ComputeTask, CommTask, IoTask, DelayTask> payload;
};

/// Tasks inside one group run concurrently; the group completes when the
/// slowest task does.
using TaskGroup = std::vector<Task>;

struct Phase {
  std::string name;
  std::vector<TaskGroup> groups;
  /// Number of iterations of this phase (>= 1). Each iteration ends with a
  /// scheduling point.
  int iterations = 1;
  /// For evolving jobs: node delta the application requests when this phase
  /// begins (positive = grow, negative = shrink, 0 = none). The request is
  /// best-effort; the job continues at its current size if denied.
  int evolving_delta = 0;
};

struct Application {
  std::vector<Phase> phases;
  /// Per-node application state in bytes; determines the data volume a
  /// malleable reconfiguration must redistribute.
  double state_bytes_per_node = 0.0;

  /// Total number of phase iterations (scheduling points) in the application.
  int total_iterations() const;
};

/// Names for (de)serialization: "strong" / "weak" / "amdahl".
std::string to_string(ScalingModel model);
/// "all-to-all", "all-reduce", "broadcast", "ring", "stencil2d", "gather",
/// "scatter".
std::string to_string(CommPattern pattern);
/// The inverses, for workload files; nullopt for an unknown name.
std::optional<ScalingModel> scaling_from_string(std::string_view name);
std::optional<CommPattern> pattern_from_string(std::string_view name);
/// "cpu" / "gpu".
std::optional<ComputeTarget> compute_target_from_string(std::string_view name);
/// "pfs" / "burst-buffer" (or "bb").
std::optional<IoTarget> io_target_from_string(std::string_view name);

}  // namespace elastisim::workload
