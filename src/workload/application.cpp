#include "workload/application.h"

#include <cassert>

namespace elastisim::workload {

double scaled_work_per_node(ScalingModel model, double work, double alpha, int nodes) {
  assert(nodes >= 1);
  switch (model) {
    case ScalingModel::kStrong: return work / static_cast<double>(nodes);
    case ScalingModel::kWeak: return work;
    case ScalingModel::kAmdahl:
      return work * (alpha + (1.0 - alpha) / static_cast<double>(nodes));
  }
  return work;
}

int Application::total_iterations() const {
  int total = 0;
  for (const Phase& phase : phases) total += phase.iterations;
  return total;
}

std::string to_string(ScalingModel model) {
  switch (model) {
    case ScalingModel::kStrong: return "strong";
    case ScalingModel::kWeak: return "weak";
    case ScalingModel::kAmdahl: return "amdahl";
  }
  return "?";
}

std::string to_string(CommPattern pattern) {
  switch (pattern) {
    case CommPattern::kAllToAll: return "all-to-all";
    case CommPattern::kAllReduce: return "all-reduce";
    case CommPattern::kBroadcast: return "broadcast";
    case CommPattern::kRing: return "ring";
    case CommPattern::kStencil2D: return "stencil2d";
    case CommPattern::kGather: return "gather";
    case CommPattern::kScatter: return "scatter";
  }
  return "?";
}

std::optional<ScalingModel> scaling_from_string(std::string_view name) {
  if (name == "strong") return ScalingModel::kStrong;
  if (name == "weak") return ScalingModel::kWeak;
  if (name == "amdahl") return ScalingModel::kAmdahl;
  return std::nullopt;
}

std::optional<CommPattern> pattern_from_string(std::string_view name) {
  if (name == "all-to-all") return CommPattern::kAllToAll;
  if (name == "all-reduce") return CommPattern::kAllReduce;
  if (name == "broadcast") return CommPattern::kBroadcast;
  if (name == "ring") return CommPattern::kRing;
  if (name == "stencil2d") return CommPattern::kStencil2D;
  if (name == "gather") return CommPattern::kGather;
  if (name == "scatter") return CommPattern::kScatter;
  return std::nullopt;
}

std::optional<ComputeTarget> compute_target_from_string(std::string_view name) {
  if (name == "cpu") return ComputeTarget::kCpu;
  if (name == "gpu") return ComputeTarget::kGpu;
  return std::nullopt;
}

std::optional<IoTarget> io_target_from_string(std::string_view name) {
  if (name == "pfs") return IoTarget::kPfs;
  if (name == "burst-buffer" || name == "bb") return IoTarget::kBurstBuffer;
  return std::nullopt;
}

}  // namespace elastisim::workload
