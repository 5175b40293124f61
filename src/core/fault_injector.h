// Stochastic fault injection: turns per-node MTBF models into a concrete,
// reproducible failure schedule for BatchSystem::inject_failure.
//
// Each node runs an independent renewal process seeded from a per-node child
// stream of the master seed, so the schedule for node i never changes when
// nodes are added or the horizon grows. Failure interarrivals are exponential
// (memoryless) or Weibull (shape > 1 wear-out, shape < 1 infant mortality);
// repair durations are constant or lognormal. Optionally, a failure may take
// down additional nodes in the same pod (correlated failures: shared power,
// cooling, or top-of-rack switch).
//
// A generated schedule serializes to a JSON trace (docs/FORMATS.md) so a run
// can be replayed exactly or a recorded production trace can be injected.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"
#include "platform/cluster.h"
#include "workload/job.h"

namespace elastisim::core {

class BatchSystem;

/// How failure interarrival times are drawn.
enum class FailureDistribution {
  kExponential,  ///< memoryless; rate 1/mtbf
  kWeibull,      ///< shape-parameterized; scale derived so the mean is mtbf
};

/// How repair (downtime) durations are drawn.
enum class RepairDistribution {
  kConstant,   ///< every repair takes mean_repair seconds
  kLognormal,  ///< lognormal with mean mean_repair (sigma configurable)
};

std::string to_string(FailureDistribution dist);
std::string to_string(RepairDistribution dist);
std::optional<FailureDistribution> failure_distribution_from_string(std::string_view name);
std::optional<RepairDistribution> repair_distribution_from_string(std::string_view name);

struct FaultModelConfig {
  /// Per-node mean time between failures, seconds. <= 0 disables generation.
  double mtbf = 0.0;
  FailureDistribution failure_distribution = FailureDistribution::kExponential;
  /// Weibull shape k (only with kWeibull); 1.0 degenerates to exponential.
  double weibull_shape = 1.0;
  /// Mean repair duration, seconds.
  double mean_repair = 3600.0;
  RepairDistribution repair_distribution = RepairDistribution::kConstant;
  /// Sigma of the underlying normal for lognormal repairs (mean preserved).
  double repair_sigma = 0.5;
  /// Probability that a failure also takes down each other node of the same
  /// pod (drawn independently per neighbor); 0 disables correlation.
  double pod_correlation = 0.0;
  /// Generation horizon, seconds: failures are drawn until each node's
  /// renewal process passes this time. 0 = auto; see failure_horizon().
  double horizon = 0.0;
  /// Master seed; per-node streams are split() children of it.
  std::uint64_t seed = 1;
};

/// The horizon `config` draws failures over: config.horizon when positive,
/// else max(1 day, 2 x the latest submit time in `jobs`), so failures keep
/// arriving while the workload runs.
double failure_horizon(const FaultModelConfig& config, const std::vector<workload::Job>& jobs);

/// An invalid setting (a FaultModelConfig or BatchConfig member), named as
/// the sweep spec's `faults` or `batch` object and the CLI spell it.
struct SettingError {
  const char* member;
  const char* flag;
  const char* expected;
};

/// Checks the values generate() relies on: a finite mtbf, repair time,
/// repair sigma and horizon of at least 0, a finite Weibull shape above 0
/// and a pod correlation in [0, 1]. Returns the first invalid member.
std::optional<SettingError> validate(const FaultModelConfig& config);

/// One scheduled outage: node down at fail_time, back at repair_time.
struct FailureEvent {
  platform::NodeId node = 0;
  double fail_time = 0.0;
  double repair_time = 0.0;

  friend bool operator==(const FailureEvent&, const FailureEvent&) = default;
};

/// Generates and injects failure schedules. Stateless besides the config;
/// generate() is a pure function of (config, node_count, pod_size).
class FaultInjector {
 public:
  explicit FaultInjector(FaultModelConfig config) : config_(config) {}

  const FaultModelConfig& config() const { return config_; }

  /// Draws the full failure schedule for a cluster of `node_count` nodes,
  /// up to the horizon (1 day when it is 0: no workload is known here).
  /// `pod_size` > 0 enables pod-correlated secondary failures (nodes
  /// [p*pod_size, (p+1)*pod_size) share pod p). The result is sorted by
  /// (fail_time, node) and is byte-identical across runs for a fixed config.
  std::vector<FailureEvent> generate(std::size_t node_count, std::size_t pod_size = 0) const;

  /// Injects `events` into `batch`. Returns the number of events accepted
  /// (inject_failure validates each one).
  static std::size_t apply(BatchSystem& batch, const std::vector<FailureEvent>& events);

  // --- Trace (de)serialization --------------------------------------------
  /// {"failures": [{"node": 3, "fail": 120.0, "repair": 1920.0}, ...]}; an
  /// event without "repair" is never repaired.
  static json::Value to_json(const std::vector<FailureEvent>& events);
  /// Reads strictly (json::Reader): throws util::LoadError at the JSON path
  /// of the first malformed member, e.g. a missing or non-array "failures",
  /// a missing or negative "node", a missing or negative "fail", a "repair"
  /// before "fail", or an unknown key. Times are durations ("1h" or 3600).
  static std::vector<FailureEvent> from_json(const json::Value& value);
  static void save_trace(const std::string& path, const std::vector<FailureEvent>& events);
  /// from_json() over a file; a LoadError names the file.
  static std::vector<FailureEvent> load_trace(const std::string& path);

 private:
  FaultModelConfig config_;
};

}  // namespace elastisim::core
