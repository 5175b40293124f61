// Simulation-state sampler: a multi-series timeline of what the cluster
// looked like over simulated time — the view a batch-system paper plots
// (utilization curves, queue depth, down-node windows) and the data source
// for `elastisim report`.
//
// Where telemetry answers "where does the wall-clock go" and the decision
// journal answers "why did the scheduler do that", the sampler answers "what
// did the cluster look like at time t". Subscribed to the batch event stream,
// it records one StateSample at every scheduling point (and, optionally, on
// a fixed simulated-time cadence); each sample carries the instantaneous
// queue and node occupancy plus the batch system's cumulative
// reconfiguration/resilience tallies.
//
// The timeline is bounded by the same stride-doubling thinning as
// telemetry::Gauge (util::ThinnedSeries), so arbitrarily long runs keep an
// evenly thinned timeline whose final sample is always the most recent
// observation.
// Serialized as <out-dir>/timeseries.csv (docs/FORMATS.md); byte-identical
// across runs with identical inputs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats/batch_event.h"
#include "util/thinned_series.h"

namespace elastisim::stats {

/// One observation of the cluster/queue state at a simulated instant.
struct StateSample {
  double time = 0.0;
  // Instantaneous state.
  int queued = 0;       // jobs waiting in the queue
  int running = 0;      // jobs holding an allocation
  int allocated = 0;    // nodes occupied by jobs
  int free_nodes = 0;   // nodes idle and in service
  int down = 0;         // nodes out of service (failed + drained)
  int total = 0;        // cluster size
  double utilization = 0.0;  // allocated / total (0 when the cluster is empty)
  // Cumulative tallies since the start of the run.
  std::uint64_t expansions = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t evolving_grants = 0;
  std::uint64_t requeues = 0;
  std::uint64_t checkpoint_restarts = 0;
  double lost_node_seconds = 0.0;

  bool operator==(const StateSample&) const = default;
};

class StateSampler final : public BatchSubscriber {
 public:
  /// `interval` > 0 additionally samples every `interval` simulated seconds
  /// (the batch system's kSample ticks); 0 = scheduling points only.
  explicit StateSampler(double interval = 0.0) : interval_(interval) {}

  double interval() const { return interval_; }

  /// Samples the state carried by kSchedulingEnd and kSample events.
  void on_event(const BatchEvent& event) override;
  double sample_interval() const override { return interval_; }

  /// Records one observation. `failed` and `drained` are folded into the
  /// sample's `down`; `allocated` is derived as total - free - failed -
  /// drained. A sample at the same time as the previous one replaces it
  /// (scheduling points often pile up on one timestamp), keeping the series
  /// a clean step function.
  void sample(double time, int queued, int running, int free_nodes, int failed,
              int drained, int total, const BatchTallies& tallies = {});

  const std::vector<StateSample>& samples() const { return samples_.items(); }
  /// Observations offered to the timeline (same-time replacements excluded);
  /// exceeds samples().size() once thinning has kicked in.
  std::uint64_t updates() const { return samples_.appended(); }

  // --- CSV (de)serialization: the timeseries.csv schema --------------------
  void write_csv(std::ostream& out) const;
  void save(const std::string& path) const;
  /// Parses CSV produced by write_csv(); throws std::runtime_error on a
  /// missing header column or malformed row (with the 1-based line number).
  static std::vector<StateSample> read_csv(std::istream& in);
  static std::vector<StateSample> load(const std::string& path);

  static constexpr std::size_t kMaxSamples = 65536;

 private:
  double interval_;
  util::ThinnedSeries<StateSample, kMaxSamples> samples_;
};

}  // namespace elastisim::stats
