// Chrome trace_event JSON exporter (chrome://tracing / Perfetto).
//
// Renders a simulation as one process, pid 1 "cluster (simulated time)": one
// thread per compute node, with a complete-event slice for every interval a
// job occupies the node, counter tracks (queue depth, free nodes, running
// jobs), and instant events for failures/kills/requeues. Timestamps are
// simulated seconds mapped to trace microseconds; wall-clock phase times are
// the self-profiler's (--profile).
//
// The builder subscribes to the batch event stream like stats::EventTrace;
// kRunEnd closes the slices of jobs still running.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "json/json.h"
#include "stats/batch_event.h"

namespace elastisim::telemetry {

class ChromeTraceBuilder final : public stats::BatchSubscriber {
 public:
  void on_event(const stats::BatchEvent& event) override;

  /// Opens a job slice on `node`'s track at simulated time `sim_time`. If a
  /// slice is already open on the node (should not happen), it is closed at
  /// the same instant first.
  void begin_node_slice(std::uint32_t node, std::uint64_t job, std::string label,
                       double sim_time);

  /// Closes the open slice on `node`; no-op when the node is idle.
  void end_node_slice(std::uint32_t node, double sim_time);

  /// True while a job slice is open on the node.
  bool node_busy(std::uint32_t node) const { return open_.count(node) > 0; }

  /// One sample of a counter track ("queue depth", "free nodes", ...).
  void counter(const std::string& name, double sim_time, double value);

  /// Global instant marker ("node 3 failed", "job 7 walltime kill", ...).
  void instant(std::string label, double sim_time);

  /// Closes every still-open node slice (stuck jobs at the end of a run).
  void close_open_slices(double sim_time);

  std::size_t event_count() const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} per the trace-event
  /// format spec.
  json::Value to_json() const;
  void write(std::ostream& out) const;
  void write_file(const std::string& path) const;

 private:
  struct NodeSlice {
    std::uint32_t node;
    std::uint64_t job;
    std::string label;
    double start_us;
    double dur_us;
  };
  struct CounterSample {
    std::string name;
    double ts_us;
    double value;
  };
  struct Instant {
    std::string label;
    double ts_us;
  };
  struct Open {
    std::uint64_t job;
    std::string label;
    double start_us;
  };

  static double to_us(double seconds) { return seconds * 1e6; }

  std::vector<NodeSlice> slices_;
  std::vector<CounterSample> counters_;
  std::vector<Instant> instants_;
  std::unordered_map<std::uint32_t, Open> open_;
  std::unordered_map<std::string, double> last_counter_;
  std::uint32_t max_node_ = 0;
  bool any_node_ = false;
};

}  // namespace elastisim::telemetry
