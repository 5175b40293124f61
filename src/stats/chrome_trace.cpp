#include "stats/chrome_trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "util/fmt.h"

namespace elastisim::telemetry {

namespace {

constexpr int kClusterPid = 1;

json::Value metadata(const char* kind, std::uint32_t tid, std::string name) {
  json::Object event;
  event["name"] = kind;
  event["ph"] = "M";
  event["pid"] = kClusterPid;
  event["tid"] = static_cast<double>(tid);
  json::Object args;
  args["name"] = std::move(name);
  event["args"] = std::move(args);
  return json::Value(std::move(event));
}

}  // namespace

void ChromeTraceBuilder::on_event(const stats::BatchEvent& event) {
  using K = stats::BatchEventKind;
  const double now = event.time;
  const std::uint64_t id = event.job_id();
  switch (event.kind) {
    case K::kStart:
    case K::kExpand: {
      const std::string label = event.job->name.empty() ? util::fmt("job {}", id) : event.job->name;
      for (std::uint32_t node : event.node_list) begin_node_slice(node, id, label, now);
      return;
    }
    case K::kRelease: return end_node_slice(event.node, now);
    case K::kRestart: return instant(util::fmt("job {} restarts from checkpoint", id), now);
    case K::kKill:
      return instant(event.kill_cause == stats::KillCause::kWalltime
                         ? util::fmt("job {} walltime kill", id)
                         : util::fmt("job {} killed: {}", id, stats::event_detail(event)),
                     now);
    case K::kRequeue: return instant(util::fmt("job {} requeued", id), now);
    case K::kNodeFail: return instant(util::fmt("node {} failed", event.node), now);
    case K::kNodeRestore: return instant(util::fmt("node {} restored", event.node), now);
    case K::kSchedulingEnd:
      counter("queue depth", now, static_cast<double>(event.state.queued));
      counter("running jobs", now, static_cast<double>(event.state.running));
      return counter("free nodes", now, static_cast<double>(event.state.free_nodes));
    case K::kRunEnd: return close_open_slices(now);
    default: return;
  }
}

void ChromeTraceBuilder::begin_node_slice(std::uint32_t node, std::uint64_t job,
                                          std::string label, double sim_time) {
  end_node_slice(node, sim_time);
  open_[node] = Open{job, std::move(label), to_us(sim_time)};
  if (node > max_node_) max_node_ = node;
  any_node_ = true;
}

void ChromeTraceBuilder::end_node_slice(std::uint32_t node, double sim_time) {
  auto it = open_.find(node);
  if (it == open_.end()) return;
  slices_.push_back(NodeSlice{node, it->second.job, std::move(it->second.label),
                              it->second.start_us, to_us(sim_time) - it->second.start_us});
  open_.erase(it);
}

void ChromeTraceBuilder::counter(const std::string& name, double sim_time, double value) {
  // Skip unchanged samples: counters are sampled at every scheduling point
  // and mostly do not change between them.
  auto [it, inserted] = last_counter_.emplace(name, value);
  if (!inserted) {
    // Near-equal values must still be recorded, only exact repeats are dropped.
    // elsim-lint: allow(float-equality) -- intentional exact dedup of repeated samples
    if (it->second == value) return;
    it->second = value;
  }
  counters_.push_back(CounterSample{name, to_us(sim_time), value});
}

void ChromeTraceBuilder::instant(std::string label, double sim_time) {
  instants_.push_back(Instant{std::move(label), to_us(sim_time)});
}

void ChromeTraceBuilder::close_open_slices(double sim_time) {
  // Close in ascending node order: draining the unordered map directly would
  // emit the final slices in hash order, breaking byte-identical traces.
  std::vector<std::uint32_t> nodes;
  nodes.reserve(open_.size());
  // elsim-lint: allow(unordered-iteration) -- collected into a sorted vector
  for (const auto& entry : open_) nodes.push_back(entry.first);
  std::sort(nodes.begin(), nodes.end());
  for (std::uint32_t node : nodes) end_node_slice(node, sim_time);
}

std::size_t ChromeTraceBuilder::event_count() const {
  return slices_.size() + open_.size() + counters_.size() + instants_.size();
}

json::Value ChromeTraceBuilder::to_json() const {
  json::Array events;

  events.push_back(metadata("process_name", 0, "cluster (simulated time)"));
  if (any_node_) {
    for (std::uint32_t node = 0; node <= max_node_; ++node) {
      events.push_back(metadata("thread_name", node, "node " + std::to_string(node)));
    }
  }

  for (const NodeSlice& slice : slices_) {
    json::Object event;
    event["name"] = slice.label;
    event["ph"] = "X";
    event["pid"] = kClusterPid;
    event["tid"] = static_cast<double>(slice.node);
    event["ts"] = slice.start_us;
    event["dur"] = slice.dur_us;
    json::Object args;
    args["job"] = static_cast<double>(slice.job);
    event["args"] = std::move(args);
    events.push_back(json::Value(std::move(event)));
  }

  for (const CounterSample& sample : counters_) {
    json::Object event;
    event["name"] = sample.name;
    event["ph"] = "C";
    event["pid"] = kClusterPid;
    event["tid"] = 0;
    event["ts"] = sample.ts_us;
    json::Object args;
    args["value"] = sample.value;
    event["args"] = std::move(args);
    events.push_back(json::Value(std::move(event)));
  }

  for (const Instant& mark : instants_) {
    json::Object event;
    event["name"] = mark.label;
    event["ph"] = "i";
    event["s"] = "g";  // global scope: draws a full-height line
    event["pid"] = kClusterPid;
    event["tid"] = 0;
    event["ts"] = mark.ts_us;
    events.push_back(json::Value(std::move(event)));
  }

  json::Object out;
  out["traceEvents"] = std::move(events);
  out["displayTimeUnit"] = "ms";
  return json::Value(std::move(out));
}

void ChromeTraceBuilder::write(std::ostream& out) const {
  out << json::dump(to_json());
}

void ChromeTraceBuilder::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write chrome trace to " + path);
  write(out);
  out << "\n";
}

}  // namespace elastisim::telemetry
