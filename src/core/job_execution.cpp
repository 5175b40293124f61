#include "core/job_execution.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

#include "util/fmt.h"
#include "util/log.h"

namespace elastisim::core {

using workload::Flow;
using workload::Phase;
using workload::ScalingModel;
using workload::Task;

JobExecution::JobExecution(sim::Engine& engine, const platform::Cluster& cluster,
                           const workload::Job& job, std::vector<platform::NodeId> nodes,
                           BoundaryCallback on_boundary, CompletionCallback on_complete)
    : engine_(&engine),
      cluster_(&cluster),
      job_(&job),
      nodes_(std::move(nodes)),
      on_boundary_(std::move(on_boundary)),
      on_complete_(std::move(on_complete)) {
  assert(!nodes_.empty() && "a job needs at least one node");
  assert(!job_->application.phases.empty());
}

JobExecution::~JobExecution() {
  if (state_ == State::kRunningGroup || state_ == State::kRedistributing) abort();
}

const Phase& JobExecution::current_phase() const { return job_->application.phases[phase_]; }

void JobExecution::start() { start_from(ExecutionProgress{}); }

void JobExecution::start_from(ExecutionProgress from, double restart_overhead) {
  assert(state_ == State::kIdle);
  assert(from.phase < job_->application.phases.size());
  assert(from.iteration >= 0 &&
         from.iteration < job_->application.phases[from.phase].iterations);
  phase_ = from.phase;
  iteration_ = from.iteration;
  durable_ = from;
  durable_time_ = engine_->now();
  if (restart_overhead > 0.0 && !from.at_origin()) {
    // Recovery cost (checkpoint read-back, re-initialization) occupies the
    // allocation before the resumed iteration begins.
    state_ = State::kRunningGroup;
    run<&JobExecution::begin_iteration>(
        delay_spec(util::fmt("job{}/restart", job_->id), restart_overhead));
    return;
  }
  begin_iteration();
}

template <void (JobExecution::*Done)()>
void JobExecution::run(sim::ActivitySpec spec) {
  // Two pointers' worth of capture: std::function stores it without a heap
  // allocation.
  active_.push_back(engine_->fluid().start(std::move(spec), [this, generation = generation_] {
    if (generation == generation_) (this->*Done)();
  }));
}

void JobExecution::begin_iteration() {
  state_ = State::kRunningGroup;
  group_ = 0;
  begin_group();
}

void JobExecution::begin_group() {
  active_.clear();
  const Phase& phase = current_phase();
  // Skip empty groups; an iteration with no tasks completes immediately.
  while (group_ < phase.groups.size() && phase.groups[group_].empty()) ++group_;
  if (group_ >= phase.groups.size()) {
    finish_iteration();
    return;
  }
  const workload::TaskGroup& tasks = phase.groups[group_];
  outstanding_tasks_ = tasks.size();
  for (const Task& task : tasks) launch_task(task);
}

void JobExecution::on_task_complete() {
  assert(outstanding_tasks_ > 0);
  if (--outstanding_tasks_ > 0) return;
  ++group_;
  begin_group();
}

bool JobExecution::phase_has_checkpoint(const Phase& phase) {
  for (const workload::TaskGroup& group : phase.groups) {
    for (const Task& task : group) {
      const auto* io = std::get_if<workload::IoTask>(&task.payload);
      if (io && io->checkpoint) return true;
    }
  }
  return false;
}

bool JobExecution::advance_position() {
  ++iteration_;
  if (iteration_ >= current_phase().iterations) {
    iteration_ = 0;
    ++phase_;
  }
  return phase_ < job_->application.phases.size();
}

void JobExecution::finish_iteration() {
  // An iteration that wrote a checkpoint makes the *next* position durable:
  // every task of the iteration (the checkpoint included) has completed, so a
  // restart can resume right behind it.
  const bool checkpointed = phase_has_checkpoint(current_phase());
  if (!advance_position()) {
    state_ = State::kDone;
    ELSIM_DEBUG("job {} application complete at t={}", job_->id, engine_->now());
    if (on_complete_) on_complete_();
    return;
  }
  if (checkpointed) {
    durable_ = ExecutionProgress{phase_, iteration_};
    durable_time_ = engine_->now();
  }
  state_ = State::kAtBoundary;
  if (on_boundary_) on_boundary_();
}

void JobExecution::resume() {
  assert(state_ == State::kAtBoundary);
  begin_iteration();
}

void JobExecution::resume_with_nodes(std::vector<platform::NodeId> nodes,
                                     bool charge_redistribution,
                                     std::function<void()> on_applied) {
  assert(state_ == State::kAtBoundary);
  assert(!nodes.empty());
  const bool grew = nodes.size() > nodes_.size();
  std::vector<platform::NodeId> old_nodes = std::exchange(nodes_, std::move(nodes));
  on_reconfig_applied_ = std::move(on_applied);
  if (charge_redistribution && job_->application.state_bytes_per_node > 0.0 &&
      nodes_ != old_nodes) {
    start_redistribution(std::move(old_nodes), grew);
  } else {
    apply_reconfiguration();
  }
}

void JobExecution::apply_reconfiguration() {
  state_ = State::kAtBoundary;
  if (on_reconfig_applied_) std::exchange(on_reconfig_applied_, nullptr)();
  begin_iteration();
}

void JobExecution::start_redistribution(std::vector<platform::NodeId> old_nodes, bool grew) {
  // Growing: every added node receives one node-share of state from the
  // retained nodes, a prefix of the new allocation. Shrinking: every removed
  // node, appended to the endpoints after the kept ones, ships its share to
  // the survivors. Round-robin pairing spreads the transfer.
  std::vector<Flow> flows;
  std::vector<platform::NodeId> endpoints = nodes_;
  const double share = job_->application.state_bytes_per_node;
  if (grew) {
    const std::size_t old_count = old_nodes.size();
    for (std::size_t i = old_count; i < nodes_.size(); ++i) {
      flows.push_back({i % old_count, i, share});
    }
  } else {
    std::vector<std::size_t> removed_indices;
    for (platform::NodeId node : old_nodes) {
      if (std::find(nodes_.begin(), nodes_.end(), node) == nodes_.end()) {
        removed_indices.push_back(endpoints.size());
        endpoints.push_back(node);
      }
    }
    for (std::size_t i = 0; i < removed_indices.size(); ++i) {
      flows.push_back({removed_indices[i], i % nodes_.size(), share});
    }
  }
  std::optional<sim::ActivitySpec> spec =
      flow_spec(flows, endpoints, util::fmt("job{}/redistribute", job_->id));
  if (!spec) {
    // Degenerate (e.g. same node set); apply immediately.
    apply_reconfiguration();
    return;
  }
  state_ = State::kRedistributing;
  run<&JobExecution::apply_reconfiguration>(std::move(*spec));
}

void JobExecution::abort() {
  ++generation_;
  for (sim::ActivityId id : active_) engine_->fluid().cancel(id);
  active_.clear();
  outstanding_tasks_ = 0;
  state_ = State::kAborted;
}

// ---------------------------------------------------------------------------
// Task launchers
// ---------------------------------------------------------------------------

void JobExecution::launch_task(const Task& task) {
  const std::string label = util::fmt("job{}/{}", job_->id, task.name);
  if (const auto* compute = std::get_if<workload::ComputeTask>(&task.payload)) {
    launch_compute(*compute, label);
  } else if (const auto* comm = std::get_if<workload::CommTask>(&task.payload)) {
    launch_comm(*comm, label);
  } else if (const auto* io = std::get_if<workload::IoTask>(&task.payload)) {
    launch_io(*io, label);
  } else if (const auto* delay = std::get_if<workload::DelayTask>(&task.payload)) {
    run<&JobExecution::on_task_complete>(delay_spec(label, std::max(delay->seconds, 0.0)));
  }
}

void JobExecution::launch_compute(const workload::ComputeTask& task, const std::string& label) {
  const int k = node_count();
  const double per_node = workload::scaled_work_per_node(task.scaling, task.work, task.alpha, k);
  bool use_gpu = task.target == workload::ComputeTarget::kGpu;
  if (use_gpu) {
    for (platform::NodeId id : nodes_) {
      if (!cluster_->node(id).gpu) {
        ELSIM_WARN("job {}: GPU compute task on GPU-less node {}; using CPUs", job_->id, id);
        use_gpu = false;
        break;
      }
    }
  }
  sim::ActivitySpec spec;
  spec.label = label;
  spec.work = per_node;
  spec.demands.reserve(nodes_.size());
  double cap = sim::kTimeInfinity;
  for (platform::NodeId id : nodes_) {
    const platform::Node& node = cluster_->node(id);
    if (use_gpu) {
      spec.demands.push_back({*node.gpu, 1.0});
      cap = std::min(cap, node.gpu_capacity());
    } else {
      spec.demands.push_back({node.cpu, 1.0});
      cap = std::min(cap, node.cpu_capacity());
    }
  }
  spec.rate_cap = cap;
  run<&JobExecution::on_task_complete>(std::move(spec));
}

void JobExecution::launch_comm(const workload::CommTask& task, const std::string& label) {
  const auto flows = workload::pattern_flows(task.pattern, nodes_.size(), task.bytes);

  // Latency term: the pattern's algorithm takes `rounds` sequential message
  // steps, each paying the longest route's per-hop latency. Modeled as a
  // fixed delay that precedes the bandwidth phase (alpha-beta model).
  double startup = 0.0;
  if (cluster_->config().link_latency > 0.0 && !flows.empty()) {
    std::size_t max_hops = 0;
    for (const workload::Flow& flow : flows) {
      max_hops = std::max(max_hops,
                          cluster_->route(nodes_[flow.src], nodes_[flow.dst]).size());
    }
    startup = workload::pattern_rounds(task.pattern, nodes_.size()) *
              static_cast<double>(max_hops) * cluster_->config().link_latency;
  }

  if (startup > 0.0) {
    // Chain: pay the latency first, then run the bandwidth phase as the same
    // logical task (the group's outstanding count stays at one).
    active_.push_back(engine_->fluid().start(
        delay_spec(label + "/latency", startup), [this, generation = generation_, flows, label] {
          if (generation != generation_) return;
          if (auto spec = flow_spec(flows, nodes_, label)) {
            run<&JobExecution::on_task_complete>(std::move(*spec));
          } else {
            on_task_complete();
          }
        }));
    return;
  }
  std::optional<sim::ActivitySpec> spec = flow_spec(flows, nodes_, label);
  run<&JobExecution::on_task_complete>(spec ? std::move(*spec) : delay_spec(label, 0.0));
}

void JobExecution::launch_io(const workload::IoTask& task, const std::string& label) {
  const int k = node_count();
  const double per_node =
      workload::scaled_work_per_node(task.scaling, task.bytes, 0.0, k);
  if (per_node <= 0.0) {
    run<&JobExecution::on_task_complete>(delay_spec(label, 0.0));
    return;
  }
  sim::ActivitySpec spec;
  spec.label = label;
  spec.work = per_node;
  if (task.target == workload::IoTarget::kBurstBuffer) {
    bool have_bb = true;
    for (platform::NodeId id : nodes_) {
      const platform::Node& node = cluster_->node(id);
      if (!node.burst_buffer) {
        have_bb = false;
        break;
      }
      spec.demands.push_back({*node.burst_buffer, 1.0});
    }
    if (!have_bb) {
      // Platform has no burst buffers: fall back to the PFS path.
      launch_io(workload::IoTask{task.write, task.bytes, task.scaling,
                                 workload::IoTarget::kPfs},
                label);
      return;
    }
  } else {
    if (!cluster_->has_pfs()) {
      ELSIM_WARN("job {}: I/O task on a platform without PFS treated as instant", job_->id);
      run<&JobExecution::on_task_complete>(delay_spec(label, 0.0));
      return;
    }
    // Every node moves per_node bytes through its route; the PFS endpoint
    // carries all k streams.
    std::unordered_map<sim::ResourceId, double> link_bytes;
    for (platform::NodeId id : nodes_) {
      for (sim::ResourceId link : cluster_->pfs_route(id, task.write)) {
        link_bytes[link] += per_node;
      }
    }
    link_bytes[task.write ? cluster_->pfs_write() : cluster_->pfs_read()] +=
        per_node * static_cast<double>(k);
    // elsim-lint: allow(unordered-iteration) -- demands are sorted below
    for (const auto& [link, bytes] : link_bytes) {
      spec.demands.push_back({link, bytes / per_node});
    }
    // Deterministic demand order regardless of hash iteration.
    std::sort(spec.demands.begin(), spec.demands.end(),
              [](const sim::Demand& a, const sim::Demand& b) { return a.resource < b.resource; });
  }
  run<&JobExecution::on_task_complete>(std::move(spec));
}

sim::ActivitySpec JobExecution::delay_spec(std::string label, double seconds) {
  sim::ActivitySpec spec;
  spec.label = std::move(label);
  spec.work = seconds;
  spec.rate_cap = 1.0;  // one second of work per second
  return spec;
}

std::optional<sim::ActivitySpec> JobExecution::flow_spec(
    const std::vector<Flow>& flows, const std::vector<platform::NodeId>& endpoints,
    const std::string& label) const {
  // Aggregate flows into per-link byte volumes, then normalize into one
  // activity: rate 1 means "the heaviest link's bytes per second", so the
  // activity finishes exactly when the slowest link would.
  std::unordered_map<sim::ResourceId, double> link_bytes;
  for (const Flow& flow : flows) {
    if (flow.bytes <= 0.0 || flow.src == flow.dst) continue;
    assert(flow.src < endpoints.size() && flow.dst < endpoints.size());
    for (sim::ResourceId link : cluster_->route(endpoints[flow.src], endpoints[flow.dst])) {
      link_bytes[link] += flow.bytes;
    }
  }
  if (link_bytes.empty()) return std::nullopt;
  double heaviest = 0.0;
  // elsim-lint: allow(unordered-iteration) -- max() is order-independent
  for (const auto& [link, bytes] : link_bytes) heaviest = std::max(heaviest, bytes);
  sim::ActivitySpec spec;
  spec.label = label;
  spec.work = heaviest;
  spec.demands.reserve(link_bytes.size());
  // elsim-lint: allow(unordered-iteration) -- demands are sorted below
  for (const auto& [link, bytes] : link_bytes) {
    spec.demands.push_back({link, bytes / heaviest});
  }
  std::sort(spec.demands.begin(), spec.demands.end(),
            [](const sim::Demand& a, const sim::Demand& b) { return a.resource < b.resource; });
  return spec;
}

}  // namespace elastisim::core
