#include "core/job_execution.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/fmt.h"
#include "util/log.h"

namespace elastisim::core {

using workload::Flow;
using workload::Phase;
using workload::ScalingModel;
using workload::Task;

namespace {

/// (link, bytes): one link of one stream's route and the bytes the stream
/// moves over it.
using LinkBytes = std::vector<std::pair<sim::ResourceId, double>>;

/// One demand per link, in ascending link order, whose weight is the sum of
/// the link's bytes. The stable sort keeps each link's bytes in list order,
/// so they add up in the order a running per-link sum over the list would
/// add them, bit for bit.
std::vector<sim::Demand> fold_per_link(LinkBytes& link_bytes) {
  std::ranges::stable_sort(link_bytes, {}, &LinkBytes::value_type::first);
  std::size_t links = 0;
  for (std::size_t i = 0; i < link_bytes.size(); ++i) {
    const sim::ResourceId link = link_bytes[i].first;
    if (i == 0 || link != link_bytes[i - 1].first) ++links;
  }
  std::vector<sim::Demand> demands;
  demands.reserve(links);
  for (const auto& [link, bytes] : link_bytes) {
    if (demands.empty() || link != demands.back().resource) demands.push_back({link, 0.0});
    demands.back().weight += bytes;
  }
  return demands;
}

}  // namespace

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
void JobExecution::run(const sim::ActivitySpec& spec) {
  // Two pointers' worth of capture: std::function stores it without a heap
  // allocation.
  active_.push_back(engine_->fluid().start(spec, [this, generation = generation_] {
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
  if (specs_.empty()) build_specs();
  // specs_ lists the phase's tasks group after group.
  std::size_t first = 0;
  for (std::size_t g = 0; g < group_; ++g) first += phase.groups[g].size();
  const std::size_t tasks = phase.groups[group_].size();
  outstanding_tasks_ = tasks;
  for (std::size_t i = 0; i < tasks; ++i) launch_task(static_cast<std::uint32_t>(first + i));
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
    specs_.clear();  // the next phase runs other tasks
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
    // Finished executions live on until the batch system's teardown.
    specs_ = std::vector<TaskSpecs>();
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
  if (nodes_ != old_nodes) specs_.clear();  // they cost the old node set
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
  run<&JobExecution::apply_reconfiguration>(*spec);
}

void JobExecution::abort() {
  ++generation_;
  for (sim::ActivityId id : active_) engine_->fluid().cancel(id);
  active_.clear();
  outstanding_tasks_ = 0;
  state_ = State::kAborted;
  specs_ = std::vector<TaskSpecs>();
}

// ---------------------------------------------------------------------------
// Task launchers
// ---------------------------------------------------------------------------

// elsim-hot: every task launch; begin_group builds the specs once per phase and node set.
void JobExecution::launch_task(std::uint32_t task) {
  const TaskSpecs& specs = specs_[task];
  if (!specs.warning.empty()) ELSIM_WARN("{}", specs.warning);
  // Two pointers' worth of capture, as in run().
  // elsim-lint: allow(hot-container-growth) -- cleared per group; grows to the most activities one group starts
  active_.push_back(engine_->fluid().start(specs.first, [this, generation = generation_, task] {
    if (generation == generation_) finish_first(task);
  }));
}

void JobExecution::finish_first(std::uint32_t task) {
  // A chained transfer runs as the same logical task: the group's
  // outstanding count stays at one until it completes.
  if (const std::optional<sim::ActivitySpec>& then = specs_[task].then) {
    run<&JobExecution::on_task_complete>(*then);
  } else {
    on_task_complete();
  }
}

void JobExecution::build_specs() {
  const Phase& phase = current_phase();
  std::size_t tasks = 0;
  for (const workload::TaskGroup& group : phase.groups) tasks += group.size();
  specs_.reserve(tasks);
  for (const workload::TaskGroup& group : phase.groups) {
    for (const Task& task : group) specs_.push_back(build_task(task));
  }
}

JobExecution::TaskSpecs JobExecution::build_task(const Task& task) const {
  TaskSpecs specs;
  std::string label = util::fmt("job{}/{}", job_->id, task.name);
  if (const auto* compute = std::get_if<workload::ComputeTask>(&task.payload)) {
    build_compute(*compute, std::move(label), specs);
  } else if (const auto* comm = std::get_if<workload::CommTask>(&task.payload)) {
    build_comm(*comm, std::move(label), specs);
  } else if (const auto* io = std::get_if<workload::IoTask>(&task.payload)) {
    build_io(*io, std::move(label), specs);
  } else {
    const auto& delay = std::get<workload::DelayTask>(task.payload);
    specs.first = delay_spec(std::move(label), std::max(delay.seconds, 0.0));
  }
  return specs;
}

void JobExecution::build_compute(const workload::ComputeTask& task, std::string label,
                                 TaskSpecs& specs) const {
  const int k = node_count();
  const double per_node = workload::scaled_work_per_node(task.scaling, task.work, task.alpha, k);
  bool use_gpu = task.target == workload::ComputeTarget::kGpu;
  if (use_gpu) {
    for (platform::NodeId id : nodes_) {
      if (!cluster_->node(id).gpu) {
        specs.warning =
            util::fmt("job {}: GPU compute task on GPU-less node {}; using CPUs", job_->id, id);
        use_gpu = false;
        break;
      }
    }
  }
  sim::ActivitySpec spec;
  spec.label = std::move(label);
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
  specs.first = std::move(spec);
}

void JobExecution::build_comm(const workload::CommTask& task, std::string label,
                              TaskSpecs& specs) const {
  const std::vector<Flow> flows = workload::pattern_flows(task.pattern, nodes_.size(), task.bytes);

  // Latency term: the pattern's algorithm takes `rounds` sequential message
  // steps, each paying the longest route's per-hop latency. Modeled as a
  // fixed delay that precedes the bandwidth phase (alpha-beta model).
  double startup = 0.0;
  if (cluster_->config().link_latency > 0.0 && !flows.empty()) {
    std::size_t max_hops = 0;
    std::vector<sim::ResourceId> route;
    for (const Flow& flow : flows) {
      route.clear();
      cluster_->append_route(nodes_[flow.src], nodes_[flow.dst], route);
      max_hops = std::max(max_hops, route.size());
    }
    startup = workload::pattern_rounds(task.pattern, nodes_.size()) *
              static_cast<double>(max_hops) * cluster_->config().link_latency;
  }

  if (startup > 0.0) {
    // Chain: pay the latency first, then run the bandwidth phase as the same
    // logical task; with nothing to transfer, the task ends with the latency.
    specs.first = delay_spec(label + "/latency", startup);
    specs.then = flow_spec(flows, nodes_, std::move(label));
    return;
  }
  std::optional<sim::ActivitySpec> transfer = flow_spec(flows, nodes_, label);
  specs.first = transfer ? std::move(*transfer) : delay_spec(std::move(label), 0.0);
}

void JobExecution::build_io(const workload::IoTask& task, std::string label,
                            TaskSpecs& specs) const {
  const int k = node_count();
  const double per_node =
      workload::scaled_work_per_node(task.scaling, task.bytes, 0.0, k);
  if (per_node <= 0.0) {
    specs.first = delay_spec(std::move(label), 0.0);
    return;
  }
  sim::ActivitySpec spec;
  spec.work = per_node;
  if (task.target == workload::IoTarget::kBurstBuffer) {
    bool have_bb = true;
    spec.demands.reserve(nodes_.size());
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
      build_io(workload::IoTask{task.write, task.bytes, task.scaling, workload::IoTarget::kPfs},
               std::move(label), specs);
      return;
    }
  } else {
    if (!cluster_->has_pfs()) {
      specs.warning =
          util::fmt("job {}: I/O task on a platform without PFS treated as instant", job_->id);
      specs.first = delay_spec(std::move(label), 0.0);
      return;
    }
    // Every node moves per_node bytes through its route; the PFS endpoint
    // carries all k streams.
    LinkBytes link_bytes;
    std::vector<sim::ResourceId> route;
    for (platform::NodeId id : nodes_) {
      route.clear();
      cluster_->append_pfs_route(id, task.write, route);
      for (sim::ResourceId link : route) link_bytes.emplace_back(link, per_node);
    }
    link_bytes.emplace_back(task.write ? cluster_->pfs_write() : cluster_->pfs_read(),
                            per_node * static_cast<double>(k));
    spec.demands = fold_per_link(link_bytes);
    for (sim::Demand& demand : spec.demands) demand.weight /= per_node;
  }
  spec.label = std::move(label);
  specs.first = std::move(spec);
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
    std::string label) const {
  // Aggregate flows into per-link byte volumes, then normalize into one
  // activity: rate 1 means "the heaviest link's bytes per second", so the
  // activity finishes exactly when the slowest link would.
  LinkBytes link_bytes;
  std::vector<sim::ResourceId> route;
  for (const Flow& flow : flows) {
    if (flow.bytes <= 0.0 || flow.src == flow.dst) continue;
    assert(flow.src < endpoints.size() && flow.dst < endpoints.size());
    route.clear();
    cluster_->append_route(endpoints[flow.src], endpoints[flow.dst], route);
    for (sim::ResourceId link : route) link_bytes.emplace_back(link, flow.bytes);
  }
  if (link_bytes.empty()) return std::nullopt;
  sim::ActivitySpec spec;
  spec.demands = fold_per_link(link_bytes);
  double heaviest = 0.0;
  for (const sim::Demand& demand : spec.demands) heaviest = std::max(heaviest, demand.weight);
  for (sim::Demand& demand : spec.demands) demand.weight /= heaviest;
  spec.label = std::move(label);
  spec.work = heaviest;
  return spec;
}

}  // namespace elastisim::core
