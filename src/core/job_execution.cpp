#include "core/job_execution.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <iterator>
#include <limits>
#include <string_view>
#include <utility>

#include "util/fmt.h"
#include "util/log.h"

namespace elastisim::core {

using workload::Flow;
using workload::Phase;
using workload::ScalingModel;
using workload::Task;

namespace {

/// One stream's bytes over one link of its route. The key packs (link, list
/// position), so sorting by key orders the list by link and keeps each
/// link's bytes in list order, with no stable sort's temporary buffer.
struct LinkBytes {
  std::uint64_t key;
  double bytes;
};

sim::ResourceId link_of(const LinkBytes& entry) {
  return static_cast<sim::ResourceId>(entry.key >> 32);
}

void add_link_bytes(std::vector<LinkBytes>& list, sim::ResourceId link, double bytes) {
  assert(list.size() < (std::uint64_t{1} << 32));
  // elsim-lint: allow(hot-container-growth) -- the thread's build scratch; grows to the largest build, then stops allocating
  list.push_back({std::uint64_t{link} << 32 | list.size(), bytes});
}

/// Transient lists of one build, shared by every execution on the thread:
/// they grow to the largest build and then stop allocating, whatever the
/// number of running jobs, and each sweep worker thread has its own.
struct BuildScratch {
  std::vector<Flow> flows;
  std::vector<sim::ResourceId> route;
  std::vector<LinkBytes> link_bytes;
  std::vector<platform::NodeId> endpoints;
};

BuildScratch& build_scratch() {
  thread_local BuildScratch scratch;
  return scratch;
}

/// Rewrites `demands` as one demand per link, in ascending link order, whose
/// weight is the sum of the link's bytes. Each link's bytes add up in list
/// order, as a running per-link sum over the list would add them, bit for
/// bit.
void fold_per_link(std::vector<LinkBytes>& link_bytes, std::vector<sim::Demand>& demands) {
  std::ranges::sort(link_bytes, {}, &LinkBytes::key);
  std::size_t links = 0;
  for (std::size_t i = 0; i < link_bytes.size(); ++i) {
    if (i == 0 || link_of(link_bytes[i]) != link_of(link_bytes[i - 1])) ++links;
  }
  demands.clear();
  demands.reserve(links);
  for (const LinkBytes& entry : link_bytes) {
    const sim::ResourceId link = link_of(entry);
    if (demands.empty() || link != demands.back().resource) demands.push_back({link, 0.0});
    demands.back().weight += entry.bytes;
  }
}

/// Makes `spec` `seconds` of work at one unit per second on no resource
/// (0 = instant); its label stays.
void set_delay(sim::ActivitySpec& spec, double seconds) {
  spec.work = seconds;
  spec.demands.clear();
  spec.rate_cap = 1.0;  // one second of work per second
}

/// Writes `job<id>/<name>` into `label`, reusing its storage.
void format_label(std::string& label, workload::JobId job, std::string_view name) {
  char digits[std::numeric_limits<workload::JobId>::digits10 + 1];
  const std::to_chars_result written = std::to_chars(std::begin(digits), std::end(digits), job);
  label.assign("job").append(std::begin(digits), written.ptr).append("/").append(name);
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
    sim::ActivitySpec restart;
    format_label(restart.label, job_->id, "restart");
    set_delay(restart, restart_overhead);
    run<&JobExecution::begin_iteration>(restart);
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
  if (!specs_built_) build_specs();
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
    specs_labelled_ = specs_built_ = false;  // the next phase runs other tasks
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
    release_specs();
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

// elsim-hot: every reconfiguration; rebuilds into the storage the execution already holds.
void JobExecution::resume_with_nodes(std::span<const platform::NodeId> nodes,
                                     bool charge_redistribution,
                                     std::function<void()> on_applied) {
  assert(state_ == State::kAtBoundary);
  assert(!nodes.empty());
  on_reconfig_applied_ = std::move(on_applied);
  if (std::ranges::equal(nodes, nodes_)) {
    apply_reconfiguration();
    return;
  }
  specs_built_ = false;  // they cost the old node set
  const bool transfer = charge_redistribution &&
                        job_->application.state_bytes_per_node > 0.0 &&
                        build_redistribution(nodes);
  nodes_.assign(nodes.begin(), nodes.end());
  if (!transfer) {
    // Uncharged, or no state crosses a link; apply immediately.
    apply_reconfiguration();
    return;
  }
  state_ = State::kRedistributing;
  run<&JobExecution::apply_reconfiguration>(*redistribution_);
}

void JobExecution::apply_reconfiguration() {
  state_ = State::kAtBoundary;
  if (on_reconfig_applied_) std::exchange(on_reconfig_applied_, nullptr)();
  begin_iteration();
}

// elsim-hot: every charged reconfiguration.
bool JobExecution::build_redistribution(std::span<const platform::NodeId> next) {
  // Growing: every added node receives one node-share of state from the
  // retained nodes, a prefix of the new allocation. Shrinking: every removed
  // node, appended to the endpoints after the kept ones, ships its share to
  // the survivors. Round-robin pairing spreads the transfer.
  BuildScratch& scratch = build_scratch();
  std::vector<Flow>& flows = scratch.flows;
  std::vector<platform::NodeId>& endpoints = scratch.endpoints;
  flows.clear();
  endpoints.assign(next.begin(), next.end());
  const double share = job_->application.state_bytes_per_node;
  if (next.size() > nodes_.size()) {
    const std::size_t old_count = nodes_.size();
    for (std::size_t i = old_count; i < next.size(); ++i) {
      // elsim-lint: allow(hot-container-growth) -- the thread's build scratch; grows to the largest resize, then stops allocating
      flows.push_back({i % old_count, i, share});
    }
  } else {
    for (platform::NodeId node : nodes_) {
      if (std::ranges::find(next, node) != next.end()) continue;
      const std::size_t removed = flows.size();
      // elsim-lint: allow(hot-container-growth) -- the thread's build scratch; grows to the largest resize, then stops allocating
      flows.push_back({endpoints.size(), removed % next.size(), share});
      // elsim-lint: allow(hot-container-growth) -- the thread's build scratch; grows to the largest resize, then stops allocating
      endpoints.push_back(node);
    }
  }
  if (!redistribution_) {
    // elsim-lint: allow(hot-alloc) -- once per execution, at its first charged resize
    redistribution_ = std::make_unique<sim::ActivitySpec>();
    format_label(redistribution_->label, job_->id, "redistribute");
  }
  return build_transfer(flows, endpoints, *redistribution_);
}

void JobExecution::abort() {
  ++generation_;
  for (sim::ActivityId id : active_) engine_->fluid().cancel(id);
  active_.clear();
  outstanding_tasks_ = 0;
  state_ = State::kAborted;
  release_specs();
}

void JobExecution::release_specs() {
  specs_ = std::vector<TaskSpecs>();
  redistribution_.reset();
  specs_labelled_ = specs_built_ = false;
}

// ---------------------------------------------------------------------------
// Task launchers
// ---------------------------------------------------------------------------

// elsim-hot: every task launch; begin_group rebuilds the specs once per phase and node set.
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
  if (const TaskSpecs& specs = specs_[task]; specs.chained) {
    run<&JobExecution::on_task_complete>(specs.then);
  } else {
    on_task_complete();
  }
}

// elsim-hot: the first launch after every phase change and every resize.
void JobExecution::build_specs() {
  const Phase& phase = current_phase();
  if (!specs_labelled_) {
    std::size_t tasks = 0;
    for (const workload::TaskGroup& group : phase.groups) tasks += group.size();
    if (specs_.size() < tasks) specs_.resize(tasks);
    std::size_t i = 0;
    for (const workload::TaskGroup& group : phase.groups) {
      for (const Task& task : group) format_label(specs_[i++].label, job_->id, task.name);
    }
    specs_labelled_ = true;
  }
  std::size_t i = 0;
  for (const workload::TaskGroup& group : phase.groups) {
    for (const Task& task : group) build_task(task, specs_[i++]);
  }
  specs_built_ = true;
}

// elsim-hot: rebuilds one task's specs in place.
void JobExecution::build_task(const Task& task, TaskSpecs& specs) const {
  specs.first.label = specs.label;
  specs.chained = false;
  specs.warning.clear();
  if (const auto* compute = std::get_if<workload::ComputeTask>(&task.payload)) {
    build_compute(*compute, specs);
  } else if (const auto* comm = std::get_if<workload::CommTask>(&task.payload)) {
    build_comm(*comm, specs);
  } else if (const auto* io = std::get_if<workload::IoTask>(&task.payload)) {
    build_io(*io, specs);
  } else {
    set_delay(specs.first, std::max(std::get<workload::DelayTask>(task.payload).seconds, 0.0));
  }
}

// elsim-hot: rebuilds a compute task's spec in place.
void JobExecution::build_compute(const workload::ComputeTask& task, TaskSpecs& specs) const {
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
  sim::ActivitySpec& spec = specs.first;
  spec.work = per_node;
  spec.demands.clear();
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
}

// elsim-hot: rebuilds a communication task's specs in place.
void JobExecution::build_comm(const workload::CommTask& task, TaskSpecs& specs) const {
  BuildScratch& scratch = build_scratch();
  std::vector<Flow>& flows = scratch.flows;
  workload::pattern_flows(task.pattern, nodes_.size(), task.bytes, flows);

  // Latency term: the pattern's algorithm takes `rounds` sequential message
  // steps, each paying the longest route's per-hop latency. Modeled as a
  // fixed delay that precedes the bandwidth phase (alpha-beta model).
  double startup = 0.0;
  if (cluster_->config().link_latency > 0.0 && !flows.empty()) {
    std::size_t max_hops = 0;
    for (const Flow& flow : flows) {
      scratch.route.clear();
      cluster_->append_route(nodes_[flow.src], nodes_[flow.dst], scratch.route);
      max_hops = std::max(max_hops, scratch.route.size());
    }
    startup = workload::pattern_rounds(task.pattern, nodes_.size()) *
              static_cast<double>(max_hops) * cluster_->config().link_latency;
  }

  if (startup > 0.0) {
    // Chain: pay the latency first, then run the bandwidth phase as the same
    // logical task; with nothing to transfer, the task ends with the latency.
    set_delay(specs.first, startup);
    specs.first.label.append("/latency");
    specs.chained = build_transfer(flows, nodes_, specs.then);
    if (specs.chained) specs.then.label = specs.label;
    return;
  }
  if (!build_transfer(flows, nodes_, specs.first)) set_delay(specs.first, 0.0);
}

// elsim-hot: rebuilds an I/O task's spec in place.
void JobExecution::build_io(const workload::IoTask& task, TaskSpecs& specs) const {
  const int k = node_count();
  const double per_node =
      workload::scaled_work_per_node(task.scaling, task.bytes, 0.0, k);
  sim::ActivitySpec& spec = specs.first;
  if (per_node <= 0.0) {
    set_delay(spec, 0.0);
    return;
  }
  spec.work = per_node;
  spec.rate_cap = sim::kTimeInfinity;
  spec.demands.clear();
  if (task.target == workload::IoTarget::kBurstBuffer) {
    spec.demands.reserve(nodes_.size());
    for (platform::NodeId id : nodes_) {
      const platform::Node& node = cluster_->node(id);
      if (!node.burst_buffer) {
        // Platform has no burst buffers: fall back to the PFS path.
        build_io(workload::IoTask{task.write, task.bytes, task.scaling, workload::IoTarget::kPfs},
                 specs);
        return;
      }
      spec.demands.push_back({*node.burst_buffer, 1.0});
    }
    return;
  }
  if (!cluster_->has_pfs()) {
    specs.warning =
        util::fmt("job {}: I/O task on a platform without PFS treated as instant", job_->id);
    set_delay(spec, 0.0);
    return;
  }
  // Every node moves per_node bytes through its route; the PFS endpoint
  // carries all k streams.
  BuildScratch& scratch = build_scratch();
  std::vector<LinkBytes>& link_bytes = scratch.link_bytes;
  link_bytes.clear();
  for (platform::NodeId id : nodes_) {
    scratch.route.clear();
    cluster_->append_pfs_route(id, task.write, scratch.route);
    for (sim::ResourceId link : scratch.route) add_link_bytes(link_bytes, link, per_node);
  }
  add_link_bytes(link_bytes, task.write ? cluster_->pfs_write() : cluster_->pfs_read(),
                 per_node * static_cast<double>(k));
  fold_per_link(link_bytes, spec.demands);
  for (sim::Demand& demand : spec.demands) demand.weight /= per_node;
}

// elsim-hot: every transfer a rebuild or a charged resize costs.
bool JobExecution::build_transfer(std::span<const Flow> flows,
                                  std::span<const platform::NodeId> endpoints,
                                  sim::ActivitySpec& spec) const {
  // Aggregate flows into per-link byte volumes, then normalize into one
  // activity: rate 1 means "the heaviest link's bytes per second", so the
  // activity finishes exactly when the slowest link would.
  BuildScratch& scratch = build_scratch();
  std::vector<LinkBytes>& link_bytes = scratch.link_bytes;
  link_bytes.clear();
  for (const Flow& flow : flows) {
    if (flow.bytes <= 0.0 || flow.src == flow.dst) continue;
    assert(flow.src < endpoints.size() && flow.dst < endpoints.size());
    scratch.route.clear();
    cluster_->append_route(endpoints[flow.src], endpoints[flow.dst], scratch.route);
    for (sim::ResourceId link : scratch.route) add_link_bytes(link_bytes, link, flow.bytes);
  }
  if (link_bytes.empty()) return false;
  fold_per_link(link_bytes, spec.demands);
  double heaviest = 0.0;
  for (const sim::Demand& demand : spec.demands) heaviest = std::max(heaviest, demand.weight);
  for (sim::Demand& demand : spec.demands) demand.weight /= heaviest;
  spec.work = heaviest;
  spec.rate_cap = sim::kTimeInfinity;
  return true;
}

}  // namespace elastisim::core
