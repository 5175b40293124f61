// Differential tests of the stored activity specs: what JobExecution launches
// on every iteration, from the first build through relaunches and the
// in-place rebuilds at phase changes and resizes, against the launchers that
// built every spec afresh on every launch, kept verbatim below as the
// reference; and the fluid model's by-id answers once freed slots are reused.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/job_execution.h"
#include "platform/cluster.h"
#include "sim/engine.h"
#include "util/fmt.h"
#include "util/rng.h"
#include "workload/patterns.h"

namespace elastisim::core {
namespace {

using workload::Flow;
using workload::Task;

// ---------------------------------------------------------------------------
// Reference: the launchers that built each spec on every launch. Verbatim but
// for the launch itself, which records the spec (and a latency step's
// follow-up at once) instead of starting it, and the warnings, which are
// recorded as the logger would print them.
// ---------------------------------------------------------------------------

struct ReferenceLauncher {
  const platform::Cluster* cluster_;
  const workload::Job* job_;
  std::vector<platform::NodeId> nodes_;
  std::vector<sim::ActivitySpec> started;
  std::string warnings;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  void run(sim::ActivitySpec spec) { started.push_back(std::move(spec)); }
  template <typename... Args>
  void warn(std::string_view pattern, const Args&... args) {
    warnings += "[WARN] " + util::fmt(pattern, args...) + "\n";
  }

  void launch_task(const Task& task) {
    const std::string label = util::fmt("job{}/{}", job_->id, task.name);
    if (const auto* compute = std::get_if<workload::ComputeTask>(&task.payload)) {
      launch_compute(*compute, label);
    } else if (const auto* comm = std::get_if<workload::CommTask>(&task.payload)) {
      launch_comm(*comm, label);
    } else if (const auto* io = std::get_if<workload::IoTask>(&task.payload)) {
      launch_io(*io, label);
    } else if (const auto* delay = std::get_if<workload::DelayTask>(&task.payload)) {
      run(delay_spec(label, std::max(delay->seconds, 0.0)));
    }
  }

  void launch_compute(const workload::ComputeTask& task, const std::string& label) {
    const int k = node_count();
    const double per_node = workload::scaled_work_per_node(task.scaling, task.work, task.alpha, k);
    bool use_gpu = task.target == workload::ComputeTarget::kGpu;
    if (use_gpu) {
      for (platform::NodeId id : nodes_) {
        if (!cluster_->node(id).gpu) {
          warn("job {}: GPU compute task on GPU-less node {}; using CPUs", job_->id, id);
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
    run(std::move(spec));
  }

  void launch_comm(const workload::CommTask& task, const std::string& label) {
    const auto flows = workload::pattern_flows(task.pattern, nodes_.size(), task.bytes);

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
      run(delay_spec(label + "/latency", startup));
      if (auto spec = flow_spec(flows, nodes_, label)) run(std::move(*spec));
      return;
    }
    std::optional<sim::ActivitySpec> spec = flow_spec(flows, nodes_, label);
    run(spec ? std::move(*spec) : delay_spec(label, 0.0));
  }

  void launch_io(const workload::IoTask& task, const std::string& label) {
    const int k = node_count();
    const double per_node =
        workload::scaled_work_per_node(task.scaling, task.bytes, 0.0, k);
    if (per_node <= 0.0) {
      run(delay_spec(label, 0.0));
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
        launch_io(workload::IoTask{task.write, task.bytes, task.scaling,
                                   workload::IoTarget::kPfs},
                  label);
        return;
      }
    } else {
      if (!cluster_->has_pfs()) {
        warn("job {}: I/O task on a platform without PFS treated as instant", job_->id);
        run(delay_spec(label, 0.0));
        return;
      }
      std::unordered_map<sim::ResourceId, double> link_bytes;
      for (platform::NodeId id : nodes_) {
        for (sim::ResourceId link : cluster_->pfs_route(id, task.write)) {
          link_bytes[link] += per_node;
        }
      }
      link_bytes[task.write ? cluster_->pfs_write() : cluster_->pfs_read()] +=
          per_node * static_cast<double>(k);
      for (const auto& [link, bytes] : link_bytes) {
        spec.demands.push_back({link, bytes / per_node});
      }
      std::sort(spec.demands.begin(), spec.demands.end(),
                [](const sim::Demand& a, const sim::Demand& b) { return a.resource < b.resource; });
    }
    run(std::move(spec));
  }

  void start_redistribution(std::vector<platform::NodeId> old_nodes, bool grew) {
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
    if (spec) run(std::move(*spec));
  }

  static sim::ActivitySpec delay_spec(std::string label, double seconds) {
    sim::ActivitySpec spec;
    spec.label = std::move(label);
    spec.work = seconds;
    spec.rate_cap = 1.0;
    return spec;
  }

  std::optional<sim::ActivitySpec> flow_spec(const std::vector<Flow>& flows,
                                             const std::vector<platform::NodeId>& endpoints,
                                             const std::string& label) const {
    std::unordered_map<sim::ResourceId, double> link_bytes;
    for (const Flow& flow : flows) {
      if (flow.bytes <= 0.0 || flow.src == flow.dst) continue;
      for (sim::ResourceId link : cluster_->route(endpoints[flow.src], endpoints[flow.dst])) {
        link_bytes[link] += flow.bytes;
      }
    }
    if (link_bytes.empty()) return std::nullopt;
    double heaviest = 0.0;
    for (const auto& [link, bytes] : link_bytes) heaviest = std::max(heaviest, bytes);
    sim::ActivitySpec spec;
    spec.label = label;
    spec.work = heaviest;
    spec.demands.reserve(link_bytes.size());
    for (const auto& [link, bytes] : link_bytes) {
      spec.demands.push_back({link, bytes / heaviest});
    }
    std::sort(spec.demands.begin(), spec.demands.end(),
              [](const sim::Demand& a, const sim::Demand& b) { return a.resource < b.resource; });
    return spec;
  }
};

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every field of the two specs, weights, work and cap to the bit.
void expect_same_spec(const sim::ActivitySpec& expected, const sim::ActivitySpec& actual) {
  SCOPED_TRACE(expected.label);
  EXPECT_EQ(actual.label, expected.label);
  EXPECT_TRUE(same_bits(actual.work, expected.work)) << actual.work << " vs " << expected.work;
  EXPECT_TRUE(same_bits(actual.rate_cap, expected.rate_cap))
      << actual.rate_cap << " vs " << expected.rate_cap;
  ASSERT_EQ(actual.demands.size(), expected.demands.size());
  for (std::size_t i = 0; i < expected.demands.size(); ++i) {
    EXPECT_EQ(actual.demands[i].resource, expected.demands[i].resource) << "demand " << i;
    EXPECT_TRUE(same_bits(actual.demands[i].weight, expected.demands[i].weight))
        << "demand " << i << ": " << actual.demands[i].weight << " vs "
        << expected.demands[i].weight;
  }
}

enum class Shape { kStar, kStarBackbone, kFatTree, kDragonfly, kTorus };

platform::ClusterConfig random_platform(util::Rng& rng, Shape shape) {
  platform::ClusterConfig config;
  switch (shape) {
    case Shape::kStar:
    case Shape::kStarBackbone:
      config.topology = platform::TopologyKind::kStar;
      config.backbone_bandwidth = shape == Shape::kStarBackbone ? 3e10 : 0.0;
      break;
    case Shape::kFatTree: config.topology = platform::TopologyKind::kFatTree; break;
    case Shape::kDragonfly: config.topology = platform::TopologyKind::kDragonfly; break;
    case Shape::kTorus: config.topology = platform::TopologyKind::kTorus; break;
  }
  config.node_count = static_cast<std::size_t>(rng.uniform_int(4, 40));
  config.pod_size = static_cast<std::size_t>(rng.uniform_int(2, 8));
  config.cores_per_node = static_cast<int>(rng.uniform_int(1, 8));
  config.flops_per_core = rng.uniform(1e9, 4e9);
  config.link_bandwidth = rng.uniform(1e9, 2e10);
  config.pod_bandwidth = rng.uniform(1e10, 8e10);
  config.link_latency = rng.bernoulli(0.5) ? rng.uniform(1e-7, 1e-5) : 0.0;
  if (rng.bernoulli(0.5)) {
    config.gpus_per_node = static_cast<int>(rng.uniform_int(1, 4));
    config.flops_per_gpu = rng.uniform(1e12, 1e13);
  }
  if (rng.bernoulli(0.5)) config.burst_buffer_bandwidth = rng.uniform(1e9, 5e9);
  if (rng.bernoulli(0.85)) {
    config.pfs.read_bandwidth = rng.uniform(1e10, 1e11);
    config.pfs.write_bandwidth = rng.uniform(1e10, 1e11);
  }
  return config;
}

/// `count` distinct nodes of `nodes`, in random order.
std::vector<platform::NodeId> random_nodes(util::Rng& rng, std::size_t nodes, std::size_t count) {
  std::vector<platform::NodeId> all(nodes);
  std::iota(all.begin(), all.end(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(nodes) - 1));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  return all;
}

workload::ScalingModel random_scaling(util::Rng& rng) {
  return static_cast<workload::ScalingModel>(rng.uniform_int(0, 2));
}

/// One random task of every kind the launcher distinguishes: CPU and GPU
/// compute, all seven patterns (sometimes without bytes), PFS reads and
/// writes, burst-buffer I/O and delays.
std::vector<Task> random_tasks(util::Rng& rng) {
  std::vector<Task> tasks;
  const auto bytes = [&rng] { return rng.bernoulli(0.1) ? 0.0 : rng.log_uniform(1e3, 1e10); };
  tasks.push_back({"cpu", workload::ComputeTask{rng.log_uniform(1e9, 1e13), random_scaling(rng),
                                                rng.uniform(0.0, 0.5),
                                                workload::ComputeTarget::kCpu}});
  tasks.push_back({"gpu", workload::ComputeTask{rng.log_uniform(1e9, 1e13), random_scaling(rng),
                                                rng.uniform(0.0, 0.5),
                                                workload::ComputeTarget::kGpu}});
  for (int pattern = 0; pattern < 7; ++pattern) {
    tasks.push_back({util::fmt("comm{}", pattern),
                     workload::CommTask{static_cast<workload::CommPattern>(pattern), bytes()}});
  }
  for (const bool write : {false, true}) {
    tasks.push_back({write ? "pfs-write" : "pfs-read",
                     workload::IoTask{write, bytes(), random_scaling(rng)}});
  }
  tasks.push_back({"bb", workload::IoTask{rng.bernoulli(0.5), bytes(), random_scaling(rng),
                                          workload::IoTarget::kBurstBuffer}});
  tasks.push_back({"delay", workload::DelayTask{rng.uniform(0.0, 3.0)}});
  // A random subset in random order, one task per group.
  std::vector<Task> chosen;
  for (Task& task : tasks) {
    if (rng.bernoulli(0.6)) chosen.push_back(std::move(task));
  }
  for (std::size_t i = chosen.size(); i > 1; --i) {
    std::swap(chosen[i - 1], chosen[static_cast<std::size_t>(rng.uniform_int(0, i - 1))]);
  }
  if (chosen.empty()) chosen.push_back({"delay", workload::DelayTask{1.0}});
  return chosen;
}

/// What the reference launches for one iteration of `job`'s phase `phase` on
/// `nodes`, after the redistribution from `previous` (charged when the job
/// declares per-node state and the nodes changed), in launch order; the
/// warnings it logs go to `log`.
std::vector<sim::ActivitySpec> reference_iteration(const platform::Cluster& cluster,
                                                   const workload::Job& job, std::size_t phase,
                                                   const std::vector<platform::NodeId>& previous,
                                                   const std::vector<platform::NodeId>& nodes,
                                                   std::string& log) {
  ReferenceLauncher reference{&cluster, &job, nodes, {}, {}};
  if (job.application.state_bytes_per_node > 0.0 && nodes != previous) {
    reference.start_redistribution(previous, nodes.size() > previous.size());
  }
  for (const workload::TaskGroup& group : job.application.phases[phase].groups) {
    for (const Task& task : group) reference.launch_task(task);
  }
  log += reference.warnings;
  return std::move(reference.started);
}

/// Runs `job` on `allocations[i]` in iteration i (the execution resizes at
/// each boundary) and returns every activity it started, in start order:
/// one task per group, so start order is launch order.
std::vector<sim::ActivitySpec> launched_specs(
    sim::Engine& engine, const platform::Cluster& cluster, const workload::Job& job,
    const std::vector<std::vector<platform::NodeId>>& allocations) {
  std::vector<sim::ActivitySpec> launched;
  sim::ActivityId seen = 0;
  const auto collect = [&] {
    const sim::ActivityId last = engine.fluid().activities_started();
    for (sim::ActivityId id = seen + 1; id <= last; ++id) {
      // Every activity lives at least until the event after its start.
      const sim::ActivitySpec* spec = engine.fluid().spec(id);
      ASSERT_NE(spec, nullptr) << "activity " << id;
      launched.push_back(*spec);
    }
    seen = last;
  };
  std::unique_ptr<JobExecution> execution;
  std::size_t iteration = 0;
  bool completed = false;
  execution = std::make_unique<JobExecution>(
      engine, cluster, job, allocations.front(),
      [&] {
        ++iteration;
        execution->resume_with_nodes(allocations[iteration], /*charge_redistribution=*/true,
                                     nullptr);
      },
      [&] { completed = true; });
  execution->start();
  collect();
  while (engine.step()) collect();
  EXPECT_TRUE(completed);
  EXPECT_EQ(iteration + 1, allocations.size());
  return launched;
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// Situations the in-place rebuild must get right, counted over all cases so
/// the random draw provably reaches each of them.
struct RebuildCoverage {
  /// A task slot whose kind differs from the previous phase's.
  int kind_changes = 0;
  /// A resize that adds or drops a communication task's latency step (and
  /// its transfer), e.g. to or from a single node.
  int chains_gained = 0;
  int chains_lost = 0;
  /// A rebuild whose fallback warnings differ from the previous iteration's,
  /// both non-empty (a GPU-less node named anew), or that has none after one
  /// that had some.
  int warnings_changed = 0;
  int warnings_cleared = 0;
};

std::size_t latency_steps(const std::vector<sim::ActivitySpec>& launches) {
  return static_cast<std::size_t>(std::count_if(
      launches.begin(), launches.end(),
      [](const sim::ActivitySpec& spec) { return spec.label.ends_with("/latency"); }));
}

TEST(ActivitySpecs, LaunchesMatchTheRebuildingReferenceAcrossResizes) {
  // One execution runs nine iterations over three phases. Phase 0 runs
  // iterations 1-2 on A (a build, then a relaunch). Phase 1 runs 3 on A
  // (other tasks on the same nodes), 4 on B (a resize), 5 on A again (back
  // from a shrink or a growth) and 6 on A (a relaunch after the rebuild).
  // Phase 2 runs 7 on one node of A, 8 on A and 9 on that node again, so
  // its communication tasks lose their transfer (and latency step) and gain
  // them back. Each phase draws its own tasks, so a slot changes name and
  // kind between phases, and a phase with fewer tasks than the one before
  // leaves entries unused. A job with per-node state redistributes at each
  // resize.
  constexpr int kCases = 150;
  RebuildCoverage coverage;
  for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    sim::Engine engine;
    const platform::Cluster cluster(engine, random_platform(rng, static_cast<Shape>(seed % 5)));
    const auto nodes = static_cast<std::int64_t>(cluster.node_count());
    const auto a_count = static_cast<std::size_t>(rng.uniform_int(1, nodes));
    const std::vector<platform::NodeId> a = random_nodes(rng, cluster.node_count(), a_count);
    // B is A shrunk to a prefix, A grown by other nodes (as the batch system
    // resizes), or any other node set.
    std::vector<platform::NodeId> b;
    const auto variant = rng.uniform_int(0, 2);
    if (variant == 0 && a_count > 1) {
      b.assign(a.begin(), a.begin() + rng.uniform_int(1, static_cast<std::int64_t>(a_count) - 1));
    } else if (variant == 1 && a_count < cluster.node_count()) {
      b = random_nodes(rng, cluster.node_count(), cluster.node_count());
      std::erase_if(b, [&a](platform::NodeId node) {
        return std::find(a.begin(), a.end(), node) != a.end();
      });
      b.resize(static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(b.size()))));
      b.insert(b.begin(), a.begin(), a.end());
    } else {
      b = random_nodes(rng, cluster.node_count(),
                       static_cast<std::size_t>(rng.uniform_int(1, nodes)));
    }
    const std::vector<platform::NodeId> one = {
        a[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(a_count) - 1))]};

    workload::Job job;
    job.id = static_cast<workload::JobId>(seed);
    if (rng.bernoulli(0.5)) job.application.state_bytes_per_node = rng.log_uniform(1e6, 1e9);
    for (const int iterations : {2, 4, 3}) {
      workload::Phase phase;
      phase.name = util::fmt("phase{}", iterations);
      phase.iterations = iterations;
      for (Task& task : random_tasks(rng)) phase.groups.push_back({std::move(task)});
      job.application.phases.push_back(std::move(phase));
    }
    for (std::size_t p = 1; p < job.application.phases.size(); ++p) {
      const auto& before = job.application.phases[p - 1].groups;
      const auto& after = job.application.phases[p].groups;
      for (std::size_t i = 0; i < std::min(before.size(), after.size()); ++i) {
        coverage.kind_changes += before[i][0].payload.index() != after[i][0].payload.index();
      }
    }

    const std::vector<std::size_t> phase_of = {0, 0, 1, 1, 1, 1, 2, 2, 2};
    const std::vector<std::vector<platform::NodeId>> allocations = {a, a, a, b, a, a, one, a, one};
    std::vector<sim::ActivitySpec> expected;
    std::string expected_log;
    std::vector<sim::ActivitySpec> previous_launches;
    std::string previous_log;
    for (std::size_t i = 0; i < allocations.size(); ++i) {
      std::string log;
      const std::vector<sim::ActivitySpec> iteration = reference_iteration(
          cluster, job, phase_of[i], allocations[i == 0 ? 0 : i - 1], allocations[i], log);
      if (i > 0 && phase_of[i] == phase_of[i - 1] && allocations[i] != allocations[i - 1]) {
        coverage.chains_gained += latency_steps(iteration) > latency_steps(previous_launches);
        coverage.chains_lost += latency_steps(iteration) < latency_steps(previous_launches);
      }
      if (i > 0 && !previous_log.empty()) {
        coverage.warnings_changed += !log.empty() && log != previous_log;
        coverage.warnings_cleared += log.empty();
      }
      expected.insert(expected.end(), iteration.begin(), iteration.end());
      expected_log += log;
      previous_launches = iteration;
      previous_log = log;
    }

    testing::internal::CaptureStderr();
    const std::vector<sim::ActivitySpec> launched =
        launched_specs(engine, cluster, job, allocations);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), expected_log);
    ASSERT_EQ(launched.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) expect_same_spec(expected[i], launched[i]);
  }
  EXPECT_GT(coverage.kind_changes, 0);
  EXPECT_GT(coverage.chains_gained, 0);
  EXPECT_GT(coverage.chains_lost, 0);
  EXPECT_GT(coverage.warnings_changed, 0);
  EXPECT_GT(coverage.warnings_cleared, 0);
}

TEST(ActivitySpecs, FallbackWarningsRepeatOnEveryLaunch) {
  // A GPU task on GPU-less nodes and PFS I/O without a PFS warn at every
  // launch, as they did when every launch rebuilt its spec.
  sim::Engine engine;
  platform::ClusterConfig config;
  config.node_count = 4;
  const platform::Cluster cluster(engine, config);
  ASSERT_FALSE(cluster.has_pfs());
  workload::Job job;
  job.id = 7;
  workload::Phase phase;
  phase.name = "main";
  phase.iterations = 3;
  phase.groups.push_back({Task{"gpu", workload::ComputeTask{1e9, workload::ScalingModel::kStrong,
                                                            0.0, workload::ComputeTarget::kGpu}}});
  phase.groups.push_back({Task{"write", workload::IoTask{true, 1e9}}});
  job.application.phases.push_back(std::move(phase));
  testing::internal::CaptureStderr();
  launched_specs(engine, cluster, job, {{2, 1}, {2, 1}, {2, 1}});
  const std::string log = testing::internal::GetCapturedStderr();
  std::string expected;
  for (int i = 0; i < 3; ++i) {
    expected +=
        "[WARN] job 7: GPU compute task on GPU-less node 2; using CPUs\n"
        "[WARN] job 7: I/O task on a platform without PFS treated as instant\n";
  }
  EXPECT_EQ(log, expected);
}

TEST(ActivitySpecs, FreedIdsStayDeadWhileSlotsAreReused) {
  // Random starts, cancels and completions over a few resources: every id
  // ever issued answers as live (with the spec it started with) or dead
  // (is_active false, rate 0, remaining work 0, cancel false), although the
  // slots and their kept storage pass from activity to activity.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    sim::Engine engine;
    sim::FluidModel& fluid = engine.fluid();
    std::vector<sim::ResourceId> resources;
    for (int r = 0; r < 6; ++r) {
      resources.push_back(fluid.add_resource(util::fmt("r{}", r), rng.uniform(1.0, 10.0)));
    }
    std::vector<sim::ActivitySpec> specs(1);  // by id; id 0 is never issued
    std::vector<bool> live(1, false);
    const auto check_all = [&] {
      for (sim::ActivityId id = 1; id < specs.size(); ++id) {
        if (live[id]) {
          ASSERT_TRUE(fluid.is_active(id)) << id;
          const sim::ActivitySpec* spec = fluid.spec(id);
          ASSERT_NE(spec, nullptr) << id;
          expect_same_spec(specs[id], *spec);
        } else {
          EXPECT_FALSE(fluid.is_active(id)) << id;
          EXPECT_EQ(fluid.spec(id), nullptr) << id;
          EXPECT_EQ(fluid.rate(id), 0.0) << id;
          EXPECT_EQ(fluid.remaining_work(id), 0.0) << id;
          EXPECT_FALSE(fluid.cancel(id)) << id;
        }
      }
      EXPECT_EQ(fluid.check_invariants(true), std::nullopt);
    };
    for (int step = 0; step < 120; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.5) {
        sim::ActivitySpec spec;
        spec.work = rng.uniform(0.5, 20.0);
        spec.label = util::fmt("activity-{}-with-a-label-longer-than-inline-{}", step,
                               std::string(static_cast<std::size_t>(rng.uniform_int(0, 40)), 'x'));
        for (auto n = rng.uniform_int(0, 5); n > 0; --n) {
          spec.demands.push_back({resources[static_cast<std::size_t>(rng.uniform_int(0, 5))],
                                  rng.uniform(0.5, 2.0)});
        }
        spec.rate_cap = spec.demands.empty() || rng.bernoulli(0.3) ? rng.uniform(0.5, 5.0)
                                                                   : sim::kTimeInfinity;
        const sim::ActivityId id = fluid.start(spec, [&live, id = specs.size()] {
          live[id] = false;
        });
        ASSERT_EQ(id, specs.size());
        specs.push_back(std::move(spec));
        live.push_back(true);
      } else if (roll < 0.7) {
        // Cancel a random issued id, live or not.
        if (specs.size() > 1) {
          const auto id = static_cast<sim::ActivityId>(
              rng.uniform_int(1, static_cast<std::int64_t>(specs.size()) - 1));
          EXPECT_EQ(fluid.cancel(id), static_cast<bool>(live[id])) << id;
          live[id] = false;
        }
      } else {
        engine.step();  // one completion, if any
      }
      check_all();
    }
    engine.run();
    check_all();
  }
}

}  // namespace
}  // namespace elastisim::core
