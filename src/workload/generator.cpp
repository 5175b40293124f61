#include "workload/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/fmt.h"
#include "util/rng.h"

namespace elastisim::workload {

namespace {

using util::Rng;

Application build_application(const GeneratorConfig& config, Rng& rng, JobType type,
                              bool with_io, bool with_checkpoint) {
  Application app;
  app.state_bytes_per_node = config.state_bytes_per_node;

  const int iterations = static_cast<int>(rng.uniform_int(config.min_iterations,
                                                          config.max_iterations));
  const double compute_seconds =
      rng.log_uniform(0.5 * config.mean_iteration_compute, 2.0 * config.mean_iteration_compute);
  const double alpha = config.max_alpha > 0.0 ? rng.uniform(0.0, config.max_alpha) : 0.0;
  // Work is sized so that one iteration at the requested node count takes
  // roughly compute_seconds; the strong-scaling total is nodes * per-node.
  // The caller rescales through requested_nodes below, so express the work
  // per node here and let the task use weak interpretation for calibration?
  // No: we want strong scaling so malleability pays off. The caller passes
  // the total through `work`; it fills in requested_nodes afterwards, so we
  // leave a placeholder of 1 node worth and fix it up in generate_workload().
  (void)type;

  if (with_io) {
    Phase input;
    input.name = "input";
    input.groups.push_back(
        {Task{"read-input", IoTask{false, config.io_bytes, ScalingModel::kStrong,
                                   IoTarget::kPfs}}});
    app.phases.push_back(std::move(input));
  }

  Phase loop;
  loop.name = "main-loop";
  loop.iterations = iterations;
  TaskGroup work_group;
  work_group.push_back(
      Task{"compute", ComputeTask{compute_seconds * config.flops_per_node,
                                  ScalingModel::kAmdahl, alpha}});
  loop.groups.push_back(std::move(work_group));
  if (config.comm_bytes > 0.0) {
    loop.groups.push_back(
        {Task{"exchange", CommTask{CommPattern::kAllReduce, config.comm_bytes}}});
  }
  const Task checkpoint_task{
      "checkpoint", IoTask{true, config.checkpoint_bytes, ScalingModel::kStrong,
                           IoTarget::kPfs, /*checkpoint=*/true}};
  const int every = std::max(1, config.checkpoint_every);
  if (with_checkpoint && every <= 1) {
    // Every iteration ends with a durable checkpoint write.
    loop.groups.push_back({checkpoint_task});
    app.phases.push_back(std::move(loop));
  } else if (with_checkpoint && iterations > every) {
    // Checkpoint every `every`-th iteration: alternate (every - 1)-iteration
    // plain segments with single checkpointed iterations, preserving the
    // total iteration count.
    Phase ckpt = loop;
    ckpt.iterations = 1;
    ckpt.groups.push_back({checkpoint_task});
    int remaining = iterations;
    int segment = 0;
    while (remaining > 0) {
      const int plain = std::min(every - 1, remaining - 1);
      if (plain > 0) {
        Phase work = loop;
        work.name = util::fmt("main-loop/{}", segment);
        work.iterations = plain;
        app.phases.push_back(std::move(work));
        remaining -= plain;
      }
      Phase write = ckpt;
      write.name = util::fmt("main-loop/{}/ckpt", segment);
      app.phases.push_back(std::move(write));
      --remaining;
      ++segment;
    }
  } else {
    // No checkpointing, or the interval exceeds the loop: at most a final
    // checkpoint (which is never restarted from, so omit it entirely).
    app.phases.push_back(std::move(loop));
  }

  if (with_io) {
    Phase output;
    output.name = "output";
    output.groups.push_back(
        {Task{"write-output", IoTask{true, config.io_bytes, ScalingModel::kStrong,
                                     IoTarget::kPfs}}});
    app.phases.push_back(std::move(output));
  }
  return app;
}

void add_evolving_requests(const GeneratorConfig& config, Rng& rng, Job& job) {
  // Split the main loop into segments so the application can change its
  // request between them: [N iterations] becomes several phases, some of
  // which open with a grow/shrink request.
  for (auto it = job.application.phases.begin(); it != job.application.phases.end(); ++it) {
    if (it->name != "main-loop") continue;
    Phase pattern = *it;
    const int total = pattern.iterations;
    const int segments = std::max(2, std::min(total, 4));
    std::vector<Phase> replacement;
    int remaining = total;
    for (int s = 0; s < segments; ++s) {
      Phase segment = pattern;
      segment.name = util::fmt("main-loop/{}", s);
      segment.iterations = std::max(1, remaining / (segments - s));
      remaining -= segment.iterations;
      if (s > 0 && rng.uniform() < config.evolving_phase_fraction) {
        const int span = job.max_nodes - job.min_nodes;
        if (span > 0) {
          const int magnitude = static_cast<int>(rng.uniform_int(1, std::max(1, span / 2)));
          segment.evolving_delta = rng.bernoulli(0.5) ? magnitude : -magnitude;
        }
      }
      replacement.push_back(std::move(segment));
    }
    it = job.application.phases.erase(it);
    it = job.application.phases.insert(it, replacement.begin(), replacement.end());
    break;
  }
}

/// Scales strong/amdahl work totals so one main-loop iteration at
/// `requested` nodes costs roughly the drawn per-iteration time.
void calibrate_work(Job& job) {
  for (Phase& phase : job.application.phases) {
    for (TaskGroup& group : phase.groups) {
      for (Task& task : group) {
        if (auto* compute = std::get_if<ComputeTask>(&task.payload)) {
          if (compute->scaling == ScalingModel::kStrong) {
            compute->work *= static_cast<double>(job.requested_nodes);
          } else if (compute->scaling == ScalingModel::kAmdahl) {
            // Per-node work at k = requested should equal the drawn time:
            // scale so that alpha + (1-alpha)/k == drawn at requested size.
            const double k = static_cast<double>(job.requested_nodes);
            const double factor = compute->alpha + (1.0 - compute->alpha) / k;
            if (factor > 0.0) compute->work /= factor;
          }
        }
      }
    }
  }
}

}  // namespace

double young_daly_interval(double checkpoint_seconds, double mtbf_seconds) {
  ELSIM_CHECK(checkpoint_seconds >= 0.0 && mtbf_seconds > 0.0,
              "young_daly_interval needs checkpoint >= 0 and mtbf > 0, got C={} M={}",
              checkpoint_seconds, mtbf_seconds);
  if (checkpoint_seconds <= 0.0) return 0.0;
  // Daly (FGCS 2006): for C < 2M the optimum is
  //   sqrt(2CM) * (1 + sqrt(C/2M)/3 + (C/2M)/9) - C,
  // which refines Young's sqrt(2CM) first-order solution; beyond C = 2M the
  // model degenerates and checkpointing once per MTBF is as good as it gets.
  if (checkpoint_seconds >= 2.0 * mtbf_seconds) return mtbf_seconds;
  const double ratio = checkpoint_seconds / (2.0 * mtbf_seconds);
  const double young = std::sqrt(2.0 * checkpoint_seconds * mtbf_seconds);
  return young * (1.0 + std::sqrt(ratio) / 3.0 + ratio / 9.0) - checkpoint_seconds;
}

int daly_checkpoint_every(double checkpoint_seconds, double mtbf_seconds,
                          double iteration_seconds) {
  ELSIM_CHECK(iteration_seconds > 0.0, "iteration duration must be positive, got {}",
              iteration_seconds);
  const double interval = young_daly_interval(checkpoint_seconds, mtbf_seconds);
  return std::max(1, static_cast<int>(std::lround(interval / iteration_seconds)));
}

double estimate_runtime(const Job& job, int nodes, double flops_per_node) {
  ELSIM_CHECK(nodes >= 1, "estimate_runtime needs at least one node, got {}", nodes);
  double seconds = 0.0;
  for (const Phase& phase : job.application.phases) {
    double per_iteration = 0.0;
    for (const TaskGroup& group : phase.groups) {
      double group_seconds = 0.0;
      for (const Task& task : group) {
        double task_seconds = 0.0;
        if (const auto* compute = std::get_if<ComputeTask>(&task.payload)) {
          task_seconds = scaled_work_per_node(compute->scaling, compute->work, compute->alpha,
                                              nodes) /
                         flops_per_node;
        } else if (const auto* delay = std::get_if<DelayTask>(&task.payload)) {
          task_seconds = delay->seconds;
        }
        // Communication and I/O depend on platform bandwidths that the
        // estimate deliberately ignores (as user estimates do).
        group_seconds = std::max(group_seconds, task_seconds);
      }
      per_iteration += group_seconds;
    }
    seconds += per_iteration * phase.iterations;
  }
  return seconds;
}

std::optional<GeneratorError> validate(const GeneratorConfig& config) {
  const auto fraction = [](double value) { return value >= 0.0 && value <= 1.0; };
  const auto at_least_zero = [](double value) { return std::isfinite(value) && value >= 0.0; };
  const auto positive = [](double value) { return std::isfinite(value) && value > 0.0; };
  const char* in_unit = "a fraction in [0, 1]";
  const char* bytes = "a finite, non-negative byte count";
  const std::pair<bool, GeneratorError> checks[] = {
      {at_least_zero(config.mean_interarrival),
       {"interarrival", "a finite, non-negative duration"}},
      {config.min_nodes >= 1, {"min-nodes", "a positive integer"}},
      {config.max_nodes >= config.min_nodes,
       {"max-nodes", "an integer no smaller than --min-nodes"}},
      {fraction(config.moldable_fraction), {"moldable", in_unit}},
      {fraction(config.malleable_fraction), {"malleable", in_unit}},
      {fraction(config.evolving_fraction), {"evolving", in_unit}},
      {config.moldable_fraction + config.malleable_fraction + config.evolving_fraction <=
           1.0 + 1e-9,
       {"evolving", "a fraction keeping --moldable + --malleable + --evolving at most 1"}},
      {config.min_iterations >= 1, {"min-iterations", "a positive integer"}},
      {config.max_iterations >= config.min_iterations,
       {"max-iterations", "an integer no smaller than --min-iterations"}},
      {positive(config.mean_iteration_compute),
       {"iteration-compute", "a finite, positive duration"}},
      {positive(config.flops_per_node), {"flops-per-node", "a finite, positive FLOP rate"}},
      {fraction(config.max_alpha), {"max-alpha", in_unit}},
      {at_least_zero(config.comm_bytes), {"comm-bytes", bytes}},
      {fraction(config.io_fraction), {"io-fraction", in_unit}},
      {at_least_zero(config.io_bytes), {"io-bytes", bytes}},
      {fraction(config.checkpoint_fraction), {"checkpoint-fraction", in_unit}},
      {at_least_zero(config.checkpoint_bytes), {"checkpoint-bytes", bytes}},
      {config.checkpoint_every >= 1, {"checkpoint-every", "a positive integer"}},
      {at_least_zero(config.state_bytes_per_node), {"state-bytes", bytes}},
      {positive(config.walltime_factor), {"walltime-factor", "a finite, positive number"}},
      {fraction(config.evolving_phase_fraction), {"evolving-phase-fraction", in_unit}},
      {config.max_priority >= 0, {"max-priority", "a non-negative integer"}},
      {fraction(config.chain_fraction), {"chain-fraction", in_unit}},
  };
  for (const auto& [valid, error] : checks) {
    if (!valid) return error;
  }
  return std::nullopt;
}

std::vector<Job> generate_workload(const GeneratorConfig& config) {
  // GeneratorConfig is user-facing (CLI flags / JSON): keep the sanity
  // checks alive in release builds.
  ELSIM_CHECK(config.moldable_fraction + config.malleable_fraction + config.evolving_fraction <=
                  1.0 + 1e-9,
              "job-class fractions must sum to <= 1, got {} + {} + {}",
              config.moldable_fraction, config.malleable_fraction, config.evolving_fraction);
  ELSIM_CHECK(config.min_nodes >= 1 && config.min_nodes <= config.max_nodes,
              "node range must satisfy 1 <= min <= max, got [{}, {}]", config.min_nodes,
              config.max_nodes);

  Rng master(config.seed);
  Rng arrivals = master.split();

  std::vector<Job> jobs;
  jobs.reserve(config.job_count);
  double clock = 0.0;
  for (std::size_t i = 0; i < config.job_count; ++i) {
    Rng rng = master.split();
    clock += arrivals.exponential(1.0 / config.mean_interarrival);

    Job job;
    job.id = i + 1;
    job.submit_time = clock;
    job.name = util::fmt("job{}", job.id);
    job.user = util::fmt("user{}", rng.uniform_int(0, 7));
    if (config.max_priority > 0) {
      job.priority = static_cast<int>(rng.uniform_int(0, config.max_priority));
    }
    if (config.chain_fraction > 0.0 && i > 0 && rng.uniform() < config.chain_fraction) {
      job.dependencies.push_back(job.id - 1);
    }

    const double class_draw = rng.uniform();
    if (class_draw < config.malleable_fraction) {
      job.type = JobType::kMalleable;
    } else if (class_draw < config.malleable_fraction + config.moldable_fraction) {
      job.type = JobType::kMoldable;
    } else if (class_draw <
               config.malleable_fraction + config.moldable_fraction + config.evolving_fraction) {
      job.type = JobType::kEvolving;
    } else {
      job.type = JobType::kRigid;
    }

    job.requested_nodes =
        static_cast<int>(rng.power_of_two(config.min_nodes, config.max_nodes));
    if (job.type == JobType::kRigid) {
      job.min_nodes = job.max_nodes = job.requested_nodes;
    } else {
      job.min_nodes = std::max(config.min_nodes, job.requested_nodes / 4);
      job.max_nodes = std::min(config.max_nodes, job.requested_nodes * 4);
    }

    const bool with_io = rng.uniform() < config.io_fraction;
    const bool with_checkpoint = rng.uniform() < config.checkpoint_fraction;
    job.application = build_application(config, rng, job.type, with_io, with_checkpoint);
    calibrate_work(job);
    if (job.type == JobType::kEvolving) add_evolving_requests(config, rng, job);

    // Walltime must cover the worst case: adaptive jobs can run (or be
    // shrunk) down to min_nodes, where strong-scaling work takes longest.
    const double estimate = estimate_runtime(job, job.min_nodes, config.flops_per_node);
    job.walltime_limit = std::max(60.0, estimate * config.walltime_factor);

    assert(!job.validate().has_value());
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace elastisim::workload
