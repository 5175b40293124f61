// Synthetic workload generation.
//
// Produces reproducible job mixes along the axes the evaluation sweeps: the
// fraction of each adaptivity class, job sizes (powers of two), arrival
// process, application shape (iterative compute + collective, optional
// I/O and checkpointing), and walltime over-estimation.
//
// The same seed always yields the same workload. Each job derives its own
// RNG stream from the master seed, so changing `job_count` never perturbs
// the jobs that are kept.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "workload/job.h"

namespace elastisim::workload {

struct GeneratorConfig {
  std::size_t job_count = 100;
  std::uint64_t seed = 42;

  /// Exponential inter-arrival times with this mean (seconds).
  double mean_interarrival = 90.0;

  /// Node counts are powers of two drawn log-uniformly from [min, max].
  int min_nodes = 1;
  int max_nodes = 32;

  /// Class mix; fractions must sum to <= 1, the remainder is rigid.
  double moldable_fraction = 0.0;
  double malleable_fraction = 0.0;
  double evolving_fraction = 0.0;

  /// Main-loop iterations, uniform in [min, max].
  int min_iterations = 4;
  int max_iterations = 24;

  /// Target per-iteration compute time (seconds) at the requested size,
  /// log-uniform in [0.5x, 2x] of this mean. Converted to FLOPs using
  /// `flops_per_node`.
  double mean_iteration_compute = 60.0;
  double flops_per_node = 48e9;

  /// Amdahl serial fraction, uniform in [0, max_alpha].
  double max_alpha = 0.05;

  /// All-reduce buffer per iteration (bytes); 0 disables communication.
  double comm_bytes = 64.0 * 1024 * 1024;

  /// Fraction of jobs with an input-read and output-write phase.
  double io_fraction = 0.0;
  /// Striped bytes for the read/write phases of I/O jobs.
  double io_bytes = 1.0 * 1024 * 1024 * 1024;

  /// Fraction of jobs that write a small checkpoint every iteration.
  double checkpoint_fraction = 0.0;
  double checkpoint_bytes = 64.0 * 1024 * 1024;
  /// Iterations between checkpoints for checkpointing jobs. 1 (the default)
  /// appends a checkpoint write to every main-loop iteration; n > 1 segments
  /// the main loop so only every n-th iteration ends with one. Pick from a
  /// target interval in seconds with daly_checkpoint_every().
  int checkpoint_every = 1;

  /// Per-node state redistributed when a malleable job resizes.
  double state_bytes_per_node = 256.0 * 1024 * 1024;

  /// Walltime limit = estimated runtime * factor (users over-request).
  double walltime_factor = 2.0;

  /// Evolving jobs request size changes on this fraction of their phases.
  double evolving_phase_fraction = 0.3;

  /// Jobs draw priorities uniformly from [0, max_priority]; 0 disables
  /// priorities (every job neutral).
  int max_priority = 0;

  /// Fraction of jobs that depend on the previously generated job ("afterok"
  /// chains, e.g. simulation -> analysis -> archive stages). 0 disables.
  double chain_fraction = 0.0;
};

/// An invalid GeneratorConfig member, named as its elastisim-gen flag.
struct GeneratorError {
  const char* flag;
  const char* expected;
};

/// Checks every value generate_workload() relies on: fractions in [0, 1]
/// with the class fractions summing to at most 1, 1 <= min <= max for node
/// counts and iterations, at least one iteration between checkpoints, a
/// non-negative priority bound, and finite quantities (positive iteration
/// time, node speed and walltime factor; the rest at least 0). Returns the
/// first invalid member.
std::optional<GeneratorError> validate(const GeneratorConfig& config);

/// Generates `config.job_count` jobs sorted by submit time, ids 1..N.
/// Every produced job satisfies Job::validate().
std::vector<Job> generate_workload(const GeneratorConfig& config);

/// Rough uncontended runtime estimate (seconds) of `job` on `nodes` nodes,
/// given per-node compute capacity; ignores network contention. Used for
/// walltime limits and by schedulers as the user-provided estimate.
double estimate_runtime(const Job& job, int nodes, double flops_per_node);

/// Near-optimal checkpoint interval (seconds of work between checkpoints)
/// for a checkpoint cost of `checkpoint_seconds` and a per-job MTBF of
/// `mtbf_seconds`, using Daly's higher-order refinement of Young's
/// sqrt(2 * C * M) formula. Returns mtbf_seconds when checkpointing costs
/// more than half an MTBF (checkpoint as rarely as possible).
double young_daly_interval(double checkpoint_seconds, double mtbf_seconds);

/// Maps young_daly_interval() onto the generator's iteration granularity:
/// the number of `iteration_seconds`-long iterations closest to the optimal
/// interval (at least 1).
int daly_checkpoint_every(double checkpoint_seconds, double mtbf_seconds,
                          double iteration_seconds);

}  // namespace elastisim::workload
