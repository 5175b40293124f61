// elastisim-gen — synthesize workload files from the generator's knobs.
//
//   elastisim-gen --jobs 200 --seed 42 --malleable 0.5 --out workload.json
//
// Every GeneratorConfig knob is exposed as a flag; the result is a JSON
// workload usable with `elastisim --workload`, or an SWF trace with
// `--format swf`. Quantities accept unit suffixes ("64MiB", "2GF", "90s").
// Every value is range-checked (workload::validate) before anything is
// generated or written; a bad one exits 2 naming its flag.
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "json/reader.h"
#include "util/flags.h"
#include "util/units.h"
#include "workload/generator.h"
#include "workload/swf.h"
#include "workload/workload_io.h"

using namespace elastisim;

namespace {

double quantity_flag(const util::Flags& flags, const std::string& name, double fallback,
                     std::optional<double> (*parser)(std::string_view)) {
  const std::string raw = flags.get(name, std::string());
  if (raw.empty()) return fallback;
  if (auto parsed = parser(raw)) return *parsed;
  throw util::FlagError(name, raw, "a number, or one with a unit (90s, 2GF, 64MiB)");
}

/// A duration flag that must be finite and at least 0.
double duration_flag(const util::Flags& flags, const std::string& name, double fallback) {
  const double value = quantity_flag(flags, name, fallback, util::parse_duration);
  if (std::isfinite(value) && value >= 0.0) return value;
  throw util::FlagError(name, flags.get(name, std::string()), "a finite, non-negative duration");
}

/// A count flag read as an int: a value outside [min, INT_MAX] is a
/// FlagError instead of wrapping.
int count_flag(const util::Flags& flags, const std::string& name, int fallback,
               int min = INT_MIN) {
  return static_cast<int>(flags.get(name, std::int64_t{fallback}, min, INT_MAX));
}

}  // namespace

int main(int argc, char** argv) try {
  util::Flags flags(argc, argv);

  workload::GeneratorConfig config;
  config.job_count = static_cast<std::size_t>(
      count_flag(flags, "jobs", static_cast<int>(config.job_count), 0));
  config.seed = static_cast<std::uint64_t>(
      flags.get("seed", static_cast<std::int64_t>(config.seed), 0, json::kMaxSafeInteger));
  config.mean_interarrival = quantity_flag(flags, "interarrival", config.mean_interarrival,
                                           util::parse_duration);
  config.min_nodes = count_flag(flags, "min-nodes", config.min_nodes);
  config.max_nodes = count_flag(flags, "max-nodes", config.max_nodes);
  config.moldable_fraction = flags.get("moldable", config.moldable_fraction);
  config.malleable_fraction = flags.get("malleable", config.malleable_fraction);
  config.evolving_fraction = flags.get("evolving", config.evolving_fraction);
  config.min_iterations = count_flag(flags, "min-iterations", config.min_iterations);
  config.max_iterations = count_flag(flags, "max-iterations", config.max_iterations);
  config.mean_iteration_compute = quantity_flag(
      flags, "iteration-compute", config.mean_iteration_compute, util::parse_duration);
  config.flops_per_node =
      quantity_flag(flags, "flops-per-node", config.flops_per_node, util::parse_flops);
  config.max_alpha = flags.get("max-alpha", config.max_alpha);
  config.comm_bytes = quantity_flag(flags, "comm-bytes", config.comm_bytes, util::parse_bytes);
  config.io_fraction = flags.get("io-fraction", config.io_fraction);
  config.io_bytes = quantity_flag(flags, "io-bytes", config.io_bytes, util::parse_bytes);
  config.checkpoint_fraction = flags.get("checkpoint-fraction", config.checkpoint_fraction);
  config.checkpoint_bytes =
      quantity_flag(flags, "checkpoint-bytes", config.checkpoint_bytes, util::parse_bytes);
  config.checkpoint_every = count_flag(flags, "checkpoint-every", config.checkpoint_every);
  config.state_bytes_per_node =
      quantity_flag(flags, "state-bytes", config.state_bytes_per_node, util::parse_bytes);
  config.walltime_factor = flags.get("walltime-factor", config.walltime_factor);
  config.evolving_phase_fraction =
      flags.get("evolving-phase-fraction", config.evolving_phase_fraction);
  config.max_priority = count_flag(flags, "max-priority", config.max_priority);
  config.chain_fraction = flags.get("chain-fraction", config.chain_fraction);
  if (const auto error = workload::validate(config)) {
    throw util::FlagError(error->flag, flags.get(error->flag, std::string()), error->expected);
  }
  // --daly-mtbf M derives checkpoint_every from the Young/Daly optimal
  // interval instead: checkpoint cost C comes from --daly-checkpoint-cost
  // (seconds to write one checkpoint), iteration length from
  // --iteration-compute.
  const double daly_mtbf = duration_flag(flags, "daly-mtbf", 0.0);
  if (daly_mtbf > 0.0) {
    const double cost = duration_flag(flags, "daly-checkpoint-cost", 60.0);
    config.checkpoint_every =
        workload::daly_checkpoint_every(cost, daly_mtbf, config.mean_iteration_compute);
    std::printf("Young/Daly: checkpoint every %d iterations (interval %.0fs)\n",
                config.checkpoint_every,
                workload::young_daly_interval(cost, daly_mtbf));
  }

  const std::string out = flags.get("out", std::string("workload.json"));
  const std::string format = flags.get("format", std::string("json"));
  if (format != "json" && format != "swf") throw util::FlagError("format", format, "json or swf");
  // Nothing is generated or written before every flag is known.
  if (flags.report_unknown()) return 2;

  const auto jobs = workload::generate_workload(config);
  if (format == "json") {
    workload::save_workload(out, jobs);
  } else {
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
      return 1;
    }
    workload::write_swf(file, jobs, config.flops_per_node, /*processors_per_node=*/1);
  }
  std::printf("wrote %zu jobs to %s (%s)\n", jobs.size(), out.c_str(), format.c_str());
  return 0;
} catch (const util::FlagError& error) {
  std::fprintf(stderr, "error: %s\n", error.what());
  return 2;
}
