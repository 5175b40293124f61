#include "stats/state_sampler.h"

#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/csv.h"
#include "util/fmt.h"

namespace elastisim::stats {

void StateSampler::on_event(const BatchEvent& event) {
  if (event.kind != BatchEventKind::kSchedulingEnd && event.kind != BatchEventKind::kSample) {
    return;
  }
  const BatchState& state = event.state;
  sample(event.time, state.queued, state.running, state.free_nodes, state.failed,
         state.drained, state.cluster_nodes, state.tallies);
}

void StateSampler::sample(double time, int queued, int running, int free_nodes,
                          int failed, int drained, int total, const BatchTallies& tallies) {
  StateSample s;
  s.time = time;
  s.queued = queued;
  s.running = running;
  s.free_nodes = free_nodes;
  s.down = failed + drained;
  s.total = total;
  s.allocated = total - free_nodes - s.down;
  if (s.allocated < 0) s.allocated = 0;  // defensive; the books should balance
  s.utilization = total > 0 ? static_cast<double>(s.allocated) / total : 0.0;
  s.expansions = tallies.expansions;
  s.shrinks = tallies.shrinks;
  s.evolving_grants = tallies.evolving_grants;
  s.requeues = tallies.requeues;
  s.checkpoint_restarts = tallies.checkpoint_restarts;
  s.lost_node_seconds = tallies.lost_node_seconds;
  // Same-instant scheduling points collapse into one sample (last wins), so
  // the series stays a step function with unique timestamps.
  // elsim-lint: allow(float-equality) -- same-instant samples coalesce exactly
  if (!samples().empty() && samples().back().time == time) {
    samples_.replace_last(s);
  } else {
    samples_.append(s);
  }
}

void StateSampler::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.typed_row("time", "queued", "running", "allocated_nodes", "free_nodes",
                "down_nodes", "total_nodes", "utilization", "expansions", "shrinks",
                "evolving_grants", "requeues", "checkpoint_restarts",
                "lost_node_seconds");
  for (const StateSample& s : samples()) {
    csv.typed_row(s.time, s.queued, s.running, s.allocated, s.free_nodes, s.down,
                  s.total, s.utilization, static_cast<unsigned long long>(s.expansions),
                  static_cast<unsigned long long>(s.shrinks),
                  static_cast<unsigned long long>(s.evolving_grants),
                  static_cast<unsigned long long>(s.requeues),
                  static_cast<unsigned long long>(s.checkpoint_restarts),
                  s.lost_node_seconds);
  }
}

void StateSampler::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(util::fmt("cannot write {}", path));
  write_csv(out);
}

namespace {

double field_as_double(const std::vector<std::string>& fields, std::size_t index,
                       std::size_t line) {
  try {
    return std::stod(fields.at(index));
  } catch (const std::exception&) {
    throw std::runtime_error(
        util::fmt("timeseries line {}: malformed number \"{}\"", line,
                  index < fields.size() ? fields[index] : std::string("<missing>")));
  }
}

}  // namespace

std::vector<StateSample> StateSampler::read_csv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) return {};
  const std::vector<std::string> header = util::split_csv_line(line);
  std::unordered_map<std::string, std::size_t> column;
  for (std::size_t i = 0; i < header.size(); ++i) column[header[i]] = i;
  const auto need = [&](const char* name) {
    auto it = column.find(name);
    if (it == column.end()) {
      throw std::runtime_error(util::fmt("timeseries header lacks column \"{}\"", name));
    }
    return it->second;
  };
  const std::size_t c_time = need("time");
  const std::size_t c_queued = need("queued");
  const std::size_t c_running = need("running");
  const std::size_t c_allocated = need("allocated_nodes");
  const std::size_t c_free = need("free_nodes");
  const std::size_t c_down = need("down_nodes");
  const std::size_t c_total = need("total_nodes");
  const std::size_t c_util = need("utilization");
  const std::size_t c_expansions = need("expansions");
  const std::size_t c_shrinks = need("shrinks");
  const std::size_t c_grants = need("evolving_grants");
  const std::size_t c_requeues = need("requeues");
  const std::size_t c_restarts = need("checkpoint_restarts");
  const std::size_t c_lost = need("lost_node_seconds");

  std::vector<StateSample> samples;
  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    const std::vector<std::string> fields = util::split_csv_line(line);
    if (fields.size() < header.size()) {
      throw std::runtime_error(util::fmt("timeseries line {}: {} fields, expected {}",
                                         line_number, fields.size(), header.size()));
    }
    StateSample s;
    s.time = field_as_double(fields, c_time, line_number);
    s.queued = static_cast<int>(field_as_double(fields, c_queued, line_number));
    s.running = static_cast<int>(field_as_double(fields, c_running, line_number));
    s.allocated = static_cast<int>(field_as_double(fields, c_allocated, line_number));
    s.free_nodes = static_cast<int>(field_as_double(fields, c_free, line_number));
    s.down = static_cast<int>(field_as_double(fields, c_down, line_number));
    s.total = static_cast<int>(field_as_double(fields, c_total, line_number));
    s.utilization = field_as_double(fields, c_util, line_number);
    s.expansions =
        static_cast<std::uint64_t>(field_as_double(fields, c_expansions, line_number));
    s.shrinks = static_cast<std::uint64_t>(field_as_double(fields, c_shrinks, line_number));
    s.evolving_grants =
        static_cast<std::uint64_t>(field_as_double(fields, c_grants, line_number));
    s.requeues =
        static_cast<std::uint64_t>(field_as_double(fields, c_requeues, line_number));
    s.checkpoint_restarts =
        static_cast<std::uint64_t>(field_as_double(fields, c_restarts, line_number));
    s.lost_node_seconds = field_as_double(fields, c_lost, line_number);
    samples.push_back(s);
  }
  return samples;
}

std::vector<StateSample> StateSampler::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(util::fmt("cannot read {}", path));
  return read_csv(in);
}

}  // namespace elastisim::stats
