#include "workload/workload_io.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "util/fmt.h"
#include "util/load_error.h"

namespace elastisim::workload {

namespace {

using util::LoadError;

/// Runs `fn`, prefixing the JSON path of any escaping diagnostic with
/// `path` so nested parse errors name their position in the enclosing
/// document ("$.jobs[3].application.phases[1]...").
template <typename Fn>
auto at_path(const std::string& path, Fn&& fn) {
  try {
    return fn();
  } catch (const LoadError& error) {
    throw error.with_path_prefix(path);
  } catch (const std::exception& error) {
    throw LoadError("", path, "", error.what());
  }
}

json::Value task_to_json(const Task& task) {
  json::Object out;
  out["name"] = task.name;
  if (const auto* compute = std::get_if<ComputeTask>(&task.payload)) {
    out["type"] = "compute";
    out["work"] = compute->work;
    out["scaling"] = to_string(compute->scaling);
    if (compute->scaling == ScalingModel::kAmdahl) out["alpha"] = compute->alpha;
    if (compute->target == ComputeTarget::kGpu) out["target"] = "gpu";
  } else if (const auto* comm = std::get_if<CommTask>(&task.payload)) {
    out["type"] = "comm";
    out["pattern"] = to_string(comm->pattern);
    out["bytes"] = comm->bytes;
  } else if (const auto* io = std::get_if<IoTask>(&task.payload)) {
    out["type"] = "io";
    out["write"] = io->write;
    out["bytes"] = io->bytes;
    out["scaling"] = to_string(io->scaling);
    out["target"] = io->target == IoTarget::kPfs ? "pfs" : "burst-buffer";
    if (io->checkpoint) out["checkpoint"] = true;
  } else if (const auto* delay = std::get_if<DelayTask>(&task.payload)) {
    out["type"] = "delay";
    out["seconds"] = delay->seconds;
  }
  return json::Value(std::move(out));
}

ScalingModel scaling_from_string(const std::string& name) {
  if (name == "strong") return ScalingModel::kStrong;
  if (name == "weak") return ScalingModel::kWeak;
  if (name == "amdahl") return ScalingModel::kAmdahl;
  throw LoadError("", "$.scaling", "one of strong|weak|amdahl",
                  util::fmt("\"{}\"", name));
}

CommPattern pattern_from_string(const std::string& name) {
  if (name == "all-to-all") return CommPattern::kAllToAll;
  if (name == "all-reduce") return CommPattern::kAllReduce;
  if (name == "broadcast") return CommPattern::kBroadcast;
  if (name == "ring") return CommPattern::kRing;
  if (name == "stencil2d") return CommPattern::kStencil2D;
  if (name == "gather") return CommPattern::kGather;
  if (name == "scatter") return CommPattern::kScatter;
  throw LoadError("", "$.pattern",
                  "one of all-to-all|all-reduce|broadcast|ring|stencil2d|gather|scatter",
                  util::fmt("\"{}\"", name));
}

Task task_from_json(const json::Value& value) {
  Task task;
  task.name = value.member_or("name", "task");
  const std::string type = value.member_or("type", "");
  if (type == "compute") {
    ComputeTask compute;
    compute.work = value.member_or("work", 0.0);
    compute.scaling = scaling_from_string(value.member_or("scaling", "strong"));
    compute.alpha = value.member_or("alpha", 0.0);
    const std::string compute_target = value.member_or("target", "cpu");
    if (compute_target == "gpu") {
      compute.target = ComputeTarget::kGpu;
    } else if (compute_target != "cpu") {
      throw LoadError("", "$.target", "\"cpu\" or \"gpu\"",
                      util::fmt("\"{}\"", compute_target));
    }
    task.payload = compute;
  } else if (type == "comm") {
    CommTask comm;
    comm.pattern = pattern_from_string(value.member_or("pattern", "all-reduce"));
    comm.bytes = value.member_or("bytes", 0.0);
    task.payload = comm;
  } else if (type == "io") {
    IoTask io;
    io.write = value.member_or("write", true);
    io.bytes = value.member_or("bytes", 0.0);
    io.scaling = scaling_from_string(value.member_or("scaling", "strong"));
    io.checkpoint = value.member_or("checkpoint", false);
    const std::string target = value.member_or("target", "pfs");
    if (target == "pfs") {
      io.target = IoTarget::kPfs;
    } else if (target == "burst-buffer" || target == "bb") {
      io.target = IoTarget::kBurstBuffer;
    } else {
      throw LoadError("", "$.target", "\"pfs\" or \"burst-buffer\"",
                      util::fmt("\"{}\"", target));
    }
    task.payload = io;
  } else if (type == "delay") {
    task.payload = DelayTask{value.member_or("seconds", 0.0)};
  } else {
    throw LoadError("", "$.type", "one of compute|comm|io|delay",
                    util::fmt("\"{}\"", type));
  }
  return task;
}

json::Value phase_to_json(const Phase& phase) {
  json::Object out;
  out["name"] = phase.name;
  out["iterations"] = phase.iterations;
  if (phase.evolving_delta != 0) out["evolving_delta"] = phase.evolving_delta;
  json::Array groups;
  for (const TaskGroup& group : phase.groups) {
    json::Array tasks;
    for (const Task& task : group) tasks.push_back(task_to_json(task));
    groups.push_back(json::Value(std::move(tasks)));
  }
  out["groups"] = json::Value(std::move(groups));
  return json::Value(std::move(out));
}

Phase phase_from_json(const json::Value& value) {
  Phase phase;
  phase.name = value.member_or("name", "phase");
  phase.iterations = static_cast<int>(value.member_or("iterations", std::int64_t{1}));
  phase.evolving_delta =
      static_cast<int>(value.member_or("evolving_delta", std::int64_t{0}));
  const json::Value* groups = value.find("groups");
  if (!groups || !groups->is_array()) {
    throw LoadError("", "$.groups", "an array of task groups",
                    groups ? json::type_name(*groups) : "nothing");
  }
  const json::Array& group_array = groups->as_array();
  for (std::size_t g = 0; g < group_array.size(); ++g) {
    if (!group_array[g].is_array()) {
      throw LoadError("", util::fmt("$.groups[{}]", g), "an array of tasks",
                      json::type_name(group_array[g]));
    }
    TaskGroup group;
    const json::Array& task_array = group_array[g].as_array();
    for (std::size_t t = 0; t < task_array.size(); ++t) {
      at_path(util::fmt("$.groups[{}][{}]", g, t),
              [&] { group.push_back(task_from_json(task_array[t])); });
    }
    phase.groups.push_back(std::move(group));
  }
  return phase;
}

}  // namespace

json::Value job_to_json(const Job& job) {
  json::Object out;
  out["id"] = static_cast<std::int64_t>(job.id);
  out["type"] = to_string(job.type);
  out["name"] = job.name;
  out["user"] = job.user;
  out["submit_time"] = job.submit_time;
  out["requested_nodes"] = job.requested_nodes;
  out["min_nodes"] = job.min_nodes;
  out["max_nodes"] = job.max_nodes;
  if (std::isfinite(job.walltime_limit)) out["walltime_limit"] = job.walltime_limit;
  if (job.priority != 0) out["priority"] = job.priority;
  if (job.memory_bytes_per_node > 0.0) out["memory_per_node"] = job.memory_bytes_per_node;
  if (!job.dependencies.empty()) {
    json::Array deps;
    for (JobId dep : job.dependencies) deps.emplace_back(static_cast<std::int64_t>(dep));
    out["dependencies"] = json::Value(std::move(deps));
  }
  json::Object app;
  app["state_bytes_per_node"] = job.application.state_bytes_per_node;
  json::Array phases;
  for (const Phase& phase : job.application.phases) phases.push_back(phase_to_json(phase));
  app["phases"] = json::Value(std::move(phases));
  out["application"] = json::Value(std::move(app));
  return json::Value(std::move(out));
}

Job job_from_json(const json::Value& value) {
  Job job;
  job.id = static_cast<JobId>(value.member_or("id", std::int64_t{0}));
  const std::string type = value.member_or("type", "rigid");
  if (auto parsed = job_type_from_string(type)) {
    job.type = *parsed;
  } else {
    throw LoadError("", "$.type", "a known job type", util::fmt("\"{}\"", type));
  }
  job.name = value.member_or("name", util::fmt("job{}", job.id));
  job.user = value.member_or("user", "unknown");
  job.submit_time = value.member_or("submit_time", 0.0);
  job.requested_nodes =
      static_cast<int>(value.member_or("requested_nodes", std::int64_t{1}));
  job.min_nodes = static_cast<int>(
      value.member_or("min_nodes", static_cast<std::int64_t>(job.requested_nodes)));
  job.max_nodes = static_cast<int>(
      value.member_or("max_nodes", static_cast<std::int64_t>(job.requested_nodes)));
  job.walltime_limit =
      value.member_or("walltime_limit", std::numeric_limits<double>::infinity());
  job.priority = static_cast<int>(value.member_or("priority", std::int64_t{0}));
  job.memory_bytes_per_node = value.member_or("memory_per_node", 0.0);
  if (const json::Value* deps = value.find("dependencies")) {
    for (const json::Value& dep : deps->as_array()) {
      job.dependencies.push_back(static_cast<JobId>(dep.as_int()));
    }
  }

  const json::Value* app = value.find("application");
  if (!app) throw LoadError("", "$.application", "an application object", "nothing");
  job.application.state_bytes_per_node = app->member_or("state_bytes_per_node", 0.0);
  const json::Value* phases = app->find("phases");
  if (!phases || !phases->is_array()) {
    throw LoadError("", "$.application.phases", "an array of phases",
                    phases ? json::type_name(*phases) : "nothing");
  }
  const json::Array& phase_array = phases->as_array();
  for (std::size_t p = 0; p < phase_array.size(); ++p) {
    at_path(util::fmt("$.application.phases[{}]", p),
            [&] { job.application.phases.push_back(phase_from_json(phase_array[p])); });
  }
  if (auto error = job.validate()) throw LoadError("", "$", "", *error);
  return job;
}

json::Value workload_to_json(const std::vector<Job>& jobs) {
  json::Object out;
  json::Array array;
  for (const Job& job : jobs) array.push_back(job_to_json(job));
  out["jobs"] = json::Value(std::move(array));
  return json::Value(std::move(out));
}

std::vector<Job> workload_from_json(const json::Value& value) {
  const json::Value* jobs = value.find("jobs");
  if (!jobs || !jobs->is_array()) {
    throw LoadError("", "$.jobs", "an array of jobs",
                    jobs ? json::type_name(*jobs)
                         : (value.is_object() ? "nothing" : json::type_name(value)));
  }
  const json::Array& job_array = jobs->as_array();
  std::vector<Job> out;
  out.reserve(job_array.size());
  std::unordered_map<JobId, std::size_t> index_of;  // id -> first $.jobs index
  for (std::size_t i = 0; i < job_array.size(); ++i) {
    at_path(util::fmt("$.jobs[{}]", i),
            [&] { out.push_back(job_from_json(job_array[i])); });
    const auto [first, inserted] = index_of.emplace(out.back().id, i);
    if (!inserted) {
      throw LoadError("", util::fmt("$.jobs[{}].id", i), "",
                      util::fmt("duplicate job id {}, first used at $.jobs[{}]",
                                out.back().id, first->second));
    }
  }
  return out;
}

std::vector<Job> load_workload(const std::string& path) {
  return json::load_file(path, workload_from_json);
}

void save_workload(const std::string& path, const std::vector<Job>& jobs) {
  json::write_file(path, workload_to_json(jobs));
}

}  // namespace elastisim::workload
