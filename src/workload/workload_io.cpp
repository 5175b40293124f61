#include "workload/workload_io.h"

#include <cmath>
#include <limits>
#include <unordered_map>

#include "json/reader.h"
#include "util/fmt.h"
#include "util/load_error.h"
#include "util/units.h"

namespace elastisim::workload {

namespace {

using json::Min;

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

/// A task's payload with its type's defaults; the reader fills in the rest.
std::optional<decltype(Task::payload)> payload_from_string(std::string_view type) {
  if (type == "compute") return ComputeTask{};
  if (type == "comm") return CommTask{};
  if (type == "io") return IoTask{};
  if (type == "delay") return DelayTask{};
  return std::nullopt;
}

Task task_from_json(const json::Element& element) {
  constexpr const char* kScalings = "one of strong|weak|amdahl";
  json::Reader in(element.value, element.path, "a task object");
  Task task;
  task.name = in.string("name", "task");
  task.payload = in.choice("type", std::nullopt, payload_from_string,
                           "one of compute|comm|io|delay");
  if (auto* compute = std::get_if<ComputeTask>(&task.payload)) {
    compute->work = in.quantity("work", 0.0, util::parse_flops, Min::kZero);
    compute->scaling = in.choice("scaling", ScalingModel::kStrong, scaling_from_string, kScalings);
    compute->alpha = in.number("alpha", 0.0);
    compute->target = in.choice("target", ComputeTarget::kCpu, compute_target_from_string,
                                "\"cpu\" or \"gpu\"");
  } else if (auto* comm = std::get_if<CommTask>(&task.payload)) {
    comm->pattern =
        in.choice("pattern", CommPattern::kAllReduce, pattern_from_string,
                  "one of all-to-all|all-reduce|broadcast|ring|stencil2d|gather|scatter");
    comm->bytes = in.quantity("bytes", 0.0, util::parse_bytes, Min::kZero);
  } else if (auto* io = std::get_if<IoTask>(&task.payload)) {
    io->write = in.boolean("write", true);
    io->bytes = in.quantity("bytes", 0.0, util::parse_bytes, Min::kZero);
    io->scaling = in.choice("scaling", ScalingModel::kStrong, scaling_from_string, kScalings);
    io->checkpoint = in.boolean("checkpoint", false);
    io->target = in.choice("target", IoTarget::kPfs, io_target_from_string,
                           "\"pfs\" or \"burst-buffer\"");
  } else {
    std::get<DelayTask>(task.payload).seconds =
        in.quantity("seconds", 0.0, util::parse_duration, Min::kZero);
  }
  in.finish();
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

Phase phase_from_json(const json::Element& element) {
  json::Reader in(element.value, element.path, "a phase object");
  Phase phase;
  phase.name = in.string("name", "phase");
  phase.iterations = in.integer<int>("iterations", 1, 1);
  phase.evolving_delta = in.integer<int>("evolving_delta", 0);
  for (const json::Element& group : in.array("groups", "an array of task groups", true)) {
    TaskGroup& tasks = phase.groups.emplace_back();
    for (const json::Element& task : json::elements(group.value, group.path, "an array of tasks")) {
      tasks.push_back(task_from_json(task));
    }
  }
  in.finish();
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

Job job_from_json(const json::Value& value, const std::string& path) {
  json::Reader in(value, path, "a job object");
  Job job;
  job.id = in.integer<JobId>("id", std::nullopt);
  job.type = in.choice("type", JobType::kRigid, job_type_from_string, "a known job type");
  job.name = in.string("name", util::fmt("job{}", job.id));
  job.user = in.string("user", "unknown");
  job.submit_time = in.quantity("submit_time", 0.0, util::parse_duration, Min::kZero);
  job.requested_nodes = in.integer<int>("requested_nodes", 1, 1);
  job.min_nodes = in.integer<int>("min_nodes", job.requested_nodes, 1);
  job.max_nodes = in.integer<int>("max_nodes", job.requested_nodes, 1);
  job.walltime_limit = in.quantity("walltime_limit", std::numeric_limits<double>::infinity(),
                                   util::parse_duration, Min::kAboveZero);
  job.priority = in.integer<int>("priority", 0);
  job.memory_bytes_per_node = in.quantity("memory_per_node", 0.0, util::parse_bytes, Min::kZero);
  for (const json::Element& dep : in.array("dependencies", "an array of job ids", false)) {
    job.dependencies.push_back(
        static_cast<JobId>(json::read_integer(dep.value, dep.path, 0, json::kMaxSafeInteger)));
  }
  std::optional<json::Reader> app = in.find("application", "an application object");
  if (!app) in.fail("application", "an application object");
  job.application.state_bytes_per_node =
      app->quantity("state_bytes_per_node", 0.0, util::parse_bytes, Min::kZero);
  for (const json::Element& phase : app->array("phases", "an array of phases", true)) {
    job.application.phases.push_back(phase_from_json(phase));
  }
  app->finish();
  in.finish();
  if (auto error = job.validate()) throw util::LoadError("", path, "", *error);
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
  json::Reader in(value, "$", "a workload object");
  const std::vector<json::Element> jobs = in.array("jobs", "an array of jobs", true);
  std::vector<Job> out;
  out.reserve(jobs.size());
  std::unordered_map<JobId, std::size_t> index_of;  // id -> first $.jobs index
  for (const json::Element& element : jobs) {
    out.push_back(job_from_json(element.value, element.path));
    const auto [first, inserted] = index_of.emplace(out.back().id, out.size() - 1);
    if (!inserted) {
      throw util::LoadError("", element.path + ".id", "",
                            util::fmt("duplicate job id {}, first used at $.jobs[{}]",
                                      out.back().id, first->second));
    }
  }
  in.finish();
  return out;
}

std::vector<Job> load_workload(const std::string& path) {
  return json::load_file(path, workload_from_json);
}

void save_workload(const std::string& path, const std::vector<Job>& jobs) {
  json::write_file(path, workload_to_json(jobs));
}

}  // namespace elastisim::workload
