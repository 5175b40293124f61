// JSON (de)serialization of full-fidelity workloads.
//
// Unlike SWF (which only captures rigid-job shape), the JSON format
// round-trips the complete application model: phases, task groups, scaling
// models, communication patterns, I/O targets, and adaptivity bounds. This
// is the format users hand-author for experiments.
#pragma once

#include <string>
#include <vector>

#include "json/json.h"
#include "workload/job.h"

namespace elastisim::workload {

json::Value job_to_json(const Job& job);
json::Value workload_to_json(const std::vector<Job>& jobs);

/// Throws util::LoadError at the JSON path of a malformed, missing or unknown
/// member, or at the job's `path` when Job::validate() fails.
Job job_from_json(const json::Value& value, const std::string& path = "$");
std::vector<Job> workload_from_json(const json::Value& value);

std::vector<Job> load_workload(const std::string& path);
void save_workload(const std::string& path, const std::vector<Job>& jobs);

}  // namespace elastisim::workload
