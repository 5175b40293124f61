#include "platform/loader.h"

#include "util/fmt.h"
#include "util/load_error.h"

#include "util/units.h"

namespace elastisim::platform {

namespace {

using util::LoadError;
using util::parse_bandwidth;
using util::parse_bytes;
using util::parse_flops;

using UnitParser = std::optional<double> (*)(std::string_view);

/// Reads a quantity member that may be a bare number or a unit string.
/// `path` is the JSON path of the enclosing object ("$" or "$.pfs").
double quantity(const json::Value& object, std::string_view path, std::string_view key,
                double fallback, UnitParser parser) {
  const json::Value* member = object.find(key);
  if (!member) return fallback;
  if (member->is_number()) return member->as_double();
  if (member->is_string()) {
    if (auto parsed = parser(member->as_string())) return *parsed;
    throw LoadError("", util::fmt("{}.{}", path, key), "a parsable quantity string",
                    json::describe(*member));
  }
  throw LoadError("", util::fmt("{}.{}", path, key), "number or unit string",
                  json::type_name(*member));
}

/// Reads a bandwidth member: a quantity() that must not be negative (zero is
/// legal; flows through a zero-bandwidth link stall).
double bandwidth(const json::Value& object, std::string_view path, std::string_view key,
                 double fallback) {
  const double value = quantity(object, path, key, fallback, parse_bandwidth);
  if (!(value >= 0.0)) {
    throw LoadError("", util::fmt("{}.{}", path, key), "a non-negative bandwidth",
                    util::fmt("{}", value));
  }
  return value;
}

/// Reads a member that must be a positive integer when present.
std::int64_t positive_int(const json::Value& object, std::string_view key,
                          std::int64_t fallback) {
  const json::Value* member = object.find(key);
  if (!member) return fallback;
  if (!member->is_number() || member->as_int() <= 0) {
    throw LoadError("", util::fmt("$.{}", key), "a positive integer",
                    json::describe(*member));
  }
  return member->as_int();
}

}  // namespace

ClusterConfig parse_cluster_config(const json::Value& value) {
  if (!value.is_object()) {
    throw LoadError("", "$", "a platform object", json::type_name(value));
  }
  ClusterConfig config;

  const std::string topology = value.member_or("topology", "star");
  if (auto kind = topology_from_string(topology)) {
    config.topology = *kind;
  } else {
    throw LoadError("", "$.topology", "a known topology name",
                    util::fmt("\"{}\"", topology));
  }

  config.node_count = static_cast<std::size_t>(positive_int(value, "nodes", 16));
  config.cores_per_node = static_cast<int>(positive_int(value, "cores_per_node", 48));
  config.flops_per_core = quantity(value, "$", "flops_per_core", 1e9, parse_flops);
  config.gpus_per_node =
      static_cast<int>(value.member_or("gpus_per_node", std::int64_t{0}));
  if (config.gpus_per_node < 0) {
    throw LoadError("", "$.gpus_per_node", "a non-negative integer",
                    util::fmt("{}", config.gpus_per_node));
  }
  config.flops_per_gpu = quantity(value, "$", "flops_per_gpu", 0.0, parse_flops);
  config.memory_bytes = quantity(value, "$", "memory", 0.0, parse_bytes);
  config.link_bandwidth = bandwidth(value, "$", "link_bandwidth", 12.5e9);
  config.link_latency = quantity(value, "$", "link_latency", 0.0, util::parse_duration);
  config.backbone_bandwidth = bandwidth(value, "$", "backbone_bandwidth", 0.0);
  config.pod_size = static_cast<std::size_t>(positive_int(value, "pod_size", 16));
  config.pod_bandwidth = bandwidth(value, "$", "pod_bandwidth", 50e9);
  config.burst_buffer_bandwidth = bandwidth(value, "$", "burst_buffer_bandwidth", 0.0);

  if (const json::Value* pfs = value.find("pfs")) {
    config.pfs.read_bandwidth = bandwidth(*pfs, "$.pfs", "read_bandwidth", 0.0);
    config.pfs.write_bandwidth = bandwidth(*pfs, "$.pfs", "write_bandwidth", 0.0);
  }
  return config;
}

ClusterConfig load_cluster_config(const std::string& path) {
  return json::load_file(path, parse_cluster_config);
}

json::Value cluster_config_to_json(const ClusterConfig& config) {
  json::Object out;
  out["topology"] = to_string(config.topology);
  out["nodes"] = config.node_count;
  out["cores_per_node"] = config.cores_per_node;
  out["flops_per_core"] = config.flops_per_core;
  out["gpus_per_node"] = config.gpus_per_node;
  out["flops_per_gpu"] = config.flops_per_gpu;
  out["memory"] = config.memory_bytes;
  out["link_bandwidth"] = config.link_bandwidth;
  out["link_latency"] = config.link_latency;
  out["backbone_bandwidth"] = config.backbone_bandwidth;
  out["pod_size"] = config.pod_size;
  out["pod_bandwidth"] = config.pod_bandwidth;
  out["burst_buffer_bandwidth"] = config.burst_buffer_bandwidth;
  json::Object pfs;
  pfs["read_bandwidth"] = config.pfs.read_bandwidth;
  pfs["write_bandwidth"] = config.pfs.write_bandwidth;
  out["pfs"] = json::Value(std::move(pfs));
  return json::Value(std::move(out));
}

}  // namespace elastisim::platform
