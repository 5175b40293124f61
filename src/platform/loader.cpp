#include "platform/loader.h"

#include "json/reader.h"
#include "util/units.h"

namespace elastisim::platform {

ClusterConfig parse_cluster_config(const json::Value& value) {
  using json::Min;
  json::Reader platform(value, "$", "a platform object");
  ClusterConfig config;
  config.topology = platform.choice("topology", TopologyKind::kStar, topology_from_string,
                                    "a known topology name");
  config.node_count = platform.integer<std::size_t>("nodes", 16, 1);
  config.cores_per_node = platform.integer<int>("cores_per_node", 48, 1);
  config.flops_per_core =
      platform.quantity("flops_per_core", 1e9, util::parse_flops, Min::kAboveZero);
  config.gpus_per_node = platform.integer<int>("gpus_per_node", 0, 0);
  config.flops_per_gpu = platform.quantity("flops_per_gpu", 0.0, util::parse_flops, Min::kZero);
  config.memory_bytes = platform.quantity("memory", 0.0, util::parse_bytes, Min::kZero);
  config.link_bandwidth =
      platform.quantity("link_bandwidth", 12.5e9, util::parse_bandwidth, Min::kAboveZero);
  config.link_latency =
      platform.quantity("link_latency", 0.0, util::parse_duration, Min::kZero);
  // Zero bandwidths are legal below: flows through such a link stall.
  config.backbone_bandwidth =
      platform.quantity("backbone_bandwidth", 0.0, util::parse_bandwidth, Min::kZero);
  config.pod_size = platform.integer<std::size_t>("pod_size", 16, 1);
  config.pod_bandwidth =
      platform.quantity("pod_bandwidth", 50e9, util::parse_bandwidth, Min::kZero);
  config.burst_buffer_bandwidth =
      platform.quantity("burst_buffer_bandwidth", 0.0, util::parse_bandwidth, Min::kZero);
  if (std::optional<json::Reader> pfs = platform.find("pfs")) {
    config.pfs.read_bandwidth =
        pfs->quantity("read_bandwidth", 0.0, util::parse_bandwidth, Min::kZero);
    config.pfs.write_bandwidth =
        pfs->quantity("write_bandwidth", 0.0, util::parse_bandwidth, Min::kZero);
    pfs->finish();
  }
  platform.finish();
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
