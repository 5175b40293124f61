// JSON platform descriptions.
//
// Example:
//   {
//     "topology": "fat-tree",
//     "nodes": 128,
//     "cores_per_node": 48,
//     "flops_per_core": "40GF",
//     "memory": "192GiB",
//     "link_bandwidth": "12.5GBps",
//     "pod_size": 16,
//     "pod_bandwidth": "100GBps",
//     "burst_buffer_bandwidth": "5GBps",
//     "pfs": { "read_bandwidth": "500GBps", "write_bandwidth": "300GBps" }
//   }
//
// Quantities accept the unit spellings from util/units.h; bare numbers are
// base units (FLOP/s, bytes, bytes/s, seconds).
#pragma once

#include <string>

#include "json/json.h"
#include "platform/cluster.h"

namespace elastisim::platform {

/// Parses a platform description; throws util::LoadError at the JSON path of
/// a malformed or unknown member.
ClusterConfig parse_cluster_config(const json::Value& value);

/// Loads a platform description from a JSON file.
ClusterConfig load_cluster_config(const std::string& path);

/// Serializes a config back to JSON (round-trips through
/// parse_cluster_config).
json::Value cluster_config_to_json(const ClusterConfig& config);

}  // namespace elastisim::platform
