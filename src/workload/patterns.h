// Communication patterns as point-to-point flow sets.
//
// A pattern over k participants expands into flows between participant
// *indices* (0..k-1); the executor maps indices to concrete nodes and
// aggregates the flows into one fluid activity whose per-link weights equal
// the exact byte volume each link carries. This keeps collectives O(1)
// activities while preserving per-link contention.
#pragma once

#include <cstddef>
#include <vector>

#include "workload/application.h"

namespace elastisim::workload {

struct Flow {
  std::size_t src;
  std::size_t dst;
  double bytes;
};

/// Expands `pattern` over k participants.
///
/// `bytes` semantics:
///  - kAllToAll:   every rank sends `bytes` to every other rank.
///  - kAllReduce:  ring algorithm; each rank exchanges 2*(k-1)/k * `bytes`
///                 with its successor.
///  - kBroadcast:  binomial tree from rank 0; `bytes` per tree edge.
///  - kRing:       each rank sends `bytes` to its successor and predecessor
///                 (1-D halo exchange).
///  - kStencil2D:  ranks arranged in a near-square grid; `bytes` per face to
///                 each of up to four neighbors (no wraparound).
///  - kGather:     every rank sends `bytes` to rank 0.
///  - kScatter:    rank 0 sends `bytes` to every other rank.
///
/// k == 1 (or bytes <= 0) yields no flows: single-node jobs communicate
/// through memory, which the model treats as free.
std::vector<Flow> pattern_flows(CommPattern pattern, std::size_t k, double bytes);
/// pattern_flows() into `flows`, replacing its contents in the storage it
/// already holds.
void pattern_flows(CommPattern pattern, std::size_t k, double bytes, std::vector<Flow>& flows);

/// Total bytes a pattern moves (sum over flows); used by tests and stats.
double pattern_total_bytes(CommPattern pattern, std::size_t k, double bytes);

/// Grid dimensions used by kStencil2D for k ranks: rows x cols with
/// rows * cols >= k and rows <= cols, as close to square as possible.
std::pair<std::size_t, std::size_t> stencil_grid(std::size_t k);

/// Number of sequential communication rounds the pattern's algorithm needs —
/// the per-message latency cost multiplier:
///   all-to-all k-1, ring all-reduce 2(k-1), binomial broadcast ceil(log2 k),
///   halo/stencil exchanges 1, gather/scatter 1 (root fan handled by
///   bandwidth, not latency). k <= 1 yields 0.
int pattern_rounds(CommPattern pattern, std::size_t k);

}  // namespace elastisim::workload
