#include "workload/patterns.h"

#include <cmath>
#include <utility>

namespace elastisim::workload {

namespace {

void all_to_all(std::vector<Flow>& flows, std::size_t k, double bytes) {
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i != j) flows.push_back({i, j, bytes});
    }
  }
}

void all_reduce(std::vector<Flow>& flows, std::size_t k, double bytes) {
  // Ring allreduce: reduce-scatter + allgather, each moving (k-1)/k of the
  // buffer along every ring edge.
  const double per_edge = 2.0 * bytes * static_cast<double>(k - 1) / static_cast<double>(k);
  for (std::size_t i = 0; i < k; ++i) {
    flows.push_back({i, (i + 1) % k, per_edge});
  }
}

void broadcast(std::vector<Flow>& flows, std::size_t k, double bytes) {
  // Binomial tree: in round r, ranks < 2^r forward to rank + 2^r.
  for (std::size_t span = 1; span < k; span <<= 1) {
    for (std::size_t i = 0; i < span && i + span < k; ++i) {
      flows.push_back({i, i + span, bytes});
    }
  }
}

void ring(std::vector<Flow>& flows, std::size_t k, double bytes) {
  for (std::size_t i = 0; i < k; ++i) {
    flows.push_back({i, (i + 1) % k, bytes});
    flows.push_back({i, (i + k - 1) % k, bytes});
  }
}

void stencil2d(std::vector<Flow>& flows, std::size_t k, double bytes) {
  const auto [rows, cols] = stencil_grid(k);
  auto rank_at = [&](std::size_t r, std::size_t c) { return r * cols + c; };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t self = rank_at(r, c);
      if (self >= k) continue;
      const std::size_t neighbors[4][2] = {
          {r + 1, c}, {r == 0 ? rows : r - 1, c}, {r, c + 1}, {r, c == 0 ? cols : c - 1}};
      for (const auto& [nr, nc] : neighbors) {
        if (nr >= rows || nc >= cols) continue;  // no wraparound
        const std::size_t other = rank_at(nr, nc);
        if (other < k) flows.push_back({self, other, bytes});
      }
    }
  }
}

void gather(std::vector<Flow>& flows, std::size_t k, double bytes) {
  for (std::size_t i = 1; i < k; ++i) flows.push_back({i, 0, bytes});
}

void scatter(std::vector<Flow>& flows, std::size_t k, double bytes) {
  for (std::size_t i = 1; i < k; ++i) flows.push_back({0, i, bytes});
}

}  // namespace

std::pair<std::size_t, std::size_t> stencil_grid(std::size_t k) {
  if (k == 0) return {0, 0};
  auto rows = static_cast<std::size_t>(std::floor(std::sqrt(static_cast<double>(k))));
  while (rows > 1 && k % rows != 0) --rows;  // prefer an exact factorization
  std::size_t cols = (k + rows - 1) / rows;
  return {rows, cols};
}

std::vector<Flow> pattern_flows(CommPattern pattern, std::size_t k, double bytes) {
  std::vector<Flow> flows;
  pattern_flows(pattern, k, bytes, flows);
  return flows;
}

void pattern_flows(CommPattern pattern, std::size_t k, double bytes, std::vector<Flow>& flows) {
  flows.clear();
  if (k <= 1 || bytes <= 0.0) return;
  switch (pattern) {
    case CommPattern::kAllToAll: all_to_all(flows, k, bytes); break;
    case CommPattern::kAllReduce: all_reduce(flows, k, bytes); break;
    case CommPattern::kBroadcast: broadcast(flows, k, bytes); break;
    case CommPattern::kRing: ring(flows, k, bytes); break;
    case CommPattern::kStencil2D: stencil2d(flows, k, bytes); break;
    case CommPattern::kGather: gather(flows, k, bytes); break;
    case CommPattern::kScatter: scatter(flows, k, bytes); break;
  }
}

int pattern_rounds(CommPattern pattern, std::size_t k) {
  if (k <= 1) return 0;
  switch (pattern) {
    case CommPattern::kAllToAll: return static_cast<int>(k) - 1;
    case CommPattern::kAllReduce: return 2 * (static_cast<int>(k) - 1);
    case CommPattern::kBroadcast: {
      int rounds = 0;
      for (std::size_t span = 1; span < k; span <<= 1) ++rounds;
      return rounds;
    }
    case CommPattern::kRing:
    case CommPattern::kStencil2D:
    case CommPattern::kGather:
    case CommPattern::kScatter: return 1;
  }
  return 1;
}

double pattern_total_bytes(CommPattern pattern, std::size_t k, double bytes) {
  double total = 0.0;
  for (const Flow& flow : pattern_flows(pattern, k, bytes)) total += flow.bytes;
  return total;
}

}  // namespace elastisim::workload
