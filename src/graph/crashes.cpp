#include "graph/crashes.hpp"

#include <algorithm>

namespace hinet {

bool any_down(std::span<const CrashEvent> crashes, Round r) {
  return std::any_of(crashes.begin(), crashes.end(),
                     [r](const CrashEvent& c) { return c.down_at(r); });
}

std::vector<NodeId> alive_nodes(std::size_t node_count, Round r,
                                std::span<const CrashEvent> crashes) {
  std::vector<char> dead(node_count, 0);
  for (const CrashEvent& c : crashes) {
    if (c.node < node_count && c.down_at(r)) dead[c.node] = 1;
  }
  std::vector<NodeId> out;
  for (NodeId v = 0; v < node_count; ++v) {
    if (!dead[v]) out.push_back(v);
  }
  return out;
}

}  // namespace hinet
