#include "cluster/hierarchy.hpp"

#include <algorithm>
#include <sstream>

namespace hinet {

const char* node_role_name(NodeRole role) {
  switch (role) {
    case NodeRole::kHead: return "head";
    case NodeRole::kGateway: return "gateway";
    case NodeRole::kMember: return "member";
  }
  return "?";
}

HierarchyView::HierarchyView(std::size_t n)
    : role_(n, NodeRole::kMember), cluster_(n, kNoCluster) {}

void HierarchyView::mark_gateway(NodeId v) {
  check_node(v);
  HINET_REQUIRE(role_[v] != NodeRole::kHead, "cannot demote a head to gateway");
  role_[v] = NodeRole::kGateway;
}

void HierarchyView::set_unaffiliated_gateway(NodeId v) {
  check_node(v);
  role_[v] = NodeRole::kGateway;
  cluster_[v] = kNoCluster;
}

std::vector<NodeId> HierarchyView::heads() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < role_.size(); ++v) {
    if (role_[v] == NodeRole::kHead) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> HierarchyView::members_of(ClusterId k) const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < role_.size(); ++v) {
    if (cluster_[v] == k) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> HierarchyView::backbone() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < role_.size(); ++v) {
    if (role_[v] == NodeRole::kHead || role_[v] == NodeRole::kGateway) {
      out.push_back(v);
    }
  }
  return out;
}

std::size_t HierarchyView::head_count() const {
  return static_cast<std::size_t>(
      std::count(role_.begin(), role_.end(), NodeRole::kHead));
}

std::size_t HierarchyView::gateway_count() const {
  return static_cast<std::size_t>(
      std::count(role_.begin(), role_.end(), NodeRole::kGateway));
}

std::size_t HierarchyView::member_count() const {
  std::size_t n = 0;
  for (NodeId v = 0; v < role_.size(); ++v) {
    if (role_[v] == NodeRole::kMember && cluster_[v] != kNoCluster) ++n;
  }
  return n;
}

std::string HierarchyView::validate(const Graph& g,
                                    std::size_t max_hops) const {
  if (g.node_count() != role_.size()) {
    return "graph and hierarchy disagree on node count";
  }
  HINET_REQUIRE(max_hops >= 1, "max_hops must be >= 1");
  // Hop distances from each head are needed only when some member is
  // affiliated with it and max_hops > 1; compute lazily and cache per head.
  // Error strings are built only on the failure path: this runs per node
  // per generated phase, and an eager ostringstream per node dominated the
  // happy path.
  std::vector<std::vector<int>> dist_cache(max_hops > 1 ? role_.size() : 0);
  for (NodeId v = 0; v < role_.size(); ++v) {
    const ClusterId k = cluster_[v];
    if (role_[v] == NodeRole::kHead) {
      if (k != v) {
        std::ostringstream os;
        os << "head " << v << " has cluster id " << k << " (expected self)";
        return os.str();
      }
      continue;
    }
    if (k == kNoCluster) continue;  // unaffiliated is allowed
    if (k >= role_.size() || role_[k] != NodeRole::kHead) {
      std::ostringstream os;
      os << "node " << v << " affiliated with " << k << " which is not a head";
      return os.str();
    }
    if (max_hops == 1) {
      if (!g.has_edge(v, k)) {
        std::ostringstream os;
        os << "node " << v << " is not a graph neighbour of its head " << k;
        return os.str();
      }
    } else {
      if (dist_cache[k].empty()) dist_cache[k] = g.distances_from(k);
      const int d = dist_cache[k][v];
      if (d < 0 || static_cast<std::size_t>(d) > max_hops) {
        std::ostringstream os;
        os << "node " << v << " is " << d << " hops from its head " << k
           << " (limit " << max_hops << ")";
        return os.str();
      }
    }
  }
  return {};
}

HierarchySequence::HierarchySequence(std::vector<HierarchyView> rounds)
    : rounds_(std::move(rounds)) {
  HINET_REQUIRE(!rounds_.empty(), "HierarchySequence needs at least one round");
  n_ = rounds_.front().node_count();
  for (const auto& h : rounds_) {
    HINET_REQUIRE(h.node_count() == n_,
                  "all hierarchy rounds must share the node set");
  }
}

const HierarchyView& HierarchySequence::hierarchy_at(Round r) {
  if (r >= rounds_.size()) return rounds_.back();
  return rounds_[r];
}

void HierarchySequence::push_back(HierarchyView h) {
  HINET_REQUIRE(h.node_count() == n_, "appended view must share the node set");
  rounds_.push_back(std::move(h));
}

}  // namespace hinet
