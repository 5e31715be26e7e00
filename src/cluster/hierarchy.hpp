// Cluster-based hierarchy: the per-round role assignment of the CTVG model.
//
// Definition 1 of the paper adds two functions to a time-varying graph:
//   C : V×Γ -> {h, g, m}   node status (head / gateway / member)
//   I : V×Γ -> N           id of the cluster the node belongs to
// A HierarchyView is the restriction of (C, I) to a single round.  As in
// the paper, the cluster id is the node id of the cluster head, clusters
// are 1-hop (members are neighbours of their head), and gateways are
// ordinary cluster members that additionally forward between clusters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/dynamic.hpp"
#include "graph/graph.hpp"
#include "util/require.hpp"

namespace hinet {

enum class NodeRole : std::uint8_t { kHead, kGateway, kMember };

const char* node_role_name(NodeRole role);

/// Cluster identifier == node id of the head (paper convention).
using ClusterId = NodeId;

/// Sentinel for nodes not currently affiliated with any cluster.  The
/// paper allows "at most one cluster at any given time".
inline constexpr ClusterId kNoCluster = static_cast<ClusterId>(-1);

class HierarchyView {
 public:
  HierarchyView() = default;

  /// Creates a view with every node an unaffiliated member.
  explicit HierarchyView(std::size_t n);

  std::size_t node_count() const { return role_.size(); }

  // role, cluster_of, set_head and set_member are inline: trace synthesis
  // calls them for every node of every phase.

  NodeRole role(NodeId v) const {
    check_node(v);
    return role_[v];
  }

  ClusterId cluster_of(NodeId v) const {
    check_node(v);
    return cluster_[v];
  }

  /// Declares v the head of its own cluster.
  void set_head(NodeId v) {
    check_node(v);
    role_[v] = NodeRole::kHead;
    cluster_[v] = v;
  }

  /// Affiliates v with the cluster headed by `head`, as plain member or
  /// gateway.  `head` must already be a head.
  void set_member(NodeId v, ClusterId head, bool gateway = false) {
    check_node(v);
    HINET_REQUIRE(head < role_.size() && role_[head] == NodeRole::kHead,
                  "affiliation target is not a head");
    HINET_REQUIRE(v != head, "head cannot be its own member");
    role_[v] = gateway ? NodeRole::kGateway : NodeRole::kMember;
    cluster_[v] = head;
  }

  /// Promotes an existing member to gateway status (C(v) = g) without
  /// changing its affiliation.
  void mark_gateway(NodeId v);

  /// Declares v a relay gateway with no cluster affiliation.  The paper's
  /// system model says nodes belong to *at most* one cluster; backbone
  /// relays more than one hop from every head (only possible when L > 3)
  /// are exactly such nodes.
  void set_unaffiliated_gateway(NodeId v);

  bool is_head(NodeId v) const { return role(v) == NodeRole::kHead; }
  bool is_gateway(NodeId v) const { return role(v) == NodeRole::kGateway; }

  /// The paper's V_h^i: sorted list of head node ids this round.
  std::vector<NodeId> heads() const;

  /// The paper's M_k^i: sorted members of cluster k, *including* the head
  /// itself and gateways affiliated with k.
  std::vector<NodeId> members_of(ClusterId k) const;

  /// Heads plus gateways: the backbone that relays between clusters.
  std::vector<NodeId> backbone() const;

  std::size_t head_count() const;
  std::size_t gateway_count() const;
  /// Plain members (role m), i.e. the paper's n_m contribution this round.
  std::size_t member_count() const;

  /// Structural validation against a communication graph:
  ///   - every head belongs to its own cluster;
  ///   - every affiliated non-head's cluster id names a head;
  ///   - every affiliated non-head is within `max_hops` of its head
  ///     (max_hops = 1 is the paper's 1-hop system-model assumption;
  ///     larger values support the future-work d-hop clusters).
  /// Returns an empty string when valid, else a description of the first
  /// violation.
  std::string validate(const Graph& g, std::size_t max_hops = 1) const;

  friend bool operator==(const HierarchyView&, const HierarchyView&) = default;

 private:
  void check_node(NodeId v) const {
    HINET_REQUIRE(v < role_.size(), "node id out of range");
  }

  std::vector<NodeRole> role_;
  std::vector<ClusterId> cluster_;
};

/// Per-round hierarchy source, mirroring DynamicNetwork for topology.
class HierarchyProvider {
 public:
  virtual ~HierarchyProvider() = default;
  virtual std::size_t node_count() const = 0;
  virtual const HierarchyView& hierarchy_at(Round r) = 0;
};

/// Hierarchy backed by a precomputed list; rounds past the end repeat the
/// final view (same convention as GraphSequence).
class HierarchySequence final : public HierarchyProvider {
 public:
  explicit HierarchySequence(std::vector<HierarchyView> rounds);

  std::size_t node_count() const override { return n_; }
  const HierarchyView& hierarchy_at(Round r) override;

  std::size_t round_count() const { return rounds_.size(); }
  const std::vector<HierarchyView>& rounds() const { return rounds_; }
  void push_back(HierarchyView h);

 private:
  std::vector<HierarchyView> rounds_;
  std::size_t n_;
};

}  // namespace hinet
