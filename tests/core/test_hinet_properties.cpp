// Tests for the CTVG model and the Definition 2-8 checkers, including the
// Fig. 2 implication structure.
#include <gtest/gtest.h>

#include "core/ctvg.hpp"
#include "core/hinet_generator.hpp"
#include "core/hinet_properties.hpp"
#include "graph/generators.hpp"

namespace hinet {
namespace {

// A hand-built 4-node CTVG: head 0 with members 1, 2; head 3 bridged by
// gateway 2.  Graph: star around 0 plus edge 2-3.
Ctvg small_ctvg(std::size_t rounds, bool flip_member_at = false,
                std::size_t flip_round = 0) {
  std::vector<Graph> graphs;
  std::vector<HierarchyView> views;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<Edge> edges{{0, 1}, {0, 2}, {2, 3}};
    HierarchyView h(4);
    h.set_head(0);
    h.set_head(3);
    if (flip_member_at && r >= flip_round) {
      edges.push_back({1, 3});
      h.set_member(1, 3);
    } else {
      h.set_member(1, 0);
    }
    h.set_member(2, 0, /*gateway=*/true);
    graphs.emplace_back(4, edges);
    views.push_back(std::move(h));
  }
  return Ctvg(GraphSequence(std::move(graphs)),
              HierarchySequence(std::move(views)));
}

TEST(Ctvg, ValidatesCleanTrace) {
  Ctvg g = small_ctvg(3);
  EXPECT_EQ(g.validate(), "");
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.round_count(), 3u);
}

TEST(Ctvg, ReportsRoundOfViolation) {
  std::vector<Graph> graphs{Graph(2, {{0, 1}}), Graph(2)};
  HierarchyView h(2);
  h.set_head(0);
  h.set_member(1, 0);
  Ctvg g(GraphSequence(std::move(graphs)), HierarchySequence({h, h}));
  const std::string err = g.validate();
  EXPECT_NE(err.find("round 1"), std::string::npos);
}

TEST(Ctvg, RejectsShapeMismatches) {
  EXPECT_THROW(Ctvg(GraphSequence({Graph(3)}),
                    HierarchySequence({HierarchyView(4)})),
               PreconditionError);
  EXPECT_THROW(
      Ctvg(GraphSequence({Graph(3), Graph(3)}),
           HierarchySequence({HierarchyView(3)})),
      PreconditionError);
}

TEST(Definition2, StableHeadSetHoldsOnConstantTrace) {
  Ctvg g = small_ctvg(6);
  EXPECT_TRUE(check_stable_head_set(g, 6, 3));
  EXPECT_TRUE(check_stable_head_set(g, 6, 2));
  EXPECT_TRUE(check_stable_head_set(g, 6, 6));
}

TEST(Definition2, DetectsHeadSetChangeInsidePhase) {
  // Head set changes at round 2: phase [0,4) is violated, phases of
  // length 2 are not.
  std::vector<Graph> graphs(4, Graph(2));
  std::vector<HierarchyView> views;
  for (std::size_t r = 0; r < 4; ++r) {
    HierarchyView h(2);
    h.set_head(r < 2 ? 0 : 1);
    views.push_back(h);
  }
  Ctvg g(GraphSequence(std::move(graphs)),
         HierarchySequence(std::move(views)));
  EXPECT_FALSE(check_stable_head_set(g, 4, 4));
  EXPECT_TRUE(check_stable_head_set(g, 4, 2));
  const auto res = check_stable_head_set(g, 4, 4);
  EXPECT_NE(res.violation.find("head set changed"), std::string::npos);
}

TEST(Definition3, ClusterStabilityPerCluster) {
  Ctvg g = small_ctvg(4, /*flip_member_at=*/true, /*flip_round=*/2);
  // Cluster 0 loses member 1 at round 2: stable for T=2, not T=4.
  EXPECT_TRUE(check_stable_cluster(g, 4, 2, 0));
  EXPECT_FALSE(check_stable_cluster(g, 4, 4, 0));
  // Cluster 3 gains member 1 at round 2.
  EXPECT_FALSE(check_stable_cluster(g, 4, 4, 3));
  // A never-populated cluster id is vacuously stable.
  EXPECT_TRUE(check_stable_cluster(g, 4, 4, 1));
}

TEST(Definition4, HierarchyStabilityIsHeadsPlusAllClusters) {
  Ctvg stable = small_ctvg(4);
  EXPECT_TRUE(check_stable_hierarchy(stable, 4, 4));
  Ctvg churn = small_ctvg(4, true, 2);
  EXPECT_FALSE(check_stable_hierarchy(churn, 4, 4));
  EXPECT_TRUE(check_stable_hierarchy(churn, 4, 2));
}

TEST(Definition5, StableHeadSubgraphExists) {
  Ctvg g = small_ctvg(3);
  const auto upsilon = stable_head_subgraph(g, 0, 3);
  ASSERT_TRUE(upsilon.has_value());
  // Υ must contain both heads and connect them.
  EXPECT_GE(upsilon->distance(0, 3), 1);
  EXPECT_TRUE(check_head_connectivity(g, 3, 3));
}

TEST(Definition5, FailsWhenHeadsShareNoStableComponent) {
  // Round 0 connects heads via 2-3; round 1 drops it.
  std::vector<Graph> graphs;
  graphs.push_back(Graph(4, {{0, 1}, {0, 2}, {2, 3}}));
  graphs.push_back(Graph(4, {{0, 1}, {0, 2}}));
  HierarchyView h(4);
  h.set_head(0);
  h.set_head(3);
  h.set_member(1, 0);
  h.set_member(2, 0, true);
  std::vector<HierarchyView> views{h, h};
  // Round 1's hierarchy is structurally fine (3 is its own cluster), but
  // the heads are disconnected in the window intersection.
  Ctvg g(GraphSequence(std::move(graphs)),
         HierarchySequence(std::move(views)));
  EXPECT_FALSE(stable_head_subgraph(g, 0, 2).has_value());
  EXPECT_FALSE(check_head_connectivity(g, 2, 2));
  // Even per-round (T=1) this fails: round 1 alone disconnects the heads.
  EXPECT_FALSE(check_head_connectivity(g, 2, 1));
  // Restricted to the good round only, the property holds.
  EXPECT_TRUE(check_head_connectivity(g, 1, 1));
}

TEST(Definition6, MeasuredOnBackboneOnly) {
  Ctvg g = small_ctvg(2);
  // Heads 0 and 3 joined via gateway 2: distance 2.
  EXPECT_EQ(measure_l_hop(g, 0), 2);
}

TEST(Definition7, BoundsLWithinUpsilon) {
  Ctvg g = small_ctvg(4);
  EXPECT_TRUE(check_t_interval_l_hop(g, 4, 2, 2));
  EXPECT_TRUE(check_t_interval_l_hop(g, 4, 2, 3));  // looser bound also holds
  EXPECT_FALSE(check_t_interval_l_hop(g, 4, 2, 1));  // too strict
  EXPECT_THROW(check_t_interval_l_hop(g, 4, 2, 0), PreconditionError);
}

TEST(Definition8, CombinesDefinition4And7) {
  Ctvg good = small_ctvg(4);
  EXPECT_TRUE(check_hinet(good, 4, 2, 2));
  Ctvg churn = small_ctvg(4, true, 1);
  EXPECT_FALSE(check_hinet(churn, 4, 2, 2));  // hierarchy unstable in phase 0
}

// ---- Fig. 2: implication structure between the definitions -------------

class ImplicationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImplicationSweep, Definition4ImpliesDefinitions2And3) {
  HiNetConfig cfg;
  cfg.nodes = 24;
  cfg.heads = 4;
  cfg.phase_length = 5;
  cfg.phases = 4;
  cfg.hop_l = 2;
  cfg.reaffiliation_prob = 0.3;
  cfg.churn_edges = 5;
  cfg.seed = GetParam();
  HiNetTrace trace = make_hinet_trace(cfg);
  Ctvg& g = trace.ctvg;
  const std::size_t rounds = g.round_count();
  ASSERT_TRUE(check_stable_hierarchy(g, rounds, cfg.phase_length));
  // Def. 4 => Def. 2.
  EXPECT_TRUE(check_stable_head_set(g, rounds, cfg.phase_length));
  // Def. 4 => Def. 3 for every cluster id.
  for (NodeId k = 0; k < g.node_count(); ++k) {
    EXPECT_TRUE(check_stable_cluster(g, rounds, cfg.phase_length, k));
  }
}

TEST_P(ImplicationSweep, Definition8ImpliesDefinitions4And7) {
  HiNetConfig cfg;
  cfg.nodes = 30;
  cfg.heads = 5;
  cfg.phase_length = 6;
  cfg.phases = 3;
  cfg.hop_l = 2;
  cfg.reaffiliation_prob = 0.2;
  cfg.churn_edges = 3;
  cfg.seed = GetParam();
  HiNetTrace trace = make_hinet_trace(cfg);
  Ctvg& g = trace.ctvg;
  const std::size_t rounds = g.round_count();
  ASSERT_TRUE(check_hinet(g, rounds, cfg.phase_length, cfg.hop_l));
  EXPECT_TRUE(check_stable_hierarchy(g, rounds, cfg.phase_length));
  EXPECT_TRUE(
      check_t_interval_l_hop(g, rounds, cfg.phase_length, cfg.hop_l));
  // Def. 7 => Def. 5.
  EXPECT_TRUE(check_head_connectivity(g, rounds, cfg.phase_length));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImplicationSweep,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace hinet
