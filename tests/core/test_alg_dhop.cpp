// Multi-hop cluster dissemination (DhopProcess).
#include "core/alg_dhop.hpp"

#include <gtest/gtest.h>

#include "analysis/assignment.hpp"
#include "baseline/klo.hpp"
#include "cluster/dhop.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace hinet {
namespace {

/// Static d-hop world: graph + clustering + routing for `rounds` rounds.
struct DhopWorld {
  StaticNetwork net;
  HierarchySequence hier;
  RoutingSequence routing;

  DhopWorld(Graph g, HierarchyView h, std::size_t rounds)
      : net(std::move(g)),
        hier({std::move(h)}),
        routing(build_routing_over(net, hier, rounds)) {}
};

DhopWorld chain_world(std::size_t rounds) {
  // head 0 - 1 - 2 - 3 (3-hop cluster), plus head 4 adjacent to 3.
  Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  HierarchyView h(5);
  h.set_head(0);
  h.set_member(1, 0);
  h.set_member(2, 0);
  h.set_member(3, 0);
  h.set_head(4);
  return DhopWorld(std::move(g), std::move(h), rounds);
}

TEST(DhopDissemination, DeliversAcrossMultiHopCluster) {
  DhopWorld w = chain_world(20);
  std::vector<TokenSet> init(5, TokenSet(2));
  init[3].insert(0);  // deep member holds a token
  init[0].insert(1);  // head holds another
  DhopParams p;
  p.k = 2;
  p.rounds = 20;
  Engine engine(w.net, &w.hier, make_dhop_processes(init, p, w.routing));
  const SimMetrics m =
      engine.run({.max_rounds = 20, .stop_when_complete = true});
  EXPECT_TRUE(m.all_delivered);
}

TEST(DhopDissemination, LeavesSendDeltasOnly) {
  DhopWorld w = chain_world(10);
  std::vector<TokenSet> init(5, TokenSet(3));
  init[3] = TokenSet(3, {0, 1, 2});  // node 3: leaf? 3 has child? chain
  // Node 3's children: node 4 is a head, so 3's children = {} unless 4
  // routes through it; 4 is a head (no parent).  Node 3 is a leaf of
  // cluster 0's tree.
  DhopParams p;
  p.k = 3;
  p.rounds = 10;
  Engine engine(w.net, &w.hier, make_dhop_processes(init, p, w.routing));
  TraceRecorder rec;
  engine.set_observer(rec.observer());
  engine.run({.max_rounds = 10, .stop_when_complete = false});
  // Node 3's first transmission: the full delta {0,1,2} addressed to its
  // parent 2; afterwards node 3 stays silent (nothing new to upload).
  std::size_t sends_by_3 = 0;
  for (const auto& rr : rec.rounds()) {
    for (const Packet& pkt : rr.packets) {
      if (pkt.src == 3) {
        ++sends_by_3;
        EXPECT_EQ(pkt.dest, 2u);
        EXPECT_EQ(pkt.tokens, TokenSet(3, {0, 1, 2}));
      }
    }
  }
  EXPECT_EQ(sends_by_3, 1u);
}

TEST(DhopDissemination, InternalNodesBroadcastOnChangeOnly) {
  DhopWorld w = chain_world(12);
  std::vector<TokenSet> init(5, TokenSet(1));
  init[0].insert(0);
  DhopParams p;
  p.k = 1;
  p.rounds = 12;
  Engine engine(w.net, &w.hier, make_dhop_processes(init, p, w.routing));
  TraceRecorder rec;
  engine.set_observer(rec.observer());
  const SimMetrics m =
      engine.run({.max_rounds = 12, .stop_when_complete = false});
  EXPECT_TRUE(m.all_delivered);
  // Head 0 broadcasts once (its TA never changes after that); relays 1 and
  // 2 broadcast once each as the token reaches them; leaf 3 uploads once
  // (to parent 2, heard also by head 4); head 4 broadcasts once.  Exactly
  // 5 packets.
  EXPECT_EQ(m.packets_sent, 5u);
}

TEST(DhopDissemination, PeriodicRebroadcastHealsLoss) {
  // The inter-head edge 0-2 appears only at round 6, after change-
  // triggered broadcasts have quiesced; only the periodic variant still
  // announces TA across the new edge.
  const std::size_t n = 4, rounds = 20;
  std::vector<Graph> graphs;
  std::vector<HierarchyView> views;
  for (Round r = 0; r < rounds; ++r) {
    std::vector<Edge> edges{{0, 1}, {2, 3}};
    if (r >= 6) edges.push_back({0, 2});
    Graph g(n, edges);
    HierarchyView h(n);
    h.set_head(0);
    h.set_member(1, 0);
    h.set_head(2);
    h.set_member(3, 2);
    graphs.push_back(std::move(g));
    views.push_back(std::move(h));
  }
  GraphSequence net1(graphs);
  HierarchySequence hier1(views);
  RoutingSequence routing1 = build_routing_over(net1, hier1, rounds);

  std::vector<TokenSet> init(n, TokenSet(1));
  init[0].insert(0);

  DhopParams change_only;
  change_only.k = 1;
  change_only.rounds = rounds;
  Engine e1(net1, &hier1, make_dhop_processes(init, change_only, routing1));
  const SimMetrics m1 =
      e1.run({.max_rounds = rounds, .stop_when_complete = false});
  EXPECT_FALSE(m1.all_delivered);

  GraphSequence net2(graphs);
  HierarchySequence hier2(views);
  RoutingSequence routing2 = build_routing_over(net2, hier2, rounds);
  DhopParams periodic = change_only;
  periodic.rebroadcast_period = 4;
  Engine e2(net2, &hier2, make_dhop_processes(init, periodic, routing2));
  const SimMetrics m2 =
      e2.run({.max_rounds = rounds, .stop_when_complete = false});
  EXPECT_TRUE(m2.all_delivered);
}

TEST(DhopDissemination, CheaperThanFlatFloodOnDeepClusters) {
  Rng rng(5);
  const Graph g = gen::random_connected(48, 40, rng);
  const HierarchyView h = greedy_dhop_clustering(g, 3);
  const std::size_t rounds = 60, k = 5;

  StaticNetwork net1(g);
  HierarchySequence hier1({h});
  RoutingSequence routing = build_routing_over(net1, hier1, rounds);
  Rng arng(9);
  const auto init = assign_tokens(48, k, AssignmentMode::kDistinctRandom, arng);

  DhopParams p;
  p.k = k;
  p.rounds = rounds;
  Engine e1(net1, &hier1, make_dhop_processes(init, p, routing));
  const SimMetrics m_dhop =
      e1.run({.max_rounds = rounds, .stop_when_complete = false});

  StaticNetwork net2(g);
  KloFloodParams kf;
  kf.k = k;
  kf.rounds = rounds;
  Engine e2(net2, nullptr, make_klo_flood_processes(init, kf));
  const SimMetrics m_klo =
      e2.run({.max_rounds = rounds, .stop_when_complete = false});

  ASSERT_TRUE(m_dhop.all_delivered);
  ASSERT_TRUE(m_klo.all_delivered);
  EXPECT_LT(m_dhop.tokens_sent, m_klo.tokens_sent);
}

TEST(DhopDissemination, RejectsBadParams) {
  DhopWorld w = chain_world(2);
  DhopParams p;
  p.k = 3;
  p.rounds = 0;
  EXPECT_THROW(DhopProcess(0, TokenSet(3), p, w.routing), PreconditionError);
  p.rounds = 2;
  EXPECT_THROW(DhopProcess(0, TokenSet(2), p, w.routing), PreconditionError);
}

}  // namespace
}  // namespace hinet
