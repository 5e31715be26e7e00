// Differential suite: incremental T-interval connectivity checkers vs the
// naive per-window reference implementations.
//
// The incremental checkers (graph/interval.hpp) maintain per-edge run
// lengths across window shifts, Casteigts-style; the *_reference forms
// recompute every window's intersection from scratch.  They must agree on
// every trace — this suite sweeps the repo's generators (plus adversarial
// hand-built traces around the algorithm's edge cases) and compares both
// answers for every T.
#include <gtest/gtest.h>

#include <vector>

#include "graph/adversary.hpp"
#include "graph/dynamic.hpp"
#include "graph/interval.hpp"
#include "graph/markovian.hpp"
#include "graph/mobility.hpp"

namespace hinet {
namespace {

void expect_agreement(DynamicNetwork& net, std::size_t rounds) {
  const std::size_t incremental = max_interval_connectivity(net, rounds);
  const std::size_t reference =
      max_interval_connectivity_reference(net, rounds);
  EXPECT_EQ(incremental, reference);
  for (std::size_t t = 1; t <= rounds; ++t) {
    EXPECT_EQ(is_t_interval_connected(net, rounds, t),
              is_t_interval_connected_reference(net, rounds, t))
        << "T = " << t;
  }
}

TEST(IntervalIncremental, AgreesOnAdversarialTraces) {
  for (const std::size_t interval : {1u, 3u, 5u}) {
    AdversaryConfig cfg;
    cfg.nodes = 14;
    cfg.interval = interval;
    cfg.rounds = 22;
    cfg.churn_edges = 2;
    cfg.seed = 31 + interval;
    GraphSequence tree = make_t_interval_trace(cfg);
    SCOPED_TRACE("tree interval=" + std::to_string(interval));
    expect_agreement(tree, cfg.rounds);
    GraphSequence path = make_t_interval_path_trace(cfg);
    SCOPED_TRACE("path interval=" + std::to_string(interval));
    expect_agreement(path, cfg.rounds);
  }
}

TEST(IntervalIncremental, AgreesOnEdgeMarkovianTraces) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    MarkovianConfig cfg;
    cfg.nodes = 10;
    cfg.rounds = 18;
    cfg.initial = 0.35;
    cfg.birth = 0.15;
    cfg.death = 0.25;
    cfg.seed = seed;
    GraphSequence seq = make_edge_markovian_trace(cfg);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_agreement(seq, cfg.rounds);
  }
}

TEST(IntervalIncremental, AgreesOnMobilityTraces) {
  MobilityConfig cfg;
  cfg.nodes = 12;
  cfg.radius = 0.45;  // dense enough that some windows stay connected
  cfg.rounds = 16;
  cfg.seed = 9;
  MobilityTrace trace(cfg);
  expect_agreement(trace.network(), cfg.rounds);
}

TEST(IntervalIncremental, HandBuiltEdgeCases) {
  // Always the same connected graph: T* = rounds.
  {
    const Graph ring(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
    GraphSequence seq(std::vector<Graph>(6, ring));
    expect_agreement(seq, 6);
    EXPECT_EQ(max_interval_connectivity(seq, 6), 6u);
  }
  // One disconnected round caps T* at 0.
  {
    const Graph conn(3, {{0, 1}, {1, 2}});
    GraphSequence seq({conn, Graph(3), conn});
    expect_agreement(seq, 3);
    EXPECT_EQ(max_interval_connectivity(seq, 3), 0u);
  }
  // Connectivity through *different* spanning edges each round: every
  // round is connected but no window of 2 shares a spanning subgraph.
  {
    const Graph a(3, {{0, 1}, {1, 2}});
    const Graph b(3, {{0, 2}, {0, 1}});
    GraphSequence seq({a, b, a, b});
    expect_agreement(seq, 4);
    EXPECT_EQ(max_interval_connectivity(seq, 4), 1u);
  }
  // A shared stable edge set that spans: T* grows past 1.
  {
    const Graph base(4, {{0, 1}, {1, 2}, {2, 3}});
    const Graph noisy(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
    GraphSequence seq({base, noisy, base, noisy, base});
    expect_agreement(seq, 5);
    EXPECT_EQ(max_interval_connectivity(seq, 5), 5u);
  }
  // Single node / empty-ish cases are vacuously connected at any T.
  {
    GraphSequence seq(std::vector<Graph>(4, Graph(1)));
    expect_agreement(seq, 4);
    EXPECT_EQ(max_interval_connectivity(seq, 4), 4u);
  }
  // Two isolated nodes are never connected.
  {
    GraphSequence seq(std::vector<Graph>(3, Graph(2)));
    expect_agreement(seq, 3);
    EXPECT_EQ(max_interval_connectivity(seq, 3), 0u);
  }
}

TEST(IntervalIncremental, RunTrackerThresholdMatchesStableSubgraph) {
  MarkovianConfig cfg;
  cfg.nodes = 8;
  cfg.rounds = 12;
  cfg.initial = 0.4;
  cfg.birth = 0.2;
  cfg.death = 0.2;
  cfg.seed = 17;
  GraphSequence seq = make_edge_markovian_trace(cfg);

  IntervalRunTracker tracker(cfg.nodes);
  for (Round r = 0; r < cfg.rounds; ++r) {
    tracker.push(seq.graph_at(r));
    for (std::size_t t = 1; t <= r + 1; ++t) {
      // threshold_subgraph(t) == intersection of the last t rounds.
      EXPECT_EQ(tracker.threshold_subgraph(t),
                stable_subgraph(seq, r + 1 - t, t))
          << "r=" << r << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace hinet
