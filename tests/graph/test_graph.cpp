#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace hinet {
namespace {

TEST(Edge, CanonicalOrder) {
  const Edge e = make_edge(5, 2);
  EXPECT_EQ(e.u, 2u);
  EXPECT_EQ(e.v, 5u);
  EXPECT_THROW(make_edge(3, 3), PreconditionError);
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.diameter(), 0);
}

TEST(GraphBuilder, DuplicateEdgesIgnored) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // duplicate, either orientation
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(Graph(4, {{0, 1}, {1, 0}}), g);
}

TEST(Graph, SelfLoopRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), PreconditionError);
  EXPECT_THROW(Graph(3, {{2, 2}}), PreconditionError);
}

TEST(Graph, OutOfRangeRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), PreconditionError);
  Graph g(3);
  EXPECT_THROW(g.has_edge(9, 0), PreconditionError);
  EXPECT_THROW(g.neighbors(3), PreconditionError);
}

TEST(Graph, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const auto n = g.neighbors(2);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], 0u);
  EXPECT_EQ(n[1], 3u);
  EXPECT_EQ(n[2], 4u);
  EXPECT_EQ(g.degree(2), 3u);
}

TEST(Graph, EdgeListSorted) {
  Graph g(4, {{2, 3}, {0, 1}, {0, 2}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
  EXPECT_EQ(edges[2], (Edge{2, 3}));
}

TEST(Graph, BfsDistancesOnPath) {
  Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto d = g.distances_from(0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(d[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(g.distance(0, 4), 4);
  EXPECT_EQ(g.distance(4, 0), 4);
}

TEST(Graph, UnreachableDistanceIsMinusOne) {
  Graph g(4, {{0, 1}});
  EXPECT_EQ(g.distance(0, 3), -1);
  const auto d = g.distances_from(0);
  EXPECT_EQ(d[2], -1);
}

TEST(Graph, ConnectivityDetection) {
  EXPECT_FALSE(Graph(4, {{0, 1}, {1, 2}}).is_connected());
  EXPECT_TRUE(Graph(4, {{0, 1}, {1, 2}, {2, 3}}).is_connected());
}

TEST(Graph, SingleNodeConnected) {
  EXPECT_TRUE(Graph(1).is_connected());
}

TEST(Graph, ConnectedSubsetChecksInducedEdgesOnly) {
  // 0-1-2 path; subset {0, 2} is NOT connected without node 1.
  Graph g(3, {{0, 1}, {1, 2}});
  const std::vector<NodeId> both_ends{0, 2};
  EXPECT_FALSE(g.is_connected_subset(both_ends));
  const std::vector<NodeId> all{0, 1, 2};
  EXPECT_TRUE(g.is_connected_subset(all));
  const std::vector<NodeId> empty;
  EXPECT_TRUE(g.is_connected_subset(empty));
  const std::vector<NodeId> one{2};
  EXPECT_TRUE(g.is_connected_subset(one));
}

TEST(Graph, ComponentsLabeling) {
  Graph g(5, {{0, 1}, {3, 4}});
  const auto c = g.components();
  EXPECT_EQ(c[0], c[1]);
  EXPECT_EQ(c[3], c[4]);
  EXPECT_NE(c[0], c[2]);
  EXPECT_NE(c[0], c[3]);
  EXPECT_NE(c[2], c[3]);
}

TEST(Graph, DiameterOfPathAndCycle) {
  Graph path(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(path.diameter(), 3);
  Graph cycle(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(cycle.diameter(), 2);
  Graph disconnected(3, {{0, 1}});
  EXPECT_EQ(disconnected.diameter(), -1);
}

TEST(Graph, IntersectionAndUnion) {
  Graph a(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph b(4, {{1, 2}, {2, 3}, {0, 3}});
  const Graph inter = Graph::intersection(a, b);
  EXPECT_EQ(inter.edge_count(), 2u);
  EXPECT_TRUE(inter.has_edge(1, 2));
  EXPECT_TRUE(inter.has_edge(2, 3));
  const Graph uni = Graph::union_of(a, b);
  EXPECT_EQ(uni.edge_count(), 4u);
  EXPECT_TRUE(uni.has_edge(0, 3));
}

TEST(Graph, IntersectionNodeCountMismatchThrows) {
  EXPECT_THROW(Graph::intersection(Graph(3), Graph(4)), PreconditionError);
}

TEST(Graph, ContainsSubgraph) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(g.contains_subgraph(Graph(4, {{1, 2}})));
  EXPECT_FALSE(g.contains_subgraph(Graph(4, {{1, 2}, {0, 3}})));
}

TEST(Graph, EqualityIsStructural) {
  Graph a(3, {{0, 1}});
  GraphBuilder b(3);
  b.add_edge(1, 0);
  EXPECT_TRUE(a == b.build());
  EXPECT_TRUE(Graph() == Graph(0));
  EXPECT_FALSE(Graph(2) == Graph(3));
}

TEST(RestrictedDistances, HonorsMask) {
  // Path 0-1-2-3; forbid node 1: 0 cannot reach 2.
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  std::vector<char> mask{1, 0, 1, 1};
  const auto d = restricted_distances(g, 0, mask);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], -1);
  EXPECT_EQ(d[2], -1);
  EXPECT_EQ(d[3], -1);
}

TEST(RestrictedDistances, SourceOutsideMaskIsAllUnreachable) {
  Graph g(3, {{0, 1}, {1, 2}});
  std::vector<char> mask{0, 1, 1};
  const auto d = restricted_distances(g, 0, mask);
  EXPECT_EQ(d[0], -1);
  EXPECT_EQ(d[1], -1);
}

TEST(RestrictedDistances, MaskSizeMismatchThrows) {
  Graph g(3);
  std::vector<char> mask{1, 1};
  EXPECT_THROW(restricted_distances(g, 0, mask), PreconditionError);
}

TEST(GraphProperty, IntersectionIsSubgraphOfBoth) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    GraphBuilder ab(20);
    GraphBuilder bb(20);
    for (int e = 0; e < 40; ++e) {
      const auto x = static_cast<NodeId>(rng.below(20));
      const auto y = static_cast<NodeId>(rng.below(20));
      if (x == y) continue;
      if (rng.bernoulli(0.5)) ab.add_edge(x, y);
      if (rng.bernoulli(0.5)) bb.add_edge(x, y);
    }
    const Graph a = ab.build();
    const Graph b = bb.build();
    const Graph inter = Graph::intersection(a, b);
    EXPECT_TRUE(a.contains_subgraph(inter));
    EXPECT_TRUE(b.contains_subgraph(inter));
    const Graph uni = Graph::union_of(a, b);
    EXPECT_TRUE(uni.contains_subgraph(a));
    EXPECT_TRUE(uni.contains_subgraph(b));
  }
}

/// Reference adjacency for a random edge list: sorted, duplicate-free rows.
std::vector<std::vector<NodeId>> reference_rows(
    std::size_t n, const std::vector<Edge>& edges) {
  std::vector<std::vector<NodeId>> rows(n);
  for (const Edge& e : edges) {
    rows[e.u].push_back(e.v);
    rows[e.v].push_back(e.u);
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return rows;
}

std::vector<Edge> random_edges(Rng& rng, std::size_t n, std::size_t count) {
  std::vector<Edge> out;
  while (out.size() < count) {
    const auto x = static_cast<NodeId>(rng.below(n));
    const auto y = static_cast<NodeId>(rng.below(n));
    if (x != y) out.push_back(make_edge(x, y));
  }
  return out;
}

void expect_rows(const Graph& g, const std::vector<std::vector<NodeId>>& rows) {
  ASSERT_EQ(g.node_count(), rows.size());
  std::size_t arcs = 0;
  for (NodeId v = 0; v < rows.size(); ++v) {
    const auto got = g.neighbors(v);
    EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), rows[v])
        << "row " << v;
    arcs += rows[v].size();
  }
  EXPECT_EQ(g.edge_count(), arcs / 2);
}

TEST(GraphBuilderProperty, CountingSortMatchesSortedRows) {
  Rng rng(11);
  GraphBuilder b;
  Graph reused;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.below(40);
    const auto edges = random_edges(rng, n, rng.below(3 * n));
    b.reset(n);
    for (const Edge& e : edges) b.add_edge(e.v, e.u);  // either orientation
    b.build_into(reused);  // the same Graph's storage, trial after trial
    expect_rows(reused, reference_rows(n, edges));
    EXPECT_EQ(b.build(), reused);
  }
}

TEST(GraphBuilderProperty, BuildOntoIsUnionWithBase) {
  Rng rng(12);
  GraphBuilder extra;
  Graph out;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.below(40);
    auto base_edges = random_edges(rng, n, rng.below(2 * n));
    const auto extra_edges = random_edges(rng, n, rng.below(8));
    const Graph base(n, base_edges);
    extra.reset(n);
    for (const Edge& e : extra_edges) extra.add_edge(e.u, e.v);
    extra.build_onto(base, out);
    base_edges.insert(base_edges.end(), extra_edges.begin(), extra_edges.end());
    expect_rows(out, reference_rows(n, base_edges));
    EXPECT_EQ(out, Graph::union_of(base, Graph(n, extra_edges)));
  }
}

TEST(GraphBuilderProperty, FilterIntoKeepsExactlyTheKeptEdges) {
  Rng rng(13);
  Graph out;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.below(40);
    const auto edges = random_edges(rng, n, rng.below(3 * n));
    const Graph base(n, edges);
    const auto cut = static_cast<NodeId>(rng.below(n));
    const auto keep = [cut](NodeId u, NodeId v) {
      return u != cut && v != cut;
    };
    GraphBuilder::filter_into(base, keep, out);
    std::vector<Edge> kept;
    for (const Edge& e : edges) {
      if (keep(e.u, e.v)) kept.push_back(e);
    }
    expect_rows(out, reference_rows(n, kept));
  }
}

TEST(GraphBuilderProperty, FillRowsMatchesSortedRows) {
  // Random forests filled the way phase synthesis fills its tree: one
  // ascending pass over x appends x to each neighbour's row.
  Rng rng(14);
  Graph out;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.below(40);
    std::vector<Edge> edges;
    for (NodeId v = 1; v < n; ++v) {
      if (rng.bernoulli(0.8)) {
        edges.push_back({static_cast<NodeId>(rng.below(v)), v});
      }
    }
    const auto rows = reference_rows(n, edges);
    std::vector<std::uint32_t> degree(n);
    for (NodeId v = 0; v < n; ++v) {
      degree[v] = static_cast<std::uint32_t>(rows[v].size());
    }
    GraphBuilder::fill_rows(
        degree,
        [&](auto append) {
          for (NodeId x = 0; x < n; ++x) {
            for (NodeId y : rows[x]) append(y, x);
          }
        },
        out);
    expect_rows(out, rows);
    EXPECT_EQ(out, Graph(n, edges));
  }
}

TEST(GraphBuilder, FillRowsRejectsRowsOffTheirDegree) {
  Graph out;
  const std::vector<std::uint32_t> degree = {1, 2, 1};
  const auto path = [](auto append) {
    append(1, 0);
    append(0, 1);
    append(2, 1);
    append(1, 2);
  };
  GraphBuilder::fill_rows(degree, path, out);
  EXPECT_EQ(out, Graph(3, {{0, 1}, {1, 2}}));
  // Row 0 over-filled, row 1 short: the total matches but rows do not.
  EXPECT_THROW(GraphBuilder::fill_rows(degree,
                                       [](auto append) {
                                         append(0, 1);
                                         append(0, 2);
                                         append(1, 0);
                                         append(2, 1);
                                       },
                                       out),
               PreconditionError);
  // One entry too many overall.
  EXPECT_THROW(GraphBuilder::fill_rows(degree,
                                       [&](auto append) {
                                         path(append);
                                         append(2, 0);
                                       },
                                       out),
               PreconditionError);
  // One entry short.
  EXPECT_THROW(GraphBuilder::fill_rows(
                   degree, [](auto append) { append(1, 0); }, out),
               PreconditionError);
  // A neighbour id past n.
  EXPECT_THROW(GraphBuilder::fill_rows(
                   degree, [](auto append) { append(0, 3); }, out),
               PreconditionError);
}

TEST(GraphBuilder, WritingOverTheInputIsRejected) {
  Graph g(3, {{0, 1}});
  GraphBuilder b(3);
  EXPECT_THROW(b.build_onto(g, g), PreconditionError);
  EXPECT_THROW(
      GraphBuilder::filter_into(g, [](NodeId, NodeId) { return true; }, g),
      PreconditionError);
  EXPECT_THROW(b.build_onto(Graph(4), g), PreconditionError);
}

/// Builds base + added with build_onto into an output that held an
/// unrelated larger graph, and checks it against Graph::union_of.
void expect_onto_matches_union(std::size_t n,
                               const std::vector<Edge>& base_edges,
                               const std::vector<Edge>& added) {
  const Graph base(n, base_edges);
  GraphBuilder b(n);
  for (const Edge& e : added) b.add_edge(e.u, e.v);
  Graph out(8, {{0, 1}, {1, 2}, {6, 7}});  // stale storage to overwrite
  b.build_onto(base, out);
  EXPECT_EQ(out, Graph::union_of(base, b.build()));
  std::vector<Edge> all = base_edges;
  all.insert(all.end(), added.begin(), added.end());
  expect_rows(out, reference_rows(n, all));
}

TEST(GraphBuilder, BuildOntoWithNoEdgesCopiesTheBase) {
  expect_onto_matches_union(6, {{0, 1}, {2, 5}, {3, 4}}, {});
  expect_onto_matches_union(1, {}, {});
  expect_onto_matches_union(0, {}, {});
}

TEST(GraphBuilder, BuildOntoEdgeAlreadyInTheBase) {
  expect_onto_matches_union(5, {{0, 1}, {1, 2}, {3, 4}}, {{2, 1}});
  expect_onto_matches_union(5, {{0, 1}, {1, 2}, {3, 4}}, {{1, 2}, {0, 4}});
}

TEST(GraphBuilder, BuildOntoDuplicatesInBothOrientations) {
  expect_onto_matches_union(6, {{0, 5}}, {{2, 3}, {3, 2}, {2, 3}, {3, 2}});
}

TEST(GraphBuilder, BuildOntoFirstAndLastRows) {
  expect_onto_matches_union(7, {{2, 3}}, {{0, 6}});
  expect_onto_matches_union(7, {{0, 1}, {5, 6}}, {{0, 3}, {3, 6}});
}

TEST(GraphBuilder, BuildOntoAdjacentTouchedRows) {
  expect_onto_matches_union(9, {{0, 8}, {4, 8}}, {{3, 4}, {4, 5}, {5, 6}});
}

}  // namespace
}  // namespace hinet
