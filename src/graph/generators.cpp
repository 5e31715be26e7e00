#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace hinet {
namespace gen {

Graph path(std::size_t n) {
  GraphBuilder g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g.build();
}

Graph ring(std::size_t n) {
  HINET_REQUIRE(n >= 3, "ring needs at least 3 nodes");
  GraphBuilder g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.add_edge(static_cast<NodeId>(n - 1), 0);
  return g.build();
}

Graph star(std::size_t n) {
  HINET_REQUIRE(n >= 1, "star needs at least 1 node");
  GraphBuilder g(n);
  for (NodeId i = 1; i < n; ++i) g.add_edge(0, i);
  return g.build();
}

Graph complete(std::size_t n) {
  GraphBuilder g(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) g.add_edge(i, j);
  }
  return g.build();
}

Graph grid(std::size_t rows, std::size_t cols) {
  HINET_REQUIRE(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  GraphBuilder g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g.build();
}

Graph erdos_renyi(std::size_t n, double p, Rng& rng) {
  HINET_REQUIRE(p >= 0.0 && p <= 1.0, "edge probability outside [0,1]");
  GraphBuilder g(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (rng.bernoulli(p)) g.add_edge(i, j);
    }
  }
  return g.build();
}

Graph random_tree(std::size_t n, Rng& rng) {
  GraphBuilder g(n);
  if (n == 2) g.add_edge(0, 1);
  if (n <= 2) return g.build();
  // Prüfer decoding: a length-(n-2) sequence over [0,n) maps bijectively
  // onto labelled trees, so this samples uniformly.  Standard linear-time
  // min-leaf decoding with a moving pointer.
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.below(n));
  std::vector<std::size_t> deg(n, 1);
  for (NodeId x : prufer) ++deg[x];
  NodeId ptr = 0;
  while (deg[ptr] != 1) ++ptr;
  NodeId leaf = ptr;
  for (NodeId x : prufer) {
    g.add_edge(leaf, x);
    if (--deg[x] == 1 && x < ptr) {
      leaf = x;
    } else {
      ++ptr;
      while (deg[ptr] != 1) ++ptr;
      leaf = ptr;
    }
  }
  g.add_edge(leaf, static_cast<NodeId>(n - 1));
  return g.build();
}

Graph random_connected(std::size_t n, std::size_t extra_edges, Rng& rng) {
  const Graph tree = random_tree(n, rng);
  if (n < 2) return tree;
  // The draw loop stops on the count of distinct edges, so it tracks which
  // drawn edges are new.
  const std::vector<Edge> tree_edges = tree.edges();
  std::set<Edge> edges(tree_edges.begin(), tree_edges.end());
  const std::size_t max_edges = n * (n - 1) / 2;
  const std::size_t target = std::min(max_edges, edges.size() + extra_edges);
  std::size_t guard = 0;
  while (edges.size() < target && guard < 100 * target + 100) {
    const auto a = static_cast<NodeId>(rng.below(n));
    const auto b = static_cast<NodeId>(rng.below(n));
    if (a != b) edges.insert(make_edge(a, b));
    ++guard;
  }
  return Graph(n, std::vector<Edge>(edges.begin(), edges.end()));
}

Graph geometric(const std::vector<Point2D>& points, double radius) {
  HINET_REQUIRE(radius >= 0.0, "negative radius");
  GraphBuilder g(points.size());
  const double r2 = radius * radius;
  for (NodeId i = 0; i < points.size(); ++i) {
    for (NodeId j = i + 1; j < points.size(); ++j) {
      const double dx = points[i].x - points[j].x;
      const double dy = points[i].y - points[j].y;
      if (dx * dx + dy * dy <= r2) g.add_edge(i, j);
    }
  }
  return g.build();
}

std::vector<Point2D> random_points(std::size_t n, Rng& rng) {
  std::vector<Point2D> pts(n);
  for (auto& p : pts) {
    p.x = rng.uniform01();
    p.y = rng.uniform01();
  }
  return pts;
}

}  // namespace gen
}  // namespace hinet
