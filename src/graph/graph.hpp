// Static undirected graph with the queries the dynamic-network layer needs:
// BFS distances, connectivity (whole graph and induced subsets), diameter,
// and per-round set algebra (intersection/union) used by the T-interval
// connectivity checker.
//
// Representation: one immutable CSR — n+1 offsets and one contiguous array
// of neighbour rows, each row sorted ascending.  neighbors() is a span into
// that array, degree() an offset difference and has_edge() a binary search
// in one row, so the engine's delivery loop and every BFS walk contiguous
// memory.  Const queries touch no hidden state, so a Graph may be read from
// several threads at once.
//
// Graphs are built by a GraphBuilder (below): edges are collected in a
// flat list and frozen into CSR by a counting sort, or — when the caller
// already knows every row's degree and can emit neighbours in ascending
// order — written row by row with no sort at all (fill_rows).  A builder
// reuses its buffers, and can write into an existing Graph's storage, so
// per-round synthesis rebuilds a round's graph without allocating.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace hinet {

/// Node identifier; nodes of an n-node graph are exactly 0..n-1.
using NodeId = std::uint32_t;

/// An undirected edge, stored with u < v.
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Canonicalises an unordered pair into an Edge (u < v).
Edge make_edge(NodeId a, NodeId b);

class Graph {
 public:
  Graph() = default;

  /// Creates an edgeless graph on n nodes.
  explicit Graph(std::size_t n);

  /// Creates a graph from an edge list (duplicates are ignored; self-loops
  /// and out-of-range ids are rejected).
  Graph(std::size_t n, const std::vector<Edge>& edges);

  std::size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  std::size_t edge_count() const { return neighbors_.size() / 2; }

  /// Membership test: binary search in a's neighbour row.
  bool has_edge(NodeId a, NodeId b) const;

  /// Sorted neighbour list of v as a span into the flat neighbour array.
  std::span<const NodeId> neighbors(NodeId v) const {
    check_node(v);
    return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  std::size_t degree(NodeId v) const {
    check_node(v);
    return offsets_[v + 1] - offsets_[v];
  }

  /// All edges with u < v, sorted lexicographically.
  std::vector<Edge> edges() const;

  /// BFS distances from `source`; unreachable nodes get -1.
  std::vector<int> distances_from(NodeId source) const;

  /// Hop distance between two nodes, or -1 if disconnected.
  int distance(NodeId a, NodeId b) const;

  /// True when the graph is connected over all of its nodes.  An empty
  /// graph and a single-node graph are connected.
  bool is_connected() const;

  /// True when the subgraph induced by `subset` is connected (edges must
  /// stay inside the subset).  An empty subset is connected.
  bool is_connected_subset(std::span<const NodeId> subset) const;

  /// Connected-component label per node (labels are 0-based, assigned in
  /// node order).
  std::vector<std::uint32_t> components() const;

  /// Longest shortest path over the whole graph, or -1 if disconnected.
  int diameter() const;

  /// Edge-wise intersection of two graphs on the same node set.
  static Graph intersection(const Graph& a, const Graph& b);

  /// Edge-wise union of two graphs on the same node set.
  static Graph union_of(const Graph& a, const Graph& b);

  /// True when every edge of `sub` is also an edge of *this.
  bool contains_subgraph(const Graph& sub) const;

  /// Multi-line adjacency dump for examples and debugging.
  std::string to_string() const;

  friend bool operator==(const Graph& a, const Graph& b) {
    return a.node_count() == b.node_count() && a.neighbors_ == b.neighbors_ &&
           (a.node_count() == 0 || a.offsets_ == b.offsets_);
  }

 private:
  friend class GraphBuilder;

  void check_node(NodeId v) const {
    HINET_REQUIRE(v < node_count(), "node id out of range");
  }

  /// Row-wise union or intersection of a and b written into out's storage
  /// (out must be neither a nor b).
  static void merge_rows(const Graph& a, const Graph& b, bool intersect,
                         Graph& out);

  // Neighbours of v live at neighbors_[offsets_[v] .. offsets_[v+1]),
  // sorted ascending.  A default-constructed graph has no offsets at all.
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> neighbors_;
};

/// Collects undirected edges and freezes them into a Graph.  Duplicate
/// edges (in either orientation) are ignored; self-loops and out-of-range
/// ids are rejected by add_edge.  Every buffer keeps its capacity across
/// reset(), and the build_* calls can write into an existing Graph, so a
/// builder that is reused round after round stops allocating once its
/// buffers have grown.
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t n = 0) : n_(n) {}

  /// Drops the collected edges and starts over on n nodes.
  void reset(std::size_t n) {
    n_ = n;
    edges_.clear();
  }

  std::size_t node_count() const { return n_; }

  void add_edge(NodeId a, NodeId b);

  /// The collected edges as a new graph.
  Graph build();

  /// The collected edges, written into out's storage.
  void build_into(Graph& out);

  /// base plus the collected edges, written into out's storage (out must
  /// not be base).  Only the rows the collected edges touch are merged;
  /// each run of untouched rows is copied in one block with its offsets
  /// shifted, so the cost beyond that copy scales with the edges added,
  /// not with n.  The result equals Graph::union_of(base, build()).
  void build_onto(const Graph& base, Graph& out);

  /// A graph whose rows the caller fills in ascending order, written into
  /// out's storage with no edge list and no sort.  Row v gets degree[v]
  /// slots; fill(append) must call append(v, u) exactly degree[v] times
  /// for each row v, with u ascending within the row (rows may be filled
  /// interleaved), and must emit both directions of every edge, with no
  /// self-loops or duplicates.  Out-of-range ids and a row filled past or
  /// short of its degree are rejected; sortedness and symmetry are the
  /// caller's contract.
  template <typename Fill>
  static void fill_rows(std::span<const std::uint32_t> degree, Fill fill,
                        Graph& out) {
    const std::size_t n = degree.size();
    auto& off = out.offsets_;
    off.resize(n + 1);
    // off[v + 1] is row v's write cursor: it starts at the row's first
    // slot and, once the row is full, ends where row v + 1 begins.
    std::uint32_t total = 0;
    off[0] = 0;
    for (std::size_t v = 0; v < n; ++v) {
      off[v + 1] = total;
      total += degree[v];
    }
    out.neighbors_.resize(total);
    fill([&](NodeId row, NodeId nbr) {
      HINET_REQUIRE(row < n && nbr < n && off[row + 1] < total,
                    "fill_rows entry out of range");
      out.neighbors_[off[row + 1]++] = nbr;
    });
    std::uint32_t end = 0;
    for (std::size_t v = 0; v < n; ++v) {
      end += degree[v];
      HINET_REQUIRE(off[v + 1] == end, "fill_rows row not filled to degree");
    }
  }

  /// The edges (u, v) of base with keep(u, v) true, written into out's
  /// storage (out must not be base).  keep is called once per direction
  /// and must be symmetric.
  template <typename Keep>
  static void filter_into(const Graph& base, Keep keep, Graph& out) {
    HINET_REQUIRE(&base != &out, "filter_into cannot write over its input");
    const std::size_t n = base.node_count();
    out.offsets_.resize(n + 1);
    out.neighbors_.resize(base.neighbors_.size());
    std::uint32_t write = 0;
    for (NodeId u = 0; u < n; ++u) {
      out.offsets_[u] = write;
      for (NodeId v : base.neighbors(u)) {
        if (keep(u, v)) out.neighbors_[write++] = v;
      }
    }
    out.offsets_[n] = write;
    out.neighbors_.resize(write);
  }

 private:
  std::size_t n_;
  std::vector<Edge> edges_;           ///< as added, canonical u < v
  std::vector<std::uint32_t> cursor_; ///< per-row write positions
  std::vector<Edge> half_;            ///< build_onto's sorted (row, nbr) pairs
};

/// BFS distances from `source` restricted to the subgraph induced by
/// `allowed` (a node-indexed membership mask).  Nodes outside the mask or
/// unreachable get -1.  Used to measure L-hop cluster-head connectivity
/// along backbone (head/gateway) nodes only.
std::vector<int> restricted_distances(const Graph& g, NodeId source,
                                      std::span<const char> allowed);

}  // namespace hinet
