#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <sstream>

namespace hinet {

Edge make_edge(NodeId a, NodeId b) {
  HINET_REQUIRE(a != b, "self-loop");
  return a < b ? Edge{a, b} : Edge{b, a};
}

Graph::Graph(std::size_t n) : offsets_(n + 1, 0) {}

Graph::Graph(std::size_t n, const std::vector<Edge>& edges) {
  GraphBuilder b(n);
  for (const Edge& e : edges) b.add_edge(e.u, e.v);
  b.build_into(*this);
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  check_node(b);
  const auto row = neighbors(a);
  return std::binary_search(row.begin(), row.end(), b);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

std::vector<int> Graph::distances_from(NodeId source) const {
  check_node(source);
  std::vector<int> dist(node_count(), -1);
  std::queue<NodeId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (NodeId v : neighbors(u)) {
      if (dist[v] < 0) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

int Graph::distance(NodeId a, NodeId b) const {
  check_node(b);
  return distances_from(a)[b];
}

bool Graph::is_connected() const {
  if (node_count() <= 1) return true;
  const auto dist = distances_from(0);
  return std::all_of(dist.begin(), dist.end(), [](int d) { return d >= 0; });
}

bool Graph::is_connected_subset(std::span<const NodeId> subset) const {
  if (subset.size() <= 1) return true;
  std::vector<char> allowed(node_count(), 0);
  for (NodeId v : subset) {
    check_node(v);
    allowed[v] = 1;
  }
  const auto dist = restricted_distances(*this, subset.front(), allowed);
  return std::all_of(subset.begin(), subset.end(),
                     [&](NodeId v) { return dist[v] >= 0; });
}

std::vector<std::uint32_t> Graph::components() const {
  std::vector<std::uint32_t> label(node_count(),
                                   std::numeric_limits<std::uint32_t>::max());
  std::uint32_t next = 0;
  std::queue<NodeId> q;
  for (NodeId s = 0; s < node_count(); ++s) {
    if (label[s] != std::numeric_limits<std::uint32_t>::max()) continue;
    label[s] = next;
    q.push(s);
    while (!q.empty()) {
      const NodeId u = q.front();
      q.pop();
      for (NodeId v : neighbors(u)) {
        if (label[v] == std::numeric_limits<std::uint32_t>::max()) {
          label[v] = next;
          q.push(v);
        }
      }
    }
    ++next;
  }
  return label;
}

int Graph::diameter() const {
  if (node_count() == 0) return 0;
  int best = 0;
  for (NodeId s = 0; s < node_count(); ++s) {
    const auto dist = distances_from(s);
    for (int d : dist) {
      if (d < 0) return -1;
      best = std::max(best, d);
    }
  }
  return best;
}

void Graph::merge_rows(const Graph& a, const Graph& b, bool intersect,
                       Graph& out) {
  HINET_REQUIRE(a.node_count() == b.node_count(),
                "set algebra over graphs with different node counts");
  HINET_REQUIRE(&out != &a && &out != &b, "merge_rows cannot write over input");
  const std::size_t n = a.node_count();
  out.offsets_.resize(n + 1);
  out.neighbors_.resize(a.neighbors_.size() + b.neighbors_.size());
  const auto begin = out.neighbors_.begin();
  auto write = begin;
  for (NodeId u = 0; u < n; ++u) {
    out.offsets_[u] = static_cast<std::uint32_t>(write - begin);
    const auto ra = a.neighbors(u);
    const auto rb = b.neighbors(u);
    write = intersect ? std::set_intersection(ra.begin(), ra.end(), rb.begin(),
                                              rb.end(), write)
                      : std::set_union(ra.begin(), ra.end(), rb.begin(),
                                       rb.end(), write);
  }
  out.neighbors_.resize(static_cast<std::size_t>(write - begin));
  out.offsets_[n] = static_cast<std::uint32_t>(out.neighbors_.size());
}

Graph Graph::intersection(const Graph& a, const Graph& b) {
  Graph out;
  merge_rows(a, b, /*intersect=*/true, out);
  return out;
}

Graph Graph::union_of(const Graph& a, const Graph& b) {
  Graph out;
  merge_rows(a, b, /*intersect=*/false, out);
  return out;
}

bool Graph::contains_subgraph(const Graph& sub) const {
  HINET_REQUIRE(node_count() == sub.node_count(),
                "subgraph test over different node counts");
  for (NodeId u = 0; u < node_count(); ++u) {
    const auto row = neighbors(u);
    const auto sub_row = sub.neighbors(u);
    if (!std::includes(row.begin(), row.end(), sub_row.begin(),
                       sub_row.end())) {
      return false;
    }
  }
  return true;
}

std::string Graph::to_string() const {
  std::ostringstream os;
  os << "Graph(n=" << node_count() << ", m=" << edge_count() << ")\n";
  for (NodeId u = 0; u < node_count(); ++u) {
    os << "  " << u << ":";
    for (NodeId v : neighbors(u)) os << ' ' << v;
    os << '\n';
  }
  return os.str();
}

void GraphBuilder::add_edge(NodeId a, NodeId b) {
  HINET_REQUIRE(a < n_ && b < n_, "node id out of range");
  edges_.push_back(make_edge(a, b));
}

Graph GraphBuilder::build() {
  Graph out;
  build_into(out);
  return out;
}

void GraphBuilder::build_into(Graph& out) {
  // Counting sort: count degrees, carve rows with a prefix sum, scatter both
  // directions of every edge into its rows, then sort each row and squeeze
  // duplicates out in place.  Most rows in sparse traces hold one or two
  // entries, so the row sorts are nearly free.
  auto& off = out.offsets_;
  off.assign(n_ + 1, 0);
  for (const Edge& e : edges_) {
    ++off[e.u + 1];
    ++off[e.v + 1];
  }
  for (std::size_t v = 0; v < n_; ++v) off[v + 1] += off[v];
  auto& nb = out.neighbors_;
  nb.resize(2 * edges_.size());
  cursor_.assign(off.begin(), off.end() - 1);
  for (const Edge& e : edges_) {
    nb[cursor_[e.u]++] = e.v;
    nb[cursor_[e.v]++] = e.u;
  }
  std::uint32_t write = 0;
  for (std::size_t v = 0; v < n_; ++v) {
    const auto begin = nb.begin() + off[v];
    const auto end = nb.begin() + off[v + 1];
    off[v] = write;
    if (end - begin > 1) std::sort(begin, end);
    for (auto it = begin; it != end; ++it) {
      if (it == begin || *it != it[-1]) nb[write++] = *it;
    }
  }
  off[n_] = write;
  nb.resize(write);
}

void GraphBuilder::build_onto(const Graph& base, Graph& out) {
  HINET_REQUIRE(base.node_count() == n_, "builder and base disagree on n");
  HINET_REQUIRE(&base != &out, "build_onto cannot write over its base");
  // Both directions of every collected edge, as (row, neighbour) pairs in
  // row-major order without duplicates.  Here Edge is not canonical: u is
  // the row, v the neighbour.
  half_.clear();
  half_.reserve(2 * edges_.size());
  for (const Edge& e : edges_) {
    half_.push_back(e);
    half_.push_back({e.v, e.u});
  }
  std::sort(half_.begin(), half_.end());
  half_.erase(std::unique(half_.begin(), half_.end()), half_.end());

  const auto& boff = base.offsets_;
  const auto& bnb = base.neighbors_;
  auto& off = out.offsets_;
  auto& nb = out.neighbors_;
  off.resize(n_ + 1);
  nb.resize(bnb.size() + half_.size());
  std::uint32_t write = 0;
  // Rows [from, to) of base gain nothing: one block copy, offsets shifted
  // by how far the output has run ahead of base.
  const auto copy_rows = [&](std::size_t from, std::size_t to) {
    if (from == to) return;
    const std::uint32_t shift = write - boff[from];
    for (std::size_t v = from; v < to; ++v) off[v] = boff[v] + shift;
    std::copy(bnb.begin() + boff[from], bnb.begin() + boff[to],
              nb.begin() + write);
    write += boff[to] - boff[from];
  };
  std::size_t next_row = 0;
  for (auto it = half_.begin(); it != half_.end();) {
    const NodeId u = it->u;
    auto row_end = it;
    while (row_end != half_.end() && row_end->u == u) ++row_end;
    copy_rows(next_row, u);
    off[u] = write;
    const auto row = base.neighbors(u);
    auto out_it = nb.begin() + write;
    auto a = row.begin();
    for (; it != row_end; ++it) {
      // set_union of the base row and the added neighbours, both sorted.
      while (a != row.end() && *a < it->v) *out_it++ = *a++;
      if (a != row.end() && *a == it->v) ++a;
      *out_it++ = it->v;
    }
    out_it = std::copy(a, row.end(), out_it);
    write = static_cast<std::uint32_t>(out_it - nb.begin());
    next_row = u + 1;
  }
  copy_rows(next_row, n_);
  off[n_] = write;
  nb.resize(write);
}

std::vector<int> restricted_distances(const Graph& g, NodeId source,
                                      std::span<const char> allowed) {
  HINET_REQUIRE(allowed.size() == g.node_count(),
                "allowed mask size mismatch");
  std::vector<int> dist(g.node_count(), -1);
  if (source >= g.node_count() || !allowed[source]) return dist;
  std::queue<NodeId> q;
  dist[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (NodeId v : g.neighbors(u)) {
      if (allowed[v] && dist[v] < 0) {
        dist[v] = dist[u] + 1;
        q.push(v);
      }
    }
  }
  return dist;
}

}  // namespace hinet
