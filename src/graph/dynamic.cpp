#include "graph/dynamic.hpp"

#include <sstream>

#include "util/binary_io.hpp"

namespace hinet {

GraphSequence::GraphSequence(std::vector<Graph> rounds)
    : rounds_(std::move(rounds)) {
  HINET_REQUIRE(!rounds_.empty(), "GraphSequence needs at least one round");
  n_ = rounds_.front().node_count();
  for (const Graph& g : rounds_) {
    HINET_REQUIRE(g.node_count() == n_,
                  "all rounds must share the same node set");
  }
}

const Graph& GraphSequence::graph_at(Round r) {
  if (r >= rounds_.size()) return rounds_.back();
  return rounds_[r];
}

void GraphSequence::push_back(Graph g) {
  HINET_REQUIRE(g.node_count() == n_,
                "appended round must share the node set");
  rounds_.push_back(std::move(g));
}

StreamingNetwork::StreamingNetwork(std::size_t nodes, std::size_t horizon,
                                   std::size_t window)
    : n_(nodes), horizon_(horizon) {
  HINET_REQUIRE(nodes >= 1, "streaming network needs nodes");
  HINET_REQUIRE(horizon >= 1, "streaming network needs at least one round");
  HINET_REQUIRE(window >= 1, "ring window must hold at least one round");
  ring_.resize(std::min(window, horizon));
}

const Graph& StreamingNetwork::graph_at(Round r) {
  // Repeat-final-round convention: the trace extends past its nominal
  // horizon by repeating the last graph (identical to GraphSequence).
  if (r >= horizon_) r = horizon_ - 1;
  return ensure(r);
}

const Graph& StreamingNetwork::ensure(Round r) {
  const std::size_t w = ring_.size();
  if (r < frontier_) {
    if (r >= resident_begin_ && r + w >= frontier_) {
      return ring_[r % w];  // still resident
    }
    // Behind the window (or behind a restore's frontier): deterministic
    // replay from round 0.  Counted so tests and tools can assert the
    // expected (forward) access pattern.
    ++rewinds_;
    reset_generator();
    frontier_ = 0;
    resident_begin_ = 0;
  }
  while (frontier_ <= r) {
    ring_[frontier_ % w] = synthesize_next();
    HINET_ENSURE(ring_[frontier_ % w].node_count() == n_,
                 "synthesized round changed the node set");
    ++frontier_;
  }
  return ring_[r % w];
}

void StreamingNetwork::save_trace_state(ByteWriter& w) const {
  w.u64(frontier_);
  ByteWriter gw;
  save_generator_state(gw);
  w.blob(gw.buffer());
}

void StreamingNetwork::restore_trace_state(ByteReader& r) {
  const std::uint64_t stored_frontier = r.u64();
  if (stored_frontier > horizon_) {
    std::ostringstream os;
    os << "streaming trace state corrupt or mismatched: stored frontier "
       << stored_frontier << " is past the provider's horizon " << horizon_;
    throw IoError(os.str());
  }
  ByteReader gr(r.blob(), "streaming generator state");
  load_generator_state(gr);
  gr.expect_done();
  // The ring is not serialized: the resume path walks forward from the
  // restored frontier (one synthesize_next per round), and any backward
  // access replays deterministically from round 0.
  frontier_ = stored_frontier;
  resident_begin_ = stored_frontier;
  for (Graph& g : ring_) g = Graph();
}

void save_graph(ByteWriter& w, const Graph& g) {
  w.u64(g.node_count());
  const auto edges = g.edges();
  w.u64(edges.size());
  for (const Edge& e : edges) {
    w.u32(e.u);
    w.u32(e.v);
  }
}

Graph load_graph(ByteReader& r, std::size_t expected_nodes) {
  const std::uint64_t n = r.u64();
  const std::uint64_t m = r.u64();
  // The caller always knows how many nodes the graph must have, and the
  // stored count is (possibly corrupt) input — checking it before Graph
  // construction keeps a flipped high bit from zero-filling gigabytes.
  if (n != expected_nodes) {
    throw IoError("serialized graph corrupt: node count mismatch");
  }
  if (m > r.remaining() / 8) {
    throw IoError("serialized graph corrupt: edge count exceeds payload");
  }
  GraphBuilder b(n);
  for (std::uint64_t i = 0; i < m; ++i) {
    const NodeId u = r.u32();
    const NodeId v = r.u32();
    if (u >= n || v >= n || u == v) {
      throw IoError("serialized graph corrupt: edge endpoint out of range");
    }
    b.add_edge(u, v);
  }
  return b.build();
}

std::size_t estimated_graph_bytes(std::size_t nodes, std::size_t edges) {
  // CSR: (n+1) u32 offsets plus 2 u32 neighbour entries per undirected
  // edge, and the Graph object itself.
  return sizeof(Graph) + (nodes + 1) * 4 + edges * 8;
}

GraphSequence materialize(DynamicNetwork& net, std::size_t rounds,
                          std::size_t byte_budget) {
  HINET_REQUIRE(rounds >= 1, "need at least one round");
  std::vector<Graph> out;
  out.reserve(rounds);
  out.push_back(net.graph_at(0));
  const std::size_t per_round =
      estimated_graph_bytes(out.front().node_count(), out.front().edge_count());
  if (per_round != 0 && rounds > byte_budget / per_round) {
    std::ostringstream os;
    os << "materialize(" << rounds << " rounds) would freeze an estimated "
       << per_round * rounds / (1024 * 1024) << " MiB (~" << per_round
       << " bytes/round at n=" << out.front().node_count()
       << "), exceeding the " << byte_budget / (1024 * 1024)
       << " MiB budget — keep the trace streaming (StreamingNetwork keeps "
       << "only a small ring resident), shorten the horizon, or pass a "
       << "larger byte_budget to freeze deliberately";
    throw PreconditionError(os.str());
  }
  for (Round r = 1; r < rounds; ++r) out.push_back(net.graph_at(r));
  return GraphSequence(std::move(out));
}

}  // namespace hinet
