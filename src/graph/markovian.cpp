#include "graph/markovian.hpp"

#include "util/binary_io.hpp"

namespace hinet {

EdgeMarkovianNetwork::EdgeMarkovianNetwork(const MarkovianConfig& cfg,
                                           std::size_t window)
    : StreamingNetwork(cfg.nodes, cfg.rounds, window), cfg_(cfg) {
  HINET_REQUIRE(cfg.birth >= 0.0 && cfg.birth <= 1.0, "birth outside [0,1]");
  HINET_REQUIRE(cfg.death >= 0.0 && cfg.death <= 1.0, "death outside [0,1]");
  HINET_REQUIRE(cfg.initial >= 0.0 && cfg.initial <= 1.0,
                "initial density outside [0,1]");
  reset_generator();
}

void EdgeMarkovianNetwork::reset_generator() {
  rng_.reseed(cfg_.seed);
  prev_ = Graph();
}

Graph EdgeMarkovianNetwork::synthesize_next() {
  const std::size_t n = cfg_.nodes;
  GraphBuilder next(n);
  if (frontier() == 0) {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        if (rng_.bernoulli(cfg_.initial)) next.add_edge(i, j);
      }
    }
  } else {
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        const bool present = prev_.has_edge(i, j);
        const bool keep = present ? !rng_.bernoulli(cfg_.death)
                                  : rng_.bernoulli(cfg_.birth);
        if (keep) next.add_edge(i, j);
      }
    }
  }
  prev_ = next.build();
  return prev_;
}

void EdgeMarkovianNetwork::save_generator_state(ByteWriter& w) const {
  for (std::uint64_t word : rng_.state()) w.u64(word);
  save_graph(w, prev_);
}

void EdgeMarkovianNetwork::load_generator_state(ByteReader& r) {
  std::array<std::uint64_t, 4> s{};
  for (std::uint64_t& word : s) word = r.u64();
  rng_.set_state(s);
  prev_ = load_graph(r, node_count());
}

GraphSequence make_edge_markovian_trace(const MarkovianConfig& cfg) {
  HINET_REQUIRE(cfg.nodes >= 1, "EMDG needs nodes");
  HINET_REQUIRE(cfg.rounds >= 1, "trace needs at least one round");
  EdgeMarkovianNetwork net(cfg);
  return materialize(net, cfg.rounds);
}

double edge_markovian_stationary_density(double birth, double death) {
  HINET_REQUIRE(birth + death > 0.0, "degenerate chain");
  return birth / (birth + death);
}

}  // namespace hinet
