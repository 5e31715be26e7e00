#include "graph/adversary.hpp"

#include "graph/generators.hpp"
#include "util/binary_io.hpp"

namespace hinet {

namespace {

void add_churn(GraphBuilder& g, std::size_t churn_edges, Rng& rng) {
  const std::size_t n = g.node_count();
  if (n < 2) return;
  for (std::size_t e = 0; e < churn_edges; ++e) {
    const auto a = static_cast<NodeId>(rng.below(n));
    const auto b = static_cast<NodeId>(rng.below(n));
    if (a != b) g.add_edge(a, b);  // duplicate draws are harmless
  }
}

Graph make_backbone(std::size_t nodes, bool path_backbone, Rng& rng) {
  if (path_backbone) {
    // Random relabelled path: permute node ids along a line.  A path is
    // the worst stable subgraph the model allows (diameter n-1), which
    // makes pipelined dissemination as slow as possible.
    std::vector<NodeId> order(nodes);
    for (NodeId i = 0; i < nodes; ++i) order[i] = i;
    rng.shuffle(order);
    GraphBuilder p(nodes);
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      p.add_edge(order[i], order[i + 1]);
    }
    return p.build();
  }
  return gen::random_tree(nodes, rng);
}

void save_rng(ByteWriter& w, const Rng& rng) {
  for (std::uint64_t word : rng.state()) w.u64(word);
}

void load_rng(ByteReader& r, Rng& rng) {
  std::array<std::uint64_t, 4> s{};
  for (std::uint64_t& word : s) word = r.u64();
  rng.set_state(s);
}

}  // namespace

TIntervalNetwork::TIntervalNetwork(const AdversaryConfig& cfg,
                                   bool path_backbone, std::size_t window)
    : StreamingNetwork(cfg.nodes, cfg.rounds, window),
      cfg_(cfg),
      path_backbone_(path_backbone) {
  HINET_REQUIRE(cfg.interval >= 1, "T must be >= 1");
  reset_generator();
}

void TIntervalNetwork::reset_generator() {
  Rng rng(cfg_.seed);
  backbone_rng_ = rng.fork();
  churn_rng_ = rng.fork();
  cur_window_ = 0;
  // One backbone per aligned window of T rounds, plus one beyond the end.
  // T-interval connectivity quantifies over *sliding* windows, so a window
  // straddling two aligned windows must still share a stable connected
  // spanning subgraph.  We achieve that by giving every round of window w
  // the edges of both backbone_w and backbone_{w+1}: any sliding window
  // [i, i+T) touches at most aligned windows w and w+1, and all of its
  // rounds then contain backbone_{w+1}.  Lazily generated: only the two
  // live backbones are ever resident.
  backbone_cur_ = make_backbone(cfg_.nodes, path_backbone_, backbone_rng_);
  backbone_next_ = make_backbone(cfg_.nodes, path_backbone_, backbone_rng_);
}

Graph TIntervalNetwork::synthesize_next() {
  const std::size_t w = frontier() / cfg_.interval;
  // Rounds are synthesised monotonically, so the window index advances by
  // at most one per call and the backbone RNG draws in exactly the eager
  // generator's order (w = 0, 1, 2, ... each drawn once).
  if (w > cur_window_) {
    backbone_cur_ = std::move(backbone_next_);
    backbone_next_ = make_backbone(cfg_.nodes, path_backbone_, backbone_rng_);
    ++cur_window_;
  }
  GraphBuilder churn(node_count());
  add_churn(churn, cfg_.churn_edges, churn_rng_);
  Graph g;
  churn.build_onto(Graph::union_of(backbone_cur_, backbone_next_), g);
  return g;
}

void TIntervalNetwork::save_generator_state(ByteWriter& w) const {
  save_rng(w, backbone_rng_);
  save_rng(w, churn_rng_);
  w.u64(cur_window_);
  save_graph(w, backbone_cur_);
  save_graph(w, backbone_next_);
}

void TIntervalNetwork::load_generator_state(ByteReader& r) {
  load_rng(r, backbone_rng_);
  load_rng(r, churn_rng_);
  cur_window_ = r.u64();
  backbone_cur_ = load_graph(r, node_count());
  backbone_next_ = load_graph(r, node_count());
}

namespace {

GraphSequence generate(const AdversaryConfig& cfg, bool path_backbone) {
  HINET_REQUIRE(cfg.nodes >= 1, "adversary needs nodes");
  HINET_REQUIRE(cfg.rounds >= 1, "trace needs at least one round");
  TIntervalNetwork net(cfg, path_backbone);
  return materialize(net, cfg.rounds);
}

}  // namespace

GraphSequence make_t_interval_trace(const AdversaryConfig& cfg) {
  return generate(cfg, /*path_backbone=*/false);
}

GraphSequence make_t_interval_path_trace(const AdversaryConfig& cfg) {
  return generate(cfg, /*path_backbone=*/true);
}

}  // namespace hinet
