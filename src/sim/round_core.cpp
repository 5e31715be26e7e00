#include "sim/round_core.hpp"

#include <algorithm>

namespace hinet::detail {

void RunCore::begin(const EngineConfig& config, InboxScratch& scratch) {
  cfg = config;
  round = 0;
  const std::size_t n = node_count();

  metrics = SimMetrics{};
  metrics.per_node_tx_tokens.assign(n, 0);
  metrics.per_node_rx_tokens.assign(n, 0);
  {
    // Pre-size the per-round series (capped, so a huge max_rounds with an
    // early stop_when_complete exit cannot over-commit memory).
    const std::size_t cap = std::min<std::size_t>(cfg.max_rounds, 1u << 20);
    metrics.tokens_sent_per_round.reserve(cap);
    metrics.complete_nodes_per_round.reserve(cap);
  }

  rescan_completion();
  prepare_buffers(scratch);
}

void RunCore::prepare_buffers(InboxScratch& scratch) {
  const std::size_t n = node_count();
  packets.clear();
  packet_costs.clear();
  packet_of.assign(n, kNoPacket);
  if (scratch.views.size() < n) scratch.views.resize(n);
}

void RunCore::rescan_completion() {
  // Incremental completion: knowledge is monotone and grows only in
  // receive() (see Process), so scan once up front and afterwards re-check
  // only not-yet-complete nodes right after their receive() call.
  const std::size_t n = node_count();
  complete.assign(n, 0);
  complete_nodes = 0;
  for (NodeId v = 0; v < n; ++v) {
    if ((*processes)[v]->knowledge().full()) {
      complete[v] = 1;
      ++complete_nodes;
    }
  }
}

// detlint: hot-path-begin — the round body must not allocate in steady
// state; scratch buffers are sized by prepare_buffers() and reused via
// clear()/assign().
void RunCore::send_step(const Graph& g, const HierarchyView& h) {
  const std::size_t n = node_count();
  HINET_REQUIRE(g.node_count() == n, "round graph node count changed");

  // Send step: node-id order for determinism.  Each packet's cost is
  // computed once here and reused for tx and rx accounting.
  packets.clear();
  packet_costs.clear();
  packet_of.assign(n, kNoPacket);
  std::size_t round_tokens = 0;
  for (NodeId v = 0; v < n; ++v) {
    RoundContext ctx{round, v, &g, &h};
    if ((*processes)[v]->finished(ctx)) continue;
    if (auto pkt = (*processes)[v]->transmit(ctx)) {
      HINET_REQUIRE(pkt->src == v, "packet src must be the sender");
      const std::size_t cost = pkt->cost();
      round_tokens += cost;
      metrics.per_node_tx_tokens[v] += cost;
      packet_of[v] = static_cast<std::uint32_t>(packets.size());
      packet_costs.push_back(cost);
      packets.push_back(std::move(*pkt));
    }
  }
  metrics.packets_sent += packets.size();
  metrics.tokens_sent += round_tokens;
  metrics.tokens_sent_per_round.push_back(round_tokens);
}

void RunCore::deliver_and_receive(const Graph& g, const HierarchyView& h,
                                  InboxScratch& scratch) {
  const std::size_t n = node_count();
  const Round r = round;

  // Receiver-major gather: v's inbox is its transmitting neighbours, read
  // off v's CSR row, so it comes out sorted by sender id and the channel
  // sees deliver() calls receivers ascending, senders ascending.
  PacketView* inbox = scratch.views.data();
  for (NodeId v = 0; v < n; ++v) {
    std::size_t len = 0;
    for (NodeId u : g.neighbors(v)) {
      const std::uint32_t idx = packet_of[u];
      if (idx == kNoPacket) continue;
      const Packet& pkt = packets[idx];
      if (channel != nullptr && !channel->deliver(r, pkt, v)) continue;
      metrics.per_node_rx_tokens[v] += packet_costs[idx];
      inbox[len++] = &pkt;
    }
    RoundContext ctx{r, v, &g, &h};
    (*processes)[v]->receive(ctx, InboxView(inbox, len));
    if (complete[v] == 0 && (*processes)[v]->knowledge().full()) {
      complete[v] = 1;
      ++complete_nodes;
    }
  }
}

bool RunCore::end_round() {
  const std::size_t n = node_count();
  ++round;
  ++metrics.rounds_executed;
  metrics.complete_nodes_per_round.push_back(complete_nodes);
  if (complete_nodes == n && metrics.rounds_to_completion == kNever) {
    metrics.rounds_to_completion = metrics.rounds_executed;
    if (cfg.stop_when_complete) return false;
  }
  return round < cfg.max_rounds;
}
// detlint: hot-path-end

SimMetrics RunCore::seal() {
  const std::size_t n = node_count();
  metrics.all_delivered = complete_nodes == n;
  if (metrics.all_delivered && metrics.rounds_to_completion == kNever) {
    metrics.rounds_to_completion = metrics.rounds_executed;
  }
  metrics.complete_nodes_final = complete_nodes;
  metrics.per_node_tokens_known.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    metrics.per_node_tokens_known[v] = (*processes)[v]->knowledge().count();
  }
  metrics.token_universe =
      n > 0 ? processes->front()->knowledge().universe() : 0;
  return std::move(metrics);
}

}  // namespace hinet::detail
