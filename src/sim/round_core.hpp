// Shared single-replicate round core.
//
// Engine (sim/engine.hpp, serial) and BatchEngine (sim/batch_engine.hpp,
// lockstep over R replicates) execute the identical per-replicate round
// logic through this core: send step, receiver-centric gather over the
// round graph's CSR rows, channel filtering, receive step and incremental
// completion bookkeeping.  Keeping one implementation makes "batched ==
// serial, byte for byte" a structural property instead of a test-enforced
// hope: the two engines cannot drift apart, because there is only one
// round body.
//
// The round is split where the lockstep schedule needs a seam:
//
//   send_step()            collect transmit() in node-id order
//   -- channel begin_round / begin_round_batch runs here --
//   deliver_and_receive()  gather, channel-filter, receive()
//   end_round()            round counters, completion, per-round series
//
// The serial engine runs the three parts back to back per round; the
// batch engine runs part one for every replicate, makes ONE channel
// begin_round_batch call covering the whole batch, then runs part two and
// three for every replicate.  Because each replicate owns its processes,
// channel and trace, and the only shared piece is pure scratch, the
// per-replicate sequence of process calls and RNG draws is exactly the
// serial one in either schedule.
//
// Delivery needs no sort: send_step records which packet (if any) each
// node sent, and each receiver's inbox is gathered by walking its own CSR
// row, which is sorted by node id.  Graph rows are symmetric, so that is
// exactly the set of transmitting neighbours, in sender order.
//
// InboxScratch is the delivery-side scratch: one receiver's inbox at a
// time.  It lives outside the core so a lockstep batch reuses ONE scratch
// across all replicates.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "graph/dynamic.hpp"
#include "sim/channel.hpp"
#include "sim/metrics.hpp"
#include "sim/process.hpp"
#include "sim/spec.hpp"

namespace hinet::detail {

/// Delivery scratch, shareable across replicates within a round (each
/// replicate's delivery uses it transiently inside deliver_and_receive).
/// `views` holds one receiver's inbox; an inbox is at most a CSR row, so
/// prepare_buffers() sizes it to n once and rounds never grow it.
struct InboxScratch {
  std::vector<PacketView> views;
};

/// Per-replicate run state plus the per-round send buffers — everything
/// one replicate needs between rounds.  Bindings are non-owning: the
/// owner (Engine or BatchEngine::Replicate) keeps the pointees alive and
/// re-binds after moves.
struct RunCore {
  // Bindings (non-owning).
  DynamicNetwork* net = nullptr;
  HierarchyProvider* hierarchy = nullptr;       ///< may be null (flat)
  const HierarchyView* flat_view = nullptr;     ///< used when hierarchy null
  std::vector<ProcessPtr>* processes = nullptr;
  ChannelModel* channel = nullptr;              ///< may be null (perfect)

  // Run state, valid between begin() and seal().  This is exactly what
  // Engine::snapshot() captures (plus the engine config).
  EngineConfig cfg;
  Round round = 0;
  SimMetrics metrics;
  std::vector<char> complete;
  std::size_t complete_nodes = 0;

  // Per-replicate send-side scratch, allocated once per run and reused
  // (clear() keeps capacity).  packet_of[v] is v's index in `packets` this
  // round, or kNoPacket.
  static constexpr std::uint32_t kNoPacket = static_cast<std::uint32_t>(-1);
  std::vector<Packet> packets;
  std::vector<std::size_t> packet_costs;
  std::vector<std::uint32_t> packet_of;

  std::size_t node_count() const { return net->node_count(); }

  /// The round-r hierarchy view: the provider's, or the flat fallback.
  const HierarchyView& view_at(Round r) const {
    return hierarchy != nullptr ? hierarchy->hierarchy_at(r) : *flat_view;
  }

  /// Initialises run state for a fresh run under `config`: zeroed metrics
  /// with per-node vectors sized, the initial completion scan, and
  /// prepare_buffers(scratch).  Bindings must be set first.
  void begin(const EngineConfig& config, InboxScratch& scratch);

  /// Empties the send buffers and sizes packet_of and scratch for n nodes,
  /// so that rounds reuse capacity (begin() and snapshot restore).
  void prepare_buffers(InboxScratch& scratch);

  /// Re-derives the completion flags from current process knowledge (used
  /// by begin() and snapshot restore; knowledge().full() is the same
  /// predicate the live run uses, so recomputing cannot disagree).
  void rescan_completion();

  /// True while step()-equivalent execution has more rounds to run:
  /// schedule not exhausted and, with stop_when_complete, dissemination
  /// not yet complete.
  bool pending() const {
    return round < cfg.max_rounds &&
           !(cfg.stop_when_complete && metrics.rounds_to_completion != kNever);
  }

  /// Send half of round `round`: collects transmit() from every
  /// unfinished node in node-id order into `packets`/`packet_costs`,
  /// records `packet_of` and accounts tx costs.  `g`/`h` are the round's
  /// graph and hierarchy.
  void send_step(const Graph& g, const HierarchyView& h);

  /// Delivery half: for each receiver v in ascending order, gathers the
  /// packets of v's transmitting neighbours from v's CSR row (sender
  /// order) into `scratch`, filters them through the channel, then calls
  /// receive() and updates completion.  The channel therefore sees its
  /// deliver() calls receiver-major, senders ascending.  The channel's
  /// begin_round (or the batch hook) must have run between send_step and
  /// this call.
  void deliver_and_receive(const Graph& g, const HierarchyView& h,
                           InboxScratch& scratch);

  /// Round bookkeeping: advances the round counter and the per-round
  /// series.  Returns true while more rounds remain (same contract as
  /// Engine::step()'s return value).
  bool end_round();

  /// Finalises and returns the metrics (Engine::finish() body).
  SimMetrics seal();
};

}  // namespace hinet::detail
