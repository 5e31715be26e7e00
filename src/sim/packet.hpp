// Wire format of the simulator.
//
// The model is wireless local broadcast: one transmission per node per
// round, heard by every current graph neighbour.  A packet may carry an
// addressee (the pseudocode's "send t to its cluster head"); physically it
// is still overheard by all neighbours, and receivers decide — per the
// algorithm — whether to consume overheard traffic.  Communication cost is
// counted per *transmission* (not per receiver): the paper's metric is the
// total number of tokens sent.
#pragma once

#include <optional>
#include <span>

#include "graph/graph.hpp"
#include "util/token_set.hpp"

namespace hinet {

/// Addressee value meaning "no specific addressee" (plain broadcast).
inline constexpr NodeId kBroadcastDest = static_cast<NodeId>(-1);

struct Packet {
  NodeId src = 0;
  NodeId dest = kBroadcastDest;  ///< addressee, or kBroadcastDest
  TokenSet tokens;

  /// Wire size override in token-equivalents.  Unset: the packet carries
  /// the listed tokens verbatim and costs tokens.count().  Set: the
  /// `tokens` field is reinterpreted by the algorithm (e.g. as the GF(2)
  /// coefficient vector of a network-coded payload) and the wire carries
  /// this many token-equivalents instead.
  std::optional<std::size_t> wire_tokens;

  std::size_t cost() const {
    return wire_tokens ? *wire_tokens : tokens.count();
  }
};

/// Non-owning view of one transmitted packet: a pointer into the engine's
/// per-round packet buffer.  Delivery gathers a receiver's inbox by
/// writing one view per transmitting CSR neighbour instead of copying
/// packets, so a delivery is one pointer store whatever k is.  (A Packet
/// is 64 bytes; copying one is a flat copy for k <= 256, where the
/// TokenSet stores its words inline, and a heap allocation above that.)
using PacketView = const Packet*;

/// One round's inbox as delivered to Process::receive: views into the
/// round's packet buffer, sorted by sender id.  Both the span and the
/// packets it points to are valid only for the duration of the receive
/// call — processes must copy whatever they keep.
using InboxView = std::span<const PacketView>;

}  // namespace hinet
