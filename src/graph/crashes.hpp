// Crash-fault events at the trace level.
//
// A crashed node keeps existing (node sets are fixed in the paper's
// models) but loses all of its links from the crash round onward — it can
// neither send nor receive.  Injecting crashes into the *topology* keeps
// every layer above (clustering maintenance, dissemination) oblivious,
// which is exactly how a real deployment experiences a died node: the
// neighbours just stop hearing it, and the hierarchy must repair itself.
// FaultyNetwork (sim/faults.hpp) applies CrashEvents to any network.
//
// A crash may carry a recovery round, modelling the rejoin churn of
// Remark 1: the node is down for [round, recovery) and regains its links
// afterwards (its process state is whatever it was — the node slept, it
// was not reset).  The default is the historical permanent crash.
#pragma once

#include <span>

#include "graph/dynamic.hpp"

namespace hinet {

/// Sentinel recovery round meaning "never recovers" (permanent crash).
inline constexpr Round kNoRecovery = static_cast<Round>(-1);

struct CrashEvent {
  NodeId node = 0;
  Round round = 0;              ///< first round in which the node is gone
  Round recovery = kNoRecovery; ///< first round back up (default: never)

  /// True when the node is down in round r under this event.
  bool down_at(Round r) const { return r >= round && r < recovery; }
};

/// True when any event has its node down at round r.
bool any_down(std::span<const CrashEvent> crashes, Round r);

/// Nodes up at round r under the crash plan (recovered nodes count as
/// alive again).
std::vector<NodeId> alive_nodes(std::size_t node_count, Round r,
                                std::span<const CrashEvent> crashes);

}  // namespace hinet
