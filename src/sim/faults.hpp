// Declarative fault injection over any DynamicNetwork.
//
// A FaultPlan is a schedule of topology-level faults:
//   - CrashEvent      — node down for [round, recovery) (graph/crashes.hpp);
//   - PartitionEvent  — every edge between `group` and its complement is cut
//                       for [start, heal) (a correlated outage: a moving
//                       obstacle, a jammed area, a split backbone);
//   - LinkBurst       — a listed set of links is down for [start,
//                       start+length) (per-window burst outages on specific
//                       links, the wired analogue of a deep fade).
//
// FaultyNetwork applies a plan as a *decorator*: it wraps any
// DynamicNetwork — precomputed trace, lazy generator, even another
// FaultyNetwork — and masks each round's graph on the fly: one pass over
// the base round's CSR rows keeps the edges no active fault cuts, writing
// into reused buffers.  Rounds in which no fault is active are forwarded by
// reference, so an empty plan (and every pre-fault round) is zero-cost and
// byte-identical to the undecorated network.
//
// The *realized* faulty topology is what the hierarchy maintainer and the
// assumption monitor must see: either freeze it with materialize(faulty,
// rounds) and replay the copy, or — at scales where a resident trace is
// off the table — run the monitor's one-pass checkers directly over the
// decorator (it streams: each round is edited on the fly and dropped).
//
// FaultyNetwork also forwards the TraceStateSource checkpoint capability:
// when the base network is streaming, an Engine snapshot taken through the
// decorator carries the base generator's state, so kill-and-resume works
// unchanged over faulty streamed traces (the fault plan itself is
// construction data and needs no serialization).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "graph/crashes.hpp"
#include "graph/dynamic.hpp"

namespace hinet {

/// Correlated outage: all edges between `group` and the rest of the node
/// set are cut while the partition is active.
struct PartitionEvent {
  Round start = 0;
  Round heal = kNoRecovery;  ///< first round the cut is gone (default: never)
  std::vector<NodeId> group;

  bool active_at(Round r) const { return r >= start && r < heal; }
};

/// Burst outage on specific links: every listed edge is removed for
/// `length` consecutive rounds.  Links absent from the underlying graph in
/// a given round are ignored.
struct LinkBurst {
  Round start = 0;
  std::size_t length = 1;
  std::vector<Edge> links;

  bool active_at(Round r) const { return r >= start && r < start + length; }
};

/// A complete, declarative fault schedule.  Value-semantic: plans can be
/// built once and shared across replicates, serialised into bench JSON, or
/// perturbed per seed.
struct FaultPlan {
  std::vector<CrashEvent> crashes;
  std::vector<PartitionEvent> partitions;
  std::vector<LinkBurst> bursts;

  bool empty() const {
    return crashes.empty() && partitions.empty() && bursts.empty();
  }

  /// True when any fault edits the topology of round r.
  bool active_at(Round r) const;

  /// True when node v is inside a crash window at round r.
  bool node_down(NodeId v, Round r) const;

  /// Nodes not inside a crash window at round r.
  std::vector<NodeId> alive_nodes(std::size_t node_count, Round r) const {
    return hinet::alive_nodes(node_count, r, crashes);
  }

  /// Structural validation against a node count; throws PreconditionError
  /// with the first offending event.
  void validate(std::size_t node_count) const;
};

/// Random crash/recovery churn: `crash_count` distinct nodes each crash
/// once at a uniform round in [0, horizon) and recover `downtime` rounds
/// later (kNoRecovery = permanent).  Deterministic per seed.
FaultPlan random_churn_plan(std::size_t node_count, std::size_t crash_count,
                            std::size_t horizon, std::size_t downtime,
                            std::uint64_t seed);

/// Applies a FaultPlan to a base network on the fly.  Composable with
/// every generator (anything implementing DynamicNetwork) and with other
/// FaultyNetworks; builds a masked graph only when a fault is active in
/// that round.
class FaultyNetwork final : public DynamicNetwork, public TraceStateSource {
 public:
  /// Owning mode: the decorator keeps the base network alive (the form a
  /// self-owning SimulationSpec needs).
  FaultyNetwork(std::unique_ptr<DynamicNetwork> base, FaultPlan plan);

  /// Borrowing mode: `base` must outlive the decorator (tests, tools).
  FaultyNetwork(DynamicNetwork& base, FaultPlan plan);

  std::size_t node_count() const override { return base_->node_count(); }
  const Graph& graph_at(Round r) override;

  const FaultPlan& plan() const { return plan_; }

  /// Forwards to the base network when it is itself a TraceStateSource;
  /// otherwise stores/checks only an absence flag (the plan is static).
  void save_trace_state(ByteWriter& w) const override;
  void restore_trace_state(ByteReader& r) override;

 private:
  const Graph& rebuild(Round r);

  std::unique_ptr<DynamicNetwork> owned_;
  DynamicNetwork* base_;
  FaultPlan plan_;

  // Two-round cache, one slot per round parity: a reference to masked
  // round r stays valid while round r+1 is built, the same guarantee a
  // StreamingNetwork's default window of 2 gives.
  struct CachedRound {
    bool valid = false;
    Round round = 0;
    Graph graph;
  };
  std::array<CachedRound, 2> cache_;

  // Per-round mask scratch, reused across rebuilds.
  std::vector<char> down_;                 ///< node crashed this round
  std::vector<std::vector<char>> inside_;  ///< per active partition: in group
  std::vector<Edge> cut_links_;            ///< active burst links, sorted
};

}  // namespace hinet
