// Synchronous round engine.
//
// Executes one Process per node over a DynamicNetwork (and optional
// HierarchyProvider) for up to max_rounds rounds:
//
//   for each round r:
//     1. collect transmit() from every unfinished node      (send step)
//     2. gather each node's inbox from its G_r neighbours   (delivery)
//     3. receive() per node; account costs; track completion
//
// Delivery is receiver-centric, sort-free and zero-copy: the send step
// records which packet each node sent, and each receiver's inbox is its
// transmitting neighbours read off its own CSR row — O(Σ deg) per round,
// with no per-packet TokenSet copies.  CSR rows are sorted and symmetric,
// so every inbox is exactly the senders that reach the receiver, sorted
// by sender id — the ordering the determinism guarantee and the
// algorithms' tie-breaking rely on.  Channel filtering runs in the same
// walk, receivers ascending and senders ascending, which is the deliver()
// call order (and hence RNG draw order) of every earlier engine: a
// (trace, seed) pair reproduces byte-identical metrics across engine
// generations.
//
// Completion is tracked incrementally: knowledge is monotone and grows
// only in receive() (see Process), so each node is checked once per round
// with an O(1) TokenSet::full() and never re-scanned once complete.
//
// All per-round scratch (packet buffer, per-packet costs, the per-node
// packet index, one inbox view buffer) is sized before the first round and
// reused, so a steady-state round performs no heap allocation inside the
// engine.  The
// packets themselves allocate nothing for k <= TokenSet::kInlineTokens
// (256): a TokenSet that small keeps its words inline, so a process's
// transmit copies TA into its packet without touching the heap.  Together
// with allocation-free streaming synthesis, a steady-state round over a
// streaming (1, L)-HiNet trace allocates a small constant independent of n
// (EngineAllocGate in tests/core/test_synthesis_allocs.cpp).  For k > 256
// each full-set packet still allocates one word buffer.
//
// Execution is round-granular: run() is start() + step()-until-done +
// finish(), and the three stages are public so callers can pause between
// rounds.  At any round boundary snapshot() serializes the complete run
// state (round counter, partial metrics, per-process state, channel RNG /
// Markov state) into a versioned, CRC-guarded SimSnapshot; restore()
// re-attaches that state to a freshly built identical spec, and the
// resumed run finishes with byte-identical SimMetrics to an uninterrupted
// one (pinned by tests/sim/test_snapshot.cpp for every scenario×channel).
//
// Two ownership modes:
//   - spec-owning (preferred): Engine(SimulationSpec) takes the whole run
//     — network, hierarchy, channel, processes, config — so the engine's
//     lifetime alone keeps every dependency alive;
//   - borrowing: Engine(net, hierarchy, processes) references
//     caller-owned topology, for unit tests and tools that inspect the
//     trace after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "graph/dynamic.hpp"
#include "sim/channel.hpp"
#include "sim/metrics.hpp"
#include "sim/process.hpp"
#include "sim/snapshot.hpp"
#include "sim/spec.hpp"

namespace hinet {

/// Thrown by step() when EngineConfig::deadline_ms elapses before the run
/// finishes.  The run is abandoned, never resumed: a deadline is a
/// supervision boundary, not a pause (use snapshot() for pausing).
class DeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Observer invoked after each round with a view of that round's packets
/// (valid only during the call); used by trace recording and the
/// walkthrough bench.  Return value ignored.
using RoundObserver = std::function<void(Round, std::span<const Packet>,
                                         const Graph&, const HierarchyView&)>;

class Engine {
 public:
  /// Spec-owning mode: consumes the spec; the engine owns every part of
  /// the run.  The spec's channel (if any) is installed automatically.
  explicit Engine(SimulationSpec spec);

  /// Borrowing mode: `net` (and `hierarchy`, which may be null for flat
  /// algorithms) must outlive the engine; the caller keeps ownership.
  Engine(DynamicNetwork& net, HierarchyProvider* hierarchy,
         std::vector<ProcessPtr> processes);

  /// Runs the simulation: start(cfg), step() until done, finish().
  /// Single-shot: a second run on the same engine is a hard
  /// PreconditionError (processes hold consumed per-run state, so
  /// re-running would silently measure garbage).
  SimMetrics run(const EngineConfig& cfg);

  /// Spec-owning mode only: runs with the owned spec's engine config.
  SimMetrics run();

  // Round-granular execution, for callers that pause, checkpoint, or
  // interleave with other work.  Exactly one of start()/restore() begins a
  // run; step() executes one round; finish() seals the metrics.

  /// Begins a run.  PreconditionError if a run already started.
  void start(const EngineConfig& cfg);

  /// Executes one round.  Returns true while more rounds remain (schedule
  /// not exhausted and, with stop_when_complete, dissemination not yet
  /// complete).  Throws DeadlineError when the config's wall-clock budget
  /// is exhausted.
  bool step();

  /// Finalizes and returns the run's metrics; the engine is spent after.
  SimMetrics finish();

  /// Serializes the full run state at the current round boundary.  Valid
  /// between start()/restore() and finish().  Requires every process (and
  /// the channel, if stateful) to implement the checkpoint hooks.
  SimSnapshot snapshot() const;

  /// Begins a run by re-attaching snapshotted state to this engine, which
  /// must be freshly built from a spec identical to the one the snapshot
  /// was taken from (same factory, same seed).  The engine config is
  /// restored from the snapshot.  Throws IoError when the payload is
  /// corrupt or belongs to a structurally different run (node count,
  /// channel presence, per-process state shape).
  void restore(const SimSnapshot& snap);

  /// Round index of the next round step() would execute.
  Round current_round() const { return round_; }

  void set_observer(RoundObserver obs) { observer_ = std::move(obs); }

  /// Installs a failure-injecting channel; the engine does not own it.
  /// Default: perfect delivery (the paper's model).  A spec-owning engine
  /// installs (and owns) its spec's channel instead.
  void set_channel(ChannelModel* channel) { channel_ = channel; }

  const Process& process(NodeId v) const { return *processes_[v]; }

 private:
  void validate() const;

  /// Empties the send buffers and sizes packet_of_ and inbox_ for n nodes,
  /// so that rounds reuse capacity (start() and restore()).
  void prepare_buffers();

  /// Re-derives the completion flags from current process knowledge (used
  /// by start() and restore(); knowledge().full() is the same predicate
  /// the live run uses, so recomputing cannot disagree).
  void rescan_completion();

  // The round body, split where the channel's begin_round runs:
  //
  //   send_step()            collect transmit() in node-id order
  //   -- channel begin_round --
  //   deliver_and_receive()  gather, channel-filter, receive()
  //   end_round()            round counters, completion, per-round series

  /// Send half of round `round_`: collects transmit() from every
  /// unfinished node in node-id order into `packets_`/`packet_costs_`,
  /// records `packet_of_` and accounts tx costs.
  void send_step(const Graph& g, const HierarchyView& h);

  /// Delivery half: for each receiver v in ascending order, gathers the
  /// packets of v's transmitting neighbours from v's CSR row (sender
  /// order) into `inbox_`, filters them through the channel, then calls
  /// receive() and updates completion.  The channel therefore sees its
  /// deliver() calls receiver-major, senders ascending.
  void deliver_and_receive(const Graph& g, const HierarchyView& h);

  /// Round bookkeeping: advances the round counter and the per-round
  /// series.  Returns step()'s value.
  bool end_round();

  /// Arms (or disarms) the wall-clock budget from cfg_.deadline_ms,
  /// saturating un-representable budgets to "no deadline".
  void arm_deadline();

  // Owned storage (spec-owning mode only; empty when borrowing).
  std::unique_ptr<DynamicNetwork> owned_network_;
  std::unique_ptr<HierarchyProvider> owned_hierarchy_;
  std::unique_ptr<ChannelModel> owned_channel_;
  EngineConfig owned_config_;
  bool owning_ = false;

  DynamicNetwork* net_;
  HierarchyProvider* hierarchy_;
  HierarchyView flat_view_;
  std::vector<ProcessPtr> processes_;
  RoundObserver observer_;
  ChannelModel* channel_ = nullptr;

  // Run state, valid between start()/restore() and finish().  snapshot()
  // captures the config, round counter and metrics; the completion flags
  // are re-derived on restore.
  bool started_ = false;
  bool finished_ = false;
  EngineConfig cfg_;
  Round round_ = 0;
  SimMetrics metrics_;
  std::vector<char> complete_;
  std::size_t complete_nodes_ = 0;

  // Per-round scratch, sized by prepare_buffers() and reused (clear()
  // keeps capacity).  packet_of_[v] is v's index in `packets_` this round,
  // or kNoPacket; `inbox_` holds one receiver's inbox at a time, and an
  // inbox is at most a CSR row, so n entries always suffice.
  static constexpr std::uint32_t kNoPacket = static_cast<std::uint32_t>(-1);
  std::vector<Packet> packets_;
  std::vector<std::size_t> packet_costs_;
  std::vector<std::uint32_t> packet_of_;
  std::vector<PacketView> inbox_;

  // Supervision deadline: over-budget runs throw, they never degrade, so
  // results stay a pure function of (spec, seed).
  // detlint-allow(banned-time): deadline only gates abort, never results
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace hinet
