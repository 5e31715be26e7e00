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
#include <functional>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "graph/dynamic.hpp"
#include "sim/channel.hpp"
#include "sim/round_core.hpp"
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
  Round current_round() const { return core_.round; }

  void set_observer(RoundObserver obs) { observer_ = std::move(obs); }

  /// Installs a failure-injecting channel; the engine does not own it.
  /// Default: perfect delivery (the paper's model).  A spec-owning engine
  /// installs (and owns) its spec's channel instead.
  void set_channel(ChannelModel* channel) { channel_ = channel; }

  const Process& process(NodeId v) const { return *processes_[v]; }

 private:
  void validate() const;

  /// Points the run core's bindings at this engine's topology, processes
  /// and channel (called at start()/restore(), and per step for the
  /// channel, which set_channel may swap between rounds).
  void bind_core();

  /// Arms (or disarms) the wall-clock budget from the core's deadline_ms,
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

  // Run state and per-round scratch, valid between start()/restore() and
  // finish().  The round body itself lives in detail::RunCore, shared
  // verbatim with the lockstep BatchEngine; the core's state (round
  // counter, metrics, completion flags) is what snapshot() captures.
  bool started_ = false;
  bool finished_ = false;
  detail::RunCore core_;
  detail::InboxScratch scratch_;
  // Supervision deadline: over-budget runs throw, they never degrade, so
  // results stay a pure function of (spec, seed).
  // detlint-allow(banned-time): deadline only gates abort, never results
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace hinet
