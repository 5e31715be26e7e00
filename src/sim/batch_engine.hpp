// BatchEngine: lockstep execution of R replicates of one SimulationSpec
// family.
//
// A run is a pure function of (spec, seed), so R replicates built by the
// same SpecFactory at derived seeds can be advanced round by round in
// lockstep instead of run to run.  Per lockstep round the engine executes:
//
//   phase A — per replicate, in index order: the send step (transmit()
//             collection, node-id order);
//   phase B — ONE ChannelModel::begin_round_batch call covering every
//             active replicate, when the channel type certifies batching
//             via supports_batching() (otherwise a per-replicate
//             begin_round loop — always correct, never sniffed by
//             dynamic_cast in the engine);
//   phase C — per replicate, in index order: gather, channel filtering,
//             receive() and completion bookkeeping.
//
// Every replicate owns its trace, hierarchy, channel and processes; the
// only cross-replicate sharing is pure scratch (one inbox buffer serves
// the whole batch, replicate-major per round).  The per-replicate round
// body is detail::RunCore — the same code the serial Engine runs — so
// each replicate's sequence of process calls, channel RNG draws and
// metrics is byte-identical to a serial Engine run of the same spec.
// (tests/sim/test_batch_engine.cpp and the batch-equivalence suites pin
// this for every scenario × channel × seed.)
//
// Failure isolation: one replicate throwing (a process bug, a channel
// precondition, a poisoned seed) removes only that replicate from the
// lockstep; the rest finish normally.  Failures carry the original
// exception_ptr so supervised callers can classify and retry by type.
//
// Deadline: the largest EngineConfig::deadline_ms across the batch bounds
// the whole lockstep run (checked once per lockstep round).  On expiry
// every still-unfinished replicate fails with DeadlineError — a batch is
// the unit of scheduling here, so the budget is per batch, not per
// replicate (documented in analysis/experiment.hpp).
//
// Single-shot, like Engine: run() consumes the replicates' process state.
// No observer support — record traces through a serial Engine.
#pragma once

#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/round_core.hpp"
#include "sim/spec.hpp"

namespace hinet {

/// One replicate's terminal failure inside a lockstep batch.
struct BatchReplicateFailure {
  std::size_t index = 0;      ///< position in the spec vector
  std::string message;
  std::exception_ptr error;   ///< rethrowable, for error classification
};

/// Outcome of a lockstep batch: metrics per replicate index (nullopt =
/// failed; see failures, sorted by index).
struct BatchOutcome {
  std::vector<std::optional<SimMetrics>> slots;
  std::vector<BatchReplicateFailure> failures;

  std::size_t completed() const;
};

class BatchEngine {
 public:
  /// Consumes the specs.  Every spec is validated up front
  /// (validate_simulation_spec) and the batch must be channel-homogeneous:
  /// either every spec owns a channel or none does (one factory built
  /// them, so a mixed batch is a mis-assembled call).
  explicit BatchEngine(std::vector<SimulationSpec> specs);

  std::size_t size() const { return replicates_.size(); }

  /// Runs every replicate to completion (or failure) in lockstep.
  /// Single-shot; never throws for per-replicate failures (they land in
  /// the outcome), only for engine misuse (second run()).
  BatchOutcome run();

 private:
  struct Replicate {
    std::unique_ptr<DynamicNetwork> network;
    std::unique_ptr<HierarchyProvider> hierarchy;
    std::unique_ptr<ChannelModel> channel;
    std::vector<ProcessPtr> processes;
    EngineConfig config;
    HierarchyView flat_view;
    detail::RunCore core;
    // Round-scoped: the graph/hierarchy the send step bound, reused by
    // the delivery phase of the same lockstep round.
    const Graph* round_graph = nullptr;
    const HierarchyView* round_view = nullptr;
    bool active = false;
  };

  void bind(Replicate& rep);

  std::vector<Replicate> replicates_;
  detail::InboxScratch scratch_;
  bool ran_ = false;
};

}  // namespace hinet
