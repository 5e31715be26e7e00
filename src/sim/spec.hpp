// SimulationSpec: a complete, self-owning description of one simulation
// run — the value-semantic replacement for the old PreparedRun's
// type-erased `shared_ptr<void> holder` + raw borrow pointers.
//
// A spec owns its dynamic network, optional hierarchy provider, optional
// channel model, per-node processes and engine configuration.  Because
// nothing inside a spec aliases outside storage, a spec can be built on
// one thread and executed on another, which is what makes the threaded
// experiment executor (analysis/experiment.hpp) safe.
//
// Specs are move-only: ownership of a run is transferred, never shared.
#pragma once

#include <memory>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "graph/dynamic.hpp"
#include "sim/channel.hpp"
#include "sim/metrics.hpp"
#include "sim/process.hpp"

namespace hinet {

struct EngineConfig {
  /// Hard cap on executed rounds.
  std::size_t max_rounds = 0;

  /// Stop as soon as every node knows every token (after completing the
  /// round).  When false the engine always runs max_rounds rounds, which
  /// measures the algorithm's *scheduled* cost rather than its oracle
  /// stopping time.
  bool stop_when_complete = true;

  /// Wall-clock budget for the whole run, in milliseconds; 0 = unlimited.
  /// Checked once per round: an over-budget run throws DeadlineError (see
  /// sim/engine.hpp) instead of occupying its worker forever — the
  /// supervised experiment runner uses this to bound stuck replicates.
  /// The budget never influences simulation results (a run either finishes
  /// with its deterministic metrics or throws); resuming from a snapshot
  /// restarts the budget.
  std::size_t deadline_ms = 0;
};

struct SimulationSpec {
  /// The per-round communication graphs.  Required.
  std::unique_ptr<DynamicNetwork> network;

  /// Per-round roles/clusters; null for flat (non-clustered) algorithms.
  std::unique_ptr<HierarchyProvider> hierarchy;

  /// Failure-injecting medium; null means perfect delivery (the paper's
  /// model, zero-overhead path).
  std::unique_ptr<ChannelModel> channel;

  /// One process per node, in node-id order.
  std::vector<ProcessPtr> processes;

  EngineConfig engine;
};

/// Spec-level validation with actionable, field-naming messages: network
/// present, max_rounds non-zero, process/hierarchy node counts matching.
/// run_simulation calls this; exposed so callers that assemble specs by
/// hand can fail early with the same diagnostics.
void validate_simulation_spec(const SimulationSpec& spec);

/// Consumes the spec and executes it to completion on a fresh engine.
/// Throws PreconditionError when the spec has no network or the processes
/// do not match the network's node count.
SimMetrics run_simulation(SimulationSpec spec);

}  // namespace hinet
