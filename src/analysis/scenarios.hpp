// The four evaluation scenarios of the paper's Section V, prepared as
// runnable simulations:
//
//   kKloInterval   — KLO pipeline on a (k+αL, L)-HiNet trace, hierarchy
//                    ignored (the "(k+αL)-interval connected [7]" row);
//   kHiNetInterval — Algorithm 1 on the same trace family;
//   kHiNetIntervalStable — Remark 1 variant on an ∞-stable-head trace;
//   kKloOne        — KLO full-broadcast forwarding on a (1, L)-HiNet trace;
//   kHiNetOne      — Algorithm 2 on the same trace family.
//
// Each scenario builder returns a self-owning SimulationSpec plus the
// generator's observed dynamics statistics and the analytic CostParams
// instantiated with those *measured* values (θ, n_m, n_r), so benches can
// print analytic-vs-measured side by side.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "analysis/assignment.hpp"
#include "analysis/experiment.hpp"
#include "core/cost_model.hpp"
#include "core/hinet_generator.hpp"

namespace hinet {

enum class Scenario {
  kKloInterval,
  kHiNetInterval,
  kHiNetIntervalStable,
  kKloOne,
  kHiNetOne,
};

const char* scenario_name(Scenario s);

/// Stable machine-readable identifier ("hinet-interval", "klo-one", ...):
/// the spelling the CLI tools accept and the durable job specs store.
const char* scenario_cli_name(Scenario s);

/// Inverse of scenario_cli_name; nullopt for an unknown name.  Shared by
/// sweep_runner and hinetd so the two front-ends cannot drift apart.
std::optional<Scenario> scenario_from_cli_name(const std::string& name);

/// Every scenario, in declaration order (for "list what I accept" help
/// text and exhaustive tests).
std::span<const Scenario> all_scenarios();

struct ScenarioConfig {
  std::size_t nodes = 100;
  std::size_t heads = 30;  ///< generator head count; also the θ bound
  std::size_t k = 8;
  std::size_t alpha = 5;
  int hop_l = 2;
  /// Member re-affiliation probability per phase boundary (per round for
  /// the (1, L) scenarios, whose phases are single rounds).
  double reaffiliation_prob = 0.05;
  std::size_t churn_edges = 4;
  AssignmentMode assignment = AssignmentMode::kDistinctRandom;
  /// Run the full schedule instead of stopping at completion, so measured
  /// communication reflects the algorithm as specified (no oracle stop).
  bool run_full_schedule = true;
};

/// Phase structure a scenario's algorithm is scheduled for.
struct ScenarioSchedule {
  std::size_t phase_length = 0;  ///< T
  std::size_t phases = 0;        ///< M
  std::size_t rounds() const { return phase_length * phases; }
};

/// Generator configuration realising scenario `s` at (cfg, seed).  When
/// `schedule` is non-null it receives the phase structure.  Exposed so
/// tools (e.g. quickstart) can generate the trace themselves, inspect or
/// property-check it, and only then hand it to make_scenario_from_trace.
HiNetConfig scenario_generator(Scenario s, const ScenarioConfig& cfg,
                               std::uint64_t seed,
                               ScenarioSchedule* schedule = nullptr);

struct ScenarioRun {
  /// The runnable simulation; owns trace, hierarchy and processes.
  SimulationSpec spec;
  HiNetTraceStats trace_stats;
  /// CostParams with θ, n_m, n_r filled from the generated trace (rounded
  /// to the nearest integer), ready for the Table 2 formulas.
  CostParams analytic;
  std::size_t scheduled_rounds = 0;
};

ScenarioRun make_scenario(Scenario s, const ScenarioConfig& cfg,
                          std::uint64_t seed);

/// Builds the runnable spec from an already-generated trace (consumes it).
/// The trace must come from scenario_generator(s, cfg, seed) — the token
/// assignment is derived from the same seed.
ScenarioRun make_scenario_from_trace(Scenario s, const ScenarioConfig& cfg,
                                     HiNetTrace&& trace, std::uint64_t seed);

/// SpecFactory adapter for run_experiment (any ExecutionPolicy).
/// Pure function of the seed, hence safe for concurrent invocation.
SpecFactory scenario_factory(Scenario s, const ScenarioConfig& cfg);

}  // namespace hinet
