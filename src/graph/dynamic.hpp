// Dynamic network abstraction: a sequence of per-round communication
// graphs over a fixed node set.
//
// This is the edge-centric "evolving graph" view (Ferreira et al.): the
// lifetime Γ is divided into synchronous rounds and round r communicates
// over graph_at(r).  Two families of providers exist:
//   - GraphSequence: the materialized special case — every round resident
//     up front (O(Γ·n) memory, free random access);
//   - StreamingNetwork: rounds synthesised on demand from per-round RNG
//     state, with only a small ring of recent rounds resident (O(W·n)
//     memory).  This is what lets the simulator reach n = 10^5+, where a
//     fully resident trace would not fit.
// materialize() converts the latter into the former as an explicit,
// budget-guarded opt-in.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"

namespace hinet {

class ByteWriter;
class ByteReader;

/// Round index within the lifetime Γ = {t0, t1, ...}.
using Round = std::size_t;

/// Read-only view of a dynamic network's topology over time.
class DynamicNetwork {
 public:
  virtual ~DynamicNetwork() = default;

  /// Number of nodes (fixed over the lifetime; the models in the paper do
  /// not add or remove nodes, only edges).
  virtual std::size_t node_count() const = 0;

  /// Communication graph in round r.  Implementations must be
  /// deterministic: repeated calls with the same r return the same graph.
  virtual const Graph& graph_at(Round r) = 0;
};

/// Checkpoint capability for trace providers whose rounds are synthesised
/// from evolving generator state (RNG streams, chain state, positions).
/// Engine::snapshot() discovers the capability via dynamic_cast and stores
/// the blob, so checkpoint/resume of a streamed run re-attaches generator
/// state instead of replaying the whole prefix.  Providers that are pure
/// functions of the round index (GraphSequence, StaticNetwork) do not need
/// it: rebuilding them from the spec's seed is already exact.
class TraceStateSource {
 public:
  virtual ~TraceStateSource() = default;

  /// Serializes everything needed to continue synthesis from the current
  /// frontier with the exact draw sequence of an uninterrupted run.
  virtual void save_trace_state(ByteWriter& w) const = 0;

  /// Re-attaches state saved by save_trace_state to a freshly built
  /// identical provider.  Throws IoError on shape mismatch.
  virtual void restore_trace_state(ByteReader& r) = 0;
};

/// Graph (de)serialization for trace-state blobs: node count + sorted edge
/// list.  load_graph requires the stored node count to equal the caller's
/// expectation (checked before any allocation, so corrupt counts cannot
/// trigger huge zero-fills) and validates edge endpoints against it.
void save_graph(ByteWriter& w, const Graph& g);
Graph load_graph(ByteReader& r, std::size_t expected_nodes);

/// A dynamic network backed by an explicit, precomputed list of rounds.
/// Rounds past the end repeat the final graph, which matches the models'
/// convention that a trace can be extended arbitrarily (and lets
/// algorithms run past a generator's nominal horizon).
class GraphSequence final : public DynamicNetwork {
 public:
  explicit GraphSequence(std::vector<Graph> rounds);

  std::size_t node_count() const override { return n_; }
  const Graph& graph_at(Round r) override;

  std::size_t round_count() const { return rounds_.size(); }
  const std::vector<Graph>& rounds() const { return rounds_; }

  /// Appends one more round (used by incremental generators and tests).
  void push_back(Graph g);

 private:
  std::vector<Graph> rounds_;
  std::size_t n_;
};

/// Base for lazily synthesised dynamic networks: a generator produces
/// round graphs in order and only the last `window` realized rounds stay
/// resident in a ring buffer.  graph_at honours the GraphSequence
/// contract exactly — including the repeat-final-round convention past the
/// nominal horizon — so streaming and materialized providers are
/// observationally interchangeable.
///
/// Access pattern and cost:
///   - forward, monotone access (the engine's round loop) is O(1) ring
///     lookups plus one synthesize_next() per new round;
///   - access behind the ring window triggers a deterministic replay from
///     round 0 (reset_generator() + re-synthesis).  Replays are counted in
///     rewinds() so tests and tools can assert the expected access
///     pattern; certification passes that need free random access should
///     materialize() first.
///
/// Derived classes implement synthesize_next()/reset_generator() (and the
/// generator-state hooks for checkpointing) and keep ALL evolving state in
/// their generator members: the base owns the ring and the frontier.
class StreamingNetwork : public DynamicNetwork, public TraceStateSource {
 public:
  /// Engine and FaultyNetwork hold a round's graph reference only for that
  /// round, but a window of 2 keeps the previous round valid as well,
  /// which sliding-window consumers (and debuggers) rely on.
  static constexpr std::size_t kDefaultWindow = 2;

  std::size_t node_count() const override { return n_; }
  const Graph& graph_at(Round r) override;

  /// Nominal horizon Γ: rounds at or past it repeat the final round's
  /// graph (same convention as GraphSequence::graph_at).
  std::size_t round_count() const { return horizon_; }

  /// Ring capacity W: how many realized rounds stay resident.
  std::size_t window() const { return ring_.size(); }

  /// Next round the generator would synthesise (realized rounds are
  /// exactly [frontier - min(frontier, W), frontier)).
  Round frontier() const { return frontier_; }

  /// Number of replays-from-zero forced by accesses behind the window.
  std::size_t rewinds() const { return rewinds_; }

  // TraceStateSource: frontier + the derived generator's state.  The ring
  // itself is NOT serialized — the first post-restore graph_at(frontier)
  // resynthesises forward, and earlier rounds replay deterministically.
  void save_trace_state(ByteWriter& w) const final;
  void restore_trace_state(ByteReader& r) final;

 protected:
  /// `horizon` is the nominal trace length Γ (>= 1); `window` the ring
  /// capacity (>= 1, clamped to the horizon).
  StreamingNetwork(std::size_t nodes, std::size_t horizon,
                   std::size_t window);

  /// Produces the graph of round frontier() and advances the generator's
  /// internal state by exactly one round.  Called with strictly
  /// monotonically increasing rounds between reset_generator() calls.
  virtual Graph synthesize_next() = 0;

  /// Rewinds the generator to its pre-round-0 state (re-seeding RNG
  /// streams, resetting chain state) so synthesis can replay from the
  /// start.  Must reproduce the original draw sequence exactly.
  virtual void reset_generator() = 0;

  /// Serializes the generator's evolving state (RNG words, chain state,
  /// positions) so a restored provider continues the exact sequence.
  virtual void save_generator_state(ByteWriter& w) const = 0;
  virtual void load_generator_state(ByteReader& r) = 0;

 private:
  const Graph& ensure(Round r);

  std::size_t n_;
  std::size_t horizon_;
  Round frontier_ = 0;
  /// First round that may be served from the ring: rounds in
  /// [max(resident_begin_, frontier_ - W), frontier_) are resident.
  /// Normally 0 (the window condition dominates); a restore sets it to the
  /// restored frontier, because the ring is not serialized.
  Round resident_begin_ = 0;
  std::size_t rewinds_ = 0;
  std::vector<Graph> ring_;  ///< slot for round r is ring_[r % window()]
};

/// Default budget for materialize(): generous enough for every in-repo
/// experiment at n <= a few thousand, small enough that an accidental
/// freeze of an n=10^5 long-horizon trace fails with a diagnostic instead
/// of OOM-ing the host.
inline constexpr std::size_t kDefaultMaterializeBudget =
    std::size_t{4} * 1024 * 1024 * 1024;

/// Estimated resident bytes of one realized round graph (CSR offsets and
/// neighbour rows) — the unit of materialize()'s budget check.
std::size_t estimated_graph_bytes(std::size_t nodes, std::size_t edges);

/// Copies the first `rounds` rounds of `net` into an explicit trace.  Used
/// to freeze the *realized* topology of a lazy or decorated network (e.g. a
/// FaultyNetwork) so it can be replayed — by the assumption monitor, by a
/// hierarchy maintainer — without re-deriving it per query.
///
/// Freezing is the explicit opt-in back into O(Γ·n) residency, so it is
/// budget-guarded: if `rounds` times the estimated footprint of the first
/// realized round exceeds `byte_budget`, a PreconditionError explains the
/// estimate and points at the streaming alternative.  Pass a larger budget
/// to override deliberately.
GraphSequence materialize(DynamicNetwork& net, std::size_t rounds,
                          std::size_t byte_budget = kDefaultMaterializeBudget);

/// A static network presented through the dynamic interface (every round
/// is the same graph) — the degenerate case used by sanity tests.
class StaticNetwork final : public DynamicNetwork {
 public:
  explicit StaticNetwork(Graph g) : g_(std::move(g)) {}

  std::size_t node_count() const override { return g_.node_count(); }
  const Graph& graph_at(Round) override { return g_; }

 private:
  Graph g_;
};

}  // namespace hinet
