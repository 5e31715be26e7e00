// flood_stream: KLO full-broadcast flooding on a streaming (1, L)-HiNet
// trace (the engine_hotpath streaming point).  Every node sends its whole
// token set every round, so trace synthesis, send, scatter and receive do
// nearly all the work; there is no channel, fault or service layer.
//
// One item is one round; one iteration builds a fresh spec (set-up) and
// runs it to its full schedule round by round.
#include <bit>
#include <numeric>
#include <optional>
#include <sstream>

#include "analysis/assignment.hpp"
#include "analysis/scenarios.hpp"
#include "baseline/klo.hpp"
#include "core/hinet_generator.hpp"
#include "expected.hpp"
#include "sim/engine.hpp"
#include "tracing.hpp"

namespace perfbench {
namespace {

using namespace hinet;

struct FloodParams {
  std::size_t nodes = 10000;
  std::size_t rounds = 100;
  std::size_t k = 16;
};

struct FloodInputs {
  HiNetConfig gen;
  std::vector<TokenSet> initial;
};

FloodInputs make_inputs(const FloodParams& p, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.nodes = p.nodes;
  cfg.heads = std::max<std::size_t>(2, p.nodes / 8);
  cfg.k = p.k;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  FloodInputs in;
  in.gen = scenario_generator(Scenario::kKloOne, cfg, seed);
  in.gen.phases = p.rounds;  // the trace's horizon is the measured run
  Rng assign_rng(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  in.initial =
      assign_tokens(p.nodes, p.k, AssignmentMode::kDistinctRandom, assign_rng);
  return in;
}

SimulationSpec build_spec(const FloodParams& p, const FloodInputs& in) {
  KloFloodParams kp;
  kp.k = p.k;
  kp.rounds = p.rounds;
  SimulationSpec spec;
  spec.network = std::move(make_hinet_stream(in.gen).topology);
  spec.processes = make_klo_flood_processes(in.initial, kp);
  spec.engine.max_rounds = p.rounds;
  spec.engine.stop_when_complete = false;
  return spec;
}

/// Independent reference: the same flood as bitmask arithmetic over a
/// second stream of the same trace.  Each round every node with a
/// non-empty set broadcasts all of it; every neighbour hears it; sets
/// merge after the round.
FloodTotals reference_flood(const FloodParams& p, const FloodInputs& in) {
  const std::size_t n = p.nodes;
  std::vector<std::uint64_t> known(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (TokenId t : in.initial[v].to_vector()) known[v] |= 1ULL << t;
  }
  std::vector<std::uint64_t> next(n, 0);
  std::unique_ptr<DynamicNetwork> net = make_hinet_stream(in.gen).topology;
  FloodTotals out;
  for (Round r = 0; r < p.rounds; ++r) {
    const Graph& g = net->graph_at(r);
    next = known;
    for (NodeId v = 0; v < n; ++v) {
      if (known[v] == 0) continue;
      const auto cost = static_cast<std::uint64_t>(std::popcount(known[v]));
      out.tokens_sent += cost;
      for (NodeId u : g.neighbors(v)) {
        out.delivered += cost;
        next[u] |= known[v];
      }
    }
    known.swap(next);
  }
  return out;
}

FloodTotals totals_of(const SimMetrics& m) {
  FloodTotals t;
  t.tokens_sent = m.tokens_sent;
  t.delivered = std::accumulate(m.per_node_rx_tokens.begin(),
                                m.per_node_rx_tokens.end(), std::uint64_t{0});
  return t;
}

/// Exact per-iteration counts of a traced iteration.
struct FloodCounts {
  FloodTotals totals;
  std::uint64_t packets = 0;
  std::uint64_t synthesis_allocs = 0;
  std::uint64_t send_allocs = 0;
  std::uint64_t receive_allocs = 0;
  std::uint64_t run_allocs = 0;  ///< start() through finish(), all layers
  friend bool operator==(const FloodCounts&, const FloodCounts&) = default;
};

struct Iteration {
  double setup_s = 0;
  double run_ms = 0;
  std::uint64_t run_allocs = 0;
  std::size_t rss = 0;
  std::vector<double> round_ms;
  SimMetrics metrics;
};

Iteration run_once(const FloodParams& p, const FloodInputs& in,
                   Tracer* tracer) {
  Iteration it;
  const auto t0 = Clock::now();
  SimulationSpec spec = build_spec(p, in);
  const EngineConfig cfg = spec.engine;
  if (tracer != nullptr) spec = wrap_spec(std::move(spec), *tracer);
  Engine engine(std::move(spec));
  const auto t1 = Clock::now();
  it.setup_s = std::chrono::duration<double>(t1 - t0).count();

  it.round_ms.reserve(p.rounds);
  const std::uint64_t allocs0 = allocation_count();
  engine.start(cfg);
  for (bool more = true; more;) {
    const auto s0 = Clock::now();
    more = engine.step();
    it.round_ms.push_back(ms_between(s0, Clock::now()));
  }
  it.metrics = engine.finish();
  it.run_allocs = allocation_count() - allocs0;
  it.run_ms = ms_between(t1, Clock::now());
  // Resident memory while the engine, and with it the trace ring and
  // every process, is still alive.
  it.rss = current_rss_bytes();
  return it;
}

}  // namespace

WorkloadResult run_flood_stream(const Options& opt) {
  FloodParams p;
  if (opt.smoke) {
    p.nodes = 600;
    p.rounds = 30;
  }
  WorkloadResult res;
  const FloodInputs in = make_inputs(p, opt.seed);

  const FloodTotals ref = reference_flood(p, in);
  if (!opt.smoke) {
    if (const ExpectedSeed* e = expected_for_seed(opt.seed)) {
      res.check(e->flood == ref,
                "flood reference equals the values recorded for the seed");
    }
  }

  Samples samples;
  std::vector<double> traced_ms;
  Tracer tracer;
  double traced_run_ms = 0;
  std::uint64_t traced_allocs = 0;
  std::size_t traced_rounds = 0;
  std::optional<FloodCounts> first_counts;
  const auto budget_end =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::size_t i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    const Tracer before = tracer;
    Iteration it = run_once(p, in, traced ? &tracer : nullptr);
    const FloodTotals got = totals_of(it.metrics);
    std::ostringstream what;
    what << (traced ? "traced" : "untraced") << " flood iteration " << i
         << ": rounds " << it.metrics.rounds_executed << "/" << p.rounds
         << ", tokens_sent " << got.tokens_sent << " (expect "
         << ref.tokens_sent << "), delivered " << got.delivered
         << " (expect " << ref.delivered << ")";
    res.check(it.metrics.rounds_executed == p.rounds &&
                  got.tokens_sent == ref.tokens_sent &&
                  got.delivered == ref.delivered,
              what.str());
    if (traced) {
      traced_ms.push_back(it.run_ms);
      traced_run_ms += it.run_ms;
      traced_allocs += it.run_allocs;
      traced_rounds += p.rounds;
      const auto delta = [&](Layer l) {
        return tracer[l].allocs - before[l].allocs;
      };
      const FloodCounts counts{got,
                               it.metrics.packets_sent,
                               delta(Layer::kTopology),
                               delta(Layer::kSend),
                               delta(Layer::kReceive),
                               it.run_allocs};
      // Every traced iteration must repeat the first one's exact counts.
      if (!first_counts) first_counts = counts;
      res.check(counts == *first_counts,
                "traced iteration repeats the exact counts");
    } else {
      samples.add(it.run_ms, std::move(it.round_ms), {it.setup_s},
                  static_cast<double>(it.rss) / static_cast<double>(p.nodes));
    }
    const bool enough = !opt.trace || !traced_ms.empty();
    if (enough && i >= 2 && Clock::now() >= budget_end) break;
  }

  res.e2e = samples.summarize();
  if (first_counts) {
    const FloodCounts& c = *first_counts;
    res.counters = {{"tokens_sent", c.totals.tokens_sent},
                    {"delivered_tokens", c.totals.delivered},
                    {"packets", c.packets},
                    {"synthesis_allocs", c.synthesis_allocs},
                    {"send_allocs", c.send_allocs},
                    {"receive_allocs", c.receive_allocs},
                    {"run_allocs", c.run_allocs}};
  }
  if (opt.trace) {
    fill_engine_layers(tracer, traced_run_ms, traced_allocs,
                       static_cast<double>(traced_rounds), res);
    res.layers.overhead_frac = overhead_frac(traced_ms, samples.iteration_ms);
  }
  std::ostringstream note;
  note << "flood_stream: n=" << p.nodes << " k=" << p.k
       << " rounds=" << p.rounds
       << " iterations=" << samples.iteration_ms.size() << " untraced + "
       << traced_ms.size() << " traced; iteration ms:";
  for (double v : samples.iteration_ms) note << ' ' << static_cast<int>(v);
  res.notes.push_back(note.str());
  return res;
}

std::pair<std::uint64_t, std::uint64_t> record_flood_totals(
    std::uint64_t seed) {
  const FloodParams p;
  const Iteration it = run_once(p, make_inputs(p, seed), nullptr);
  const FloodTotals t = totals_of(it.metrics);
  return {t.tokens_sent, t.delivered};
}

}  // namespace perfbench
