// Engine delivery hot-path benchmark.
//
// Measures the per-round delivery machinery itself (send step, channel,
// inbox construction, receive step, completion tracking) with the most
// delivery-heavy workload in the repo: KLO full-broadcast flooding on a
// (1, L)-HiNet trace, where every node transmits its whole token set every
// round.  Trace generation and process construction happen outside the
// timed region, so rounds/sec and delivered-tokens/sec reflect Engine::run
// alone.
//
// Two trace modes feed the same workload:
//   - materialized: the whole GraphSequence is resident (the historical
//     path, memory O(n · Γ)) — kept for the small sizes so throughput
//     stays comparable with the pre-streaming baseline;
//   - streaming: rounds are synthesized on demand through make_hinet_stream
//     with a 2-round ring, memory O(n · W) — the only mode that reaches
//     n = 10^4 and 10^5 (a materialized trace at n = 10^5 × 400 rounds
//     would need several GiB; CI pins this with an address-space rlimit).
// Each point also reports how much of the timed run was trace synthesis:
// before every Engine::step() the bench calls graph_at(r) on the spec's
// network itself and times that call, so the step that follows reads round
// r from the ring (streaming) or the sequence (materialized) at no cost.
// synthesis_share is that time over the run's wall time, measured without
// the tracing hooks of perfbench, so it is the untraced share.
// The memory columns report the process RSS sampled right after the timed
// run with the spec still alive (resident, attributable to the trace +
// engine) and the process-lifetime peak (monotone; points run
// smallest-first so each reading is attributable).
//
// Results go to stdout and, with --out, to a BENCH_*.json file;
// BENCH_engine_hotpath.json keeps the streaming-vs-materialized comparison
// on record.
#include "common.hpp"

#include <chrono>
#include <cstdlib>
#include <numeric>

#include "baseline/klo.hpp"
#include "core/hinet_generator.hpp"
#include "sim/engine.hpp"

using namespace hinet;

namespace {

struct Point {
  std::size_t nodes = 0;
  std::size_t rounds = 0;
  bool streaming = false;
  double seconds = 0.0;             ///< best-of-reps wall time of the run
  double synthesis_ms = 0.0;        ///< graph_at time within that run
  double synthesis_share = 0.0;     ///< synthesis_ms / seconds
  double rounds_per_second = 0.0;
  std::size_t delivered_tokens = 0; ///< Σ per_node_rx_tokens of one run
  double delivered_tokens_per_second = 0.0;
  std::size_t tokens_sent = 0;
  std::size_t resident_bytes = 0;   ///< RSS after the run, spec alive
  std::size_t peak_rss_bytes = 0;   ///< process high-water mark after point
  double bytes_per_node = 0.0;      ///< resident_bytes / nodes
};

SimulationSpec build_spec(std::size_t nodes, std::size_t rounds, std::size_t k,
                          std::uint64_t seed, bool streaming) {
  ScenarioConfig cfg;
  cfg.nodes = nodes;
  cfg.heads = std::max<std::size_t>(2, nodes / 8);
  cfg.k = k;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  HiNetConfig gen = scenario_generator(Scenario::kKloOne, cfg, seed);
  gen.phases = rounds;  // shorten the trace to the measured horizon

  Rng assign_rng(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
  const auto initial =
      assign_tokens(nodes, k, AssignmentMode::kDistinctRandom, assign_rng);

  KloFloodParams p;
  p.k = k;
  p.rounds = rounds;

  SimulationSpec spec;
  if (streaming) {
    HiNetStream stream = make_hinet_stream(gen);
    spec.network = std::move(stream.topology);
  } else {
    HiNetTrace trace = make_hinet_trace(gen);
    spec.network =
        std::make_unique<GraphSequence>(std::move(trace.ctvg.topology()));
  }
  spec.processes = make_klo_flood_processes(initial, p);
  spec.engine.max_rounds = rounds;
  spec.engine.stop_when_complete = false;
  return spec;
}

Point measure(std::size_t nodes, std::size_t rounds, std::size_t k,
              std::uint64_t seed, std::size_t reps, bool streaming) {
  Point pt;
  pt.nodes = nodes;
  pt.rounds = rounds;
  pt.streaming = streaming;
  pt.seconds = -1.0;
  for (std::size_t rep = 0; rep < reps + 1; ++rep) {
    SimulationSpec spec = build_spec(nodes, rounds, k, seed, streaming);
    // The engine takes the spec; the network object itself stays put, so
    // this pointer can synthesize each round ahead of the step.
    DynamicNetwork* const net = spec.network.get();
    const EngineConfig cfg = spec.engine;
    Engine engine(std::move(spec));
    double synthesis = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    engine.start(cfg);
    for (;;) {
      if (engine.current_round() < rounds) {
        const auto s0 = std::chrono::steady_clock::now();
        (void)net->graph_at(engine.current_round());
        synthesis += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - s0)
                         .count();
      }
      if (!engine.step()) break;
    }
    const SimMetrics m = engine.finish();
    const auto t1 = std::chrono::steady_clock::now();
    // Sample memory while the engine (and thus the trace) is still alive,
    // so the reading reflects this configuration's working set.
    pt.resident_bytes = bench::current_rss_bytes();
    pt.peak_rss_bytes = bench::peak_rss_bytes();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0) continue;  // warm-up
    if (pt.seconds < 0.0 || secs < pt.seconds) {
      pt.seconds = secs;
      pt.synthesis_ms = 1e3 * synthesis;
    }
    pt.delivered_tokens = std::accumulate(m.per_node_rx_tokens.begin(),
                                          m.per_node_rx_tokens.end(),
                                          std::size_t{0});
    pt.tokens_sent = m.tokens_sent;
    HINET_ENSURE(m.rounds_executed == rounds, "bench ran short");
  }
  pt.rounds_per_second = static_cast<double>(rounds) / pt.seconds;
  pt.synthesis_share = pt.synthesis_ms / (1e3 * pt.seconds);
  pt.delivered_tokens_per_second =
      static_cast<double>(pt.delivered_tokens) / pt.seconds;
  pt.bytes_per_node = static_cast<double>(pt.resident_bytes) /
                      static_cast<double>(nodes);
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto reps = static_cast<std::size_t>(
      args.get_int("reps", 3, "timed repetitions per size (best is kept)"));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1, "trace seed"));
  const auto k = static_cast<std::size_t>(
      args.get_int("k", 16, "token universe size"));
  const auto only_nodes = static_cast<std::size_t>(args.get_int(
      "nodes", 0, "measure a single network size (0 = the full sweep)"));
  const auto only_rounds = static_cast<std::size_t>(args.get_int(
      "rounds", 0, "rounds for --nodes (0 = min(nodes-1, 150))"));
  const std::string mode = args.get_string(
      "mode", "both",
      "trace mode: both | materialized | streaming (with --nodes the "
      "default is streaming)");
  const std::string out_path = args.get_string(
      "out", "", "write BENCH json to this path (empty = stdout only)");

  return bench::run_main(args, "engine delivery hot-path throughput", [&] {
    struct Size {
      std::size_t nodes;
      std::size_t rounds;
      bool streaming;
    };
    const bool want_mat = mode == "both" || mode == "materialized";
    const bool want_stream = mode == "both" || mode == "streaming";
    if (!want_mat && !want_stream) {
      std::cerr << "unknown --mode: " << mode
                << " (expected both | materialized | streaming)\n";
      std::exit(2);
    }
    std::vector<Size> sizes;
    if (only_nodes != 0) {
      const std::size_t r =
          only_rounds != 0
              ? only_rounds
              : std::min(only_nodes - 1, static_cast<std::size_t>(150));
      // A single explicit size defaults to the streaming path (the mode
      // that scales); ask for --mode=materialized to compare.
      sizes.push_back({only_nodes, r, mode != "materialized"});
    } else {
      // Smallest-first so the monotone peak-RSS column stays attributable;
      // the large-n points exist only on the streaming path.
      if (want_mat) {
        sizes.push_back({100, 99, false});
        sizes.push_back({400, 150, false});
        sizes.push_back({1000, 120, false});
      }
      if (want_stream) {
        sizes.push_back({1000, 120, true});  // cross-mode comparison point
        sizes.push_back({10000, 100, true});
        sizes.push_back({100000, 50, true});
      }
    }

    std::cout << "=== Engine delivery hot path (KLO flood on (1, L)-HiNet, "
                 "k=" << k << ", seed=" << seed << ") ===\n\n";
    TextTable t({"n", "rounds", "mode", "wall s", "rounds/s", "synth ms",
                 "synth share", "delivered tok/s", "rss MiB", "B/node"});
    std::vector<Point> points;
    for (const Size& s : sizes) {
      const Point p = measure(s.nodes, s.rounds, k, seed, reps, s.streaming);
      t.add(p.nodes, p.rounds, p.streaming ? "streaming" : "materialized",
            p.seconds, p.rounds_per_second, p.synthesis_ms,
            p.synthesis_share, p.delivered_tokens_per_second,
            static_cast<double>(p.resident_bytes) / (1024.0 * 1024.0),
            p.bytes_per_node);
      points.push_back(p);
    }
    std::cout << t;
    std::cout << "\nmemory: rss MiB samples the process RSS right after the "
                 "timed run with the trace\nstill alive; on the streaming "
                 "path it stays O(n * window) regardless of rounds,\non the "
                 "materialized path it grows with n * rounds.\n";

    if (!out_path.empty()) {
      std::ofstream f(out_path);
      f << "{\n";
      f << "  \"bench\": \"engine_hotpath\",\n";
      f << "  \"workload\": \"klo_flood_on_hinet_one_trace\",\n";
      f << "  \"k\": " << k << ",\n";
      f << "  \"seed\": " << seed << ",\n";
      f << "  \"reps\": " << reps << ",\n";
      f << "  \"notes\": \"resident_bytes = process RSS sampled after the "
           "timed run with the spec alive; peak_rss_bytes = process "
           "high-water mark (monotone, points run smallest-first). "
           "Streaming points hold only a 2-round ring, so resident_bytes "
           "is O(n) while materialized grows O(n*rounds). synthesis_ms = "
           "time in graph_at(r), called on the spec's network before each "
           "Engine::step() (which then hits the ring); synthesis_share = "
           "synthesis_ms over the run's wall time.\",\n";
      f << "  \"points\": [\n";
      for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        f << "    {\"nodes\": " << p.nodes << ", \"rounds\": " << p.rounds
          << ", \"mode\": \"" << (p.streaming ? "streaming" : "materialized")
          << "\", \"seconds\": " << p.seconds
          << ", \"rounds_per_second\": " << p.rounds_per_second
          << ", \"synthesis_ms\": " << p.synthesis_ms
          << ", \"synthesis_share\": " << p.synthesis_share
          << ", \"delivered_tokens_per_second\": "
          << p.delivered_tokens_per_second
          << ", \"tokens_sent\": " << p.tokens_sent
          << ", \"resident_bytes\": " << p.resident_bytes
          << ", \"peak_rss_bytes\": " << p.peak_rss_bytes
          << ", \"bytes_per_node\": " << p.bytes_per_node << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
      }
      f << "  ]\n}\n";
      std::cout << "\nJSON written to " << out_path << '\n';
    }
  });
}
