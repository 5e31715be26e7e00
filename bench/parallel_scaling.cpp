// Execution-policy scaling benchmark.
//
// Runs a fixed repetition batch of one scenario under every ExecutionPolicy
// — serial, and threaded at several worker counts — checks that every run
// reproduces the serial statistics exactly (the runner's core contract),
// and reports wall time, throughput and speedup per policy.
// Results go to stdout and, with --out, to a BENCH_*.json file for the
// repo's record of measured numbers.
#include "common.hpp"

#include <fstream>
#include <sstream>
#include <thread>

using namespace hinet;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const auto reps = static_cast<std::size_t>(
      args.get_int("reps", 16, "repetitions in the batch"));
  const auto seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1, "base seed"));
  const auto nodes = static_cast<std::size_t>(
      args.get_int("nodes", 100, "network size of the workload"));
  const auto max_jobs = static_cast<std::size_t>(
      args.get_int("max-jobs", 8, "largest worker count to measure"));
  const std::string out_path = args.get_string(
      "out", "", "write BENCH json to this path (empty = stdout only)");

  return bench::run_main(args, "execution policy scaling", [&] {
    ScenarioConfig cfg;
    cfg.nodes = nodes;
    cfg.heads = std::max<std::size_t>(2, nodes / 8);
    cfg.k = 8;
    cfg.alpha = 2;
    cfg.hop_l = 2;
    cfg.reaffiliation_prob = 0.1;
    const SpecFactory factory =
        scenario_factory(Scenario::kHiNetInterval, cfg);

    const unsigned hw = std::thread::hardware_concurrency();
    std::cout << "=== Execution policy scaling (kHiNetInterval, n0=" << nodes
              << ", reps=" << reps << ", hardware_concurrency=" << hw
              << ") ===\n\n";

    const AggregateResult serial = run_experiment(
        factory, ExperimentOptions{reps, seed, ExecutionPolicy::serial()});

    struct Point {
      std::string label;
      std::string mode;
      std::size_t jobs;
      double seconds;
      double runs_per_second;
      double speedup;
      bool identical;
    };
    std::vector<Point> points;
    TextTable t({"policy", "wall s", "runs/s", "speedup", "stats identical"});
    const auto measure = [&](const std::string& label,
                             const ExecutionPolicy& policy) {
      const AggregateResult agg =
          run_experiment(factory, ExperimentOptions{reps, seed, policy});
      Point p;
      p.label = label;
      p.mode = to_string(policy.mode);
      p.jobs = policy.effective_jobs();
      p.seconds = agg.timing.wall_seconds;
      p.runs_per_second = agg.timing.runs_per_second;
      p.speedup = agg.timing.wall_seconds > 0.0
                      ? serial.timing.wall_seconds / agg.timing.wall_seconds
                      : 0.0;
      p.identical = agg.same_statistics(serial);
      t.add(p.label, p.seconds, p.runs_per_second, p.speedup,
            p.identical ? "yes" : "NO");
      points.push_back(p);
    };

    measure("serial", ExecutionPolicy::serial());
    for (std::size_t jobs = 1; jobs <= max_jobs; jobs *= 2) {
      measure("threaded j=" + std::to_string(jobs),
              ExecutionPolicy::threaded(jobs));
    }
    std::cout << t;
    std::cout << "\nSerial reference: " << serial.timing.wall_seconds
              << " s (" << serial.timing.runs_per_second << " runs/s).\n"
              << "Threaded speedups above 1 require free hardware threads. "
                 "Every policy must\nreproduce the serial statistics "
                 "bit-for-bit.\n";

    if (!out_path.empty()) {
      std::ofstream f(out_path);
      f << "{\n";
      f << "  \"bench\": \"parallel_runner_scaling\",\n";
      f << "  \"scenario\": \"kHiNetInterval\",\n";
      f << "  \"nodes\": " << nodes << ",\n";
      f << "  \"reps\": " << reps << ",\n";
      f << "  \"base_seed\": " << seed << ",\n";
      f << "  \"hardware_concurrency\": " << hw << ",\n";
      f << "  \"serial_seconds\": " << serial.timing.wall_seconds << ",\n";
      f << "  \"serial_runs_per_second\": " << serial.timing.runs_per_second
        << ",\n";
      f << "  \"points\": [\n";
      for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        f << "    {\"policy\": \"" << p.mode << "\", \"jobs\": " << p.jobs
          << ", \"seconds\": " << p.seconds
          << ", \"runs_per_second\": " << p.runs_per_second
          << ", \"speedup\": " << p.speedup << ", \"stats_identical\": "
          << (p.identical ? "true" : "false") << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
      }
      f << "  ],\n";
      // The record of measured numbers carries its own interpretation so a
      // regenerated file never loses it.
      std::ostringstream measured;
      measured << "Measured with hardware_concurrency=" << hw << ":";
      for (std::size_t i = 1; i < points.size(); ++i) {
        measured << (i > 1 ? "," : "") << " " << points[i].label << " "
                 << points[i].speedup << "x";
      }
      measured << " serial runs/s.";
      f << "  \"notes\": [\n"
        << "    \"" << measured.str() << "\",\n"
        << "    \"Threaded speedup needs free hardware threads; on a shared "
           "host it reads flat or noisy. Only the stats_identical column "
           "is a contract.\"\n"
        << "  ]\n}\n";
      std::cout << "\nJSON written to " << out_path << '\n';
    }
  });
}
