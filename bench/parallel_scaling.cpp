// Execution-policy scaling benchmark.
//
// Runs a fixed repetition batch of one scenario under every ExecutionPolicy
// — serial, and threaded at several worker counts — checks that every run
// reproduces the serial statistics exactly (the runner's core contract),
// and reports wall time, throughput and speedup per policy.  A shared host
// makes one timing of a policy meaningless (threaded speedups have read
// anywhere from 1.5x to 4.4x across runs of the same command), so the whole
// policy list is timed --trials times, interleaved, and each point reports
// the median and interquartile range of its wall time and of its speedup
// over the serial run of the same trial.
// Results go to stdout and, with --out, to a BENCH_*.json file for the
// repo's record of measured numbers.
#include "common.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <optional>
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
  const auto trials_arg = args.get_int(
      "trials", 5, "timings per policy (median and IQR are reported)");
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
    if (trials_arg < 1) {
      std::cerr << "--trials must be at least 1\n";
      std::exit(2);
    }
    const auto trials = static_cast<std::size_t>(trials_arg);
    std::cout << "=== Execution policy scaling (kHiNetInterval, n0=" << nodes
              << ", reps=" << reps << ", trials=" << trials
              << ", hardware_concurrency=" << hw << ") ===\n\n";

    struct Point {
      std::string label;
      ExecutionPolicy policy;
      std::vector<double> seconds;  ///< one wall time per trial
      std::vector<double> speedup;  ///< serial wall / this wall, per trial
      bool identical = true;
    };
    std::vector<Point> points;
    points.push_back({"serial", ExecutionPolicy::serial(), {}, {}, true});
    for (std::size_t jobs = 1; jobs <= max_jobs; jobs *= 2) {
      points.push_back({"threaded j=" + std::to_string(jobs),
                        ExecutionPolicy::threaded(jobs), {}, {}, true});
    }

    // Every trial times the whole policy list in order, so load that comes
    // and goes on the host lands on all policies of a trial alike; the
    // serial run of each trial is that trial's speedup reference.
    std::optional<AggregateResult> reference;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      for (Point& p : points) {
        const AggregateResult agg =
            run_experiment(factory, ExperimentOptions{reps, seed, p.policy});
        if (!reference) reference = agg;
        p.identical = p.identical && agg.same_statistics(*reference);
        p.seconds.push_back(agg.timing.wall_seconds);
      }
      const double serial_s = points.front().seconds.back();
      for (Point& p : points) {
        const double s = p.seconds.back();
        p.speedup.push_back(s > 0.0 ? serial_s / s : 0.0);
      }
    }

    struct Quartiles {
      double q1, median, q3;
    };
    const auto quartiles = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return Quartiles{percentile_sorted(v, 0.25), percentile_sorted(v, 0.5),
                       percentile_sorted(v, 0.75)};
    };
    const auto iqr_text = [](const Quartiles& q) {
      std::ostringstream os;
      os << std::setprecision(3) << q.q1 << "-" << q.q3;
      return os.str();
    };
    TextTable t({"policy", "wall s (median)", "wall s IQR", "runs/s",
                 "speedup (median)", "speedup IQR", "stats identical"});
    for (const Point& p : points) {
      const Quartiles sec = quartiles(p.seconds);
      const Quartiles up = quartiles(p.speedup);
      t.add(p.label, sec.median, iqr_text(sec),
            static_cast<double>(reps) / sec.median, up.median, iqr_text(up),
            p.identical ? "yes" : "NO");
    }
    std::cout << t;
    std::cout << "\nThreaded speedups above 1 require free hardware threads. "
                 "Every policy must\nreproduce the serial statistics "
                 "bit-for-bit.\n";

    if (!out_path.empty()) {
      const auto json_list = [](const std::vector<double>& v) {
        std::ostringstream os;
        os << "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
          os << (i > 0 ? ", " : "") << v[i];
        }
        os << "]";
        return os.str();
      };
      const Quartiles serial = quartiles(points.front().seconds);
      std::ofstream f(out_path);
      f << "{\n";
      f << "  \"bench\": \"parallel_runner_scaling\",\n";
      f << "  \"scenario\": \"kHiNetInterval\",\n";
      f << "  \"nodes\": " << nodes << ",\n";
      f << "  \"reps\": " << reps << ",\n";
      f << "  \"trials\": " << trials << ",\n";
      f << "  \"base_seed\": " << seed << ",\n";
      f << "  \"hardware_concurrency\": " << hw << ",\n";
      f << "  \"serial_seconds_median\": " << serial.median << ",\n";
      f << "  \"serial_runs_per_second_median\": "
        << static_cast<double>(reps) / serial.median << ",\n";
      f << "  \"points\": [\n";
      for (std::size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        const Quartiles sec = quartiles(p.seconds);
        const Quartiles up = quartiles(p.speedup);
        f << "    {\"policy\": \"" << to_string(p.policy.mode)
          << "\", \"jobs\": " << p.policy.effective_jobs()
          << ", \"seconds_median\": " << sec.median
          << ", \"seconds_iqr\": [" << sec.q1 << ", " << sec.q3 << "]"
          << ", \"runs_per_second_median\": "
          << static_cast<double>(reps) / sec.median
          << ", \"speedup_median\": " << up.median
          << ", \"speedup_iqr\": [" << up.q1 << ", " << up.q3 << "]"
          << ", \"seconds\": " << json_list(p.seconds)
          << ", \"speedup\": " << json_list(p.speedup)
          << ", \"stats_identical\": " << (p.identical ? "true" : "false")
          << "}" << (i + 1 < points.size() ? "," : "") << "\n";
      }
      f << "  ],\n";
      // The record of measured numbers carries its own interpretation so a
      // regenerated file never loses it.
      std::ostringstream measured;
      measured << "Measured with hardware_concurrency=" << hw << ", median "
               << "(IQR) speedup over the same trial's serial run across "
               << trials << " trials:";
      for (std::size_t i = 1; i < points.size(); ++i) {
        const Quartiles up = quartiles(points[i].speedup);
        measured << (i > 1 ? "," : "") << " " << points[i].label << " "
                 << up.median << "x (" << up.q1 << "-" << up.q3 << ")";
      }
      measured << ".";
      f << "  \"notes\": [\n"
        << "    \"" << measured.str() << "\",\n"
        << "    \"Threaded speedup needs free hardware threads; on a shared "
           "host it reads flat or noisy, which the IQR shows. Only the "
           "stats_identical column is a contract.\",\n"
        << "    \"Reproduce: build/bench/parallel_scaling --reps=" << reps
        << " --nodes=" << nodes << " --max-jobs=" << max_jobs
        << " --trials=" << trials << " --out=BENCH_parallel_runner.json\"\n"
        << "  ]\n}\n";
      std::cout << "\nJSON written to " << out_path << '\n';
    }
  });
}
