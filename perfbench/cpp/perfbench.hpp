// Shared vocabulary of the benchmark: run options, the result record every
// workload returns, and small statistics helpers.
//
// Every workload follows the same shape: build its inputs from the seed,
// compute the reference outputs, then loop "one iteration" (a flood run, a
// sweep batch, a service pass) until the time budget is spent, checking
// each iteration's outputs.  With tracing on, untraced and traced
// iterations alternate so the tracing overhead is measured in the same
// process.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced problem sizes and a short budget: the benchmark's own test.
  bool smoke = false;
};

/// Per-layer figures of one workload (traced iterations only).  Every
/// field is 0 where the workload does not exercise the layer.
struct LayerReport {
  // Engine layers.  *_ms fields are milliseconds per item (round,
  // replicate, or job for the service); counts are per item unless
  // named per_round.
  double synthesis_ms = 0, synthesis_share = 0, synthesis_allocs = 0;
  double synthesis_rewinds = 0;
  double send_ms = 0, send_packets = 0, send_allocs = 0;
  double receive_ms = 0, receive_views = 0, receive_allocs = 0;
  double engine_ms = 0, engine_allocs = 0;
  double fault_ms = 0;
  double channel_ms = 0, channel_calls = 0, channel_kept_ratio = 0;
  // Replicate runner.
  double spec_build_ms = 0, run_ms = 0, aggregate_ms = 0;
  // Service and store.
  double pre_publish_ms = 0, simulate_ms = 0, ack_ms = 0;
  double intent_ms = 0, segment_ms = 0, index_ms = 0, commit_ms = 0;
  double fsyncs_per_job = 0, index_bytes_per_publish = 0;
  double serve_ms = 0, queue_bytes = 0;
  double submit_ms_p50 = 0, job_ms_p50 = 0, job_ms_p90 = 0;
  double overhead_frac = 0;
};

/// End-to-end figures of one workload (untraced iterations).
struct EndToEnd {
  double setup_s = 0;
  double items_per_s = 0;
  double item_ms_p50 = 0;
  /// Printed on a line of its own, not as a bounded metric: in a run that
  /// falls wholly in a slow phase the tail items keep slow costs, which on
  /// the reference host moved it by up to 41%.
  double item_ms_p90 = 0;
  double bytes_per_node = 0;
};

/// Raw end-to-end samples, one entry per untraced iteration.  Every
/// iteration of a run repeats the same work item for item (the same
/// rounds, replicates or queries, in the same order).
///
/// The reference host (4 vCPUs of a shared Intel Xeon under KVM) runs
/// other tenants' vCPUs beside this one: even a pure ALU loop swings up
/// to 2x, in phases that last from tens of milliseconds to a whole run,
/// and thread CPU time swings with it.  A median over a run inherits that
/// swing.  So each item's cost is its
/// fastest time over the run's iterations, which short items reach in the
/// quiet moments every run has; rate and latency percentiles are taken
/// over those per-item costs.  Set-up is read the same way: the fastest
/// of the run's set-ups, taken once per iteration.
struct Samples {
  std::vector<std::vector<double>> item_ms;  ///< per iteration, per item
  std::vector<double> iteration_ms;
  std::vector<double> setup_s;
  std::vector<double> bytes_per_node;

  void add(double iteration, std::vector<double> items,
           const std::vector<double>& setups, double bytes) {
    iteration_ms.push_back(iteration);
    item_ms.push_back(std::move(items));
    setup_s.insert(setup_s.end(), setups.begin(), setups.end());
    bytes_per_node.push_back(bytes);
  }
  EndToEnd summarize() const;
};

/// Tracing overhead: the fastest traced iteration against the fastest
/// untraced one.
double overhead_frac(const std::vector<double>& traced_ms,
                     const std::vector<double>& untraced_ms);

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  EndToEnd e2e;
  LayerReport layers;
  /// Exact counters that must repeat run to run (the smoke test compares
  /// them across two processes): name -> value.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  /// Records one checked operation.
  void check(bool ok, const std::string& what);
};

WorkloadResult run_flood_stream(const Options& opt);
WorkloadResult run_alg1_sweep(const Options& opt);
WorkloadResult run_fault_sweep(const Options& opt);
WorkloadResult run_service_drain(const Options& opt);

/// Output values of the full-size workloads at `seed`, for --record (see
/// expected.hpp): flood_stream's engine totals and the two sweeps' batch
/// digests.
std::pair<std::uint64_t, std::uint64_t> record_flood_totals(
    std::uint64_t seed);
std::uint64_t record_sweep_digest(std::uint64_t seed, bool faults);

// ── statistics ───────────────────────────────────────────────────────────

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Resident set size of this process, from /proc/self/statm.
std::size_t current_rss_bytes();

/// Directory for the benchmark's scratch files (service stores), relative
/// to the working directory, which is the checkout's root.
inline constexpr const char* kWorkDir = ".perfbench_work";

}  // namespace perfbench
