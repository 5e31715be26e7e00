#include "analysis/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

namespace hinet {

const char* to_string(ExecutionPolicy::Mode m) {
  switch (m) {
    case ExecutionPolicy::Mode::kSerial:
      return "serial";
    case ExecutionPolicy::Mode::kThreaded:
      return "threaded";
  }
  return "?";
}

std::size_t ExecutionPolicy::effective_jobs() const {
  if (!is_threaded()) return 1;
  return jobs == 0 ? default_jobs() : jobs;
}

ReplicateBatchError::ReplicateBatchError(std::vector<ReplicateFailure> failures)
    : std::runtime_error(format(failures)), failures_(std::move(failures)) {}

std::string ReplicateBatchError::format(
    const std::vector<ReplicateFailure>& failures) {
  std::ostringstream os;
  os << failures.size() << " replicate(s) failed:";
  for (const ReplicateFailure& f : failures) {
    os << "\n  replicate " << f.replicate << " (seed " << f.seed
       << "): " << f.message;
  }
  return os.str();
}

namespace {

// wall_ms is observability only — it is excluded from aggregate stats, never
// feeds simulation state, and the parallel runner stays byte-identical to
// serial regardless of timing.
// detlint-allow(banned-time): replicate wall-time is a bench-style timer
using Clock = std::chrono::steady_clock;

ReplicateResult run_one(const SpecFactory& factory, std::uint64_t seed) {
  const auto t0 = Clock::now();
  ReplicateResult out;
  out.metrics = run_simulation(factory(seed));
  out.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return out;
}

}  // namespace

std::size_t default_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::vector<ReplicateResult> run_replicates(const SpecFactory& factory,
                                            std::size_t repetitions,
                                            std::uint64_t base_seed,
                                            std::size_t jobs) {
  HINET_REQUIRE(repetitions >= 1, "need at least one repetition");
  HINET_REQUIRE(
      repetitions - 1 <= std::numeric_limits<std::uint64_t>::max() - base_seed,
      "replicate seed overflow: base_seed + repetitions - 1 wraps past "
      "2^64, which would alias replicates onto low seeds and correlate "
      "'independent' repetitions — lower the base seed or the repetition "
      "count");
  if (jobs == 0) jobs = default_jobs();
  std::vector<ReplicateResult> out(repetitions);

  // Failures are collected, never fail-fast: every replicate runs, each
  // writes only its own slot (or failure record), and the batch reports the
  // full failure list at the end.  One debugging cycle sees every bad seed.
  std::mutex failure_mutex;
  std::vector<ReplicateFailure> failures;
  auto run_slot = [&](std::size_t rep) {
    const std::uint64_t seed = replicate_seed(base_seed, rep);
    try {
      out[rep] = run_one(factory, seed);
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      failures.push_back(ReplicateFailure{rep, seed, e.what()});
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      failures.push_back(ReplicateFailure{rep, seed, "unknown exception"});
    }
  };

  if (jobs == 1 || repetitions == 1) {
    for (std::size_t rep = 0; rep < repetitions; ++rep) run_slot(rep);
  } else {
    // Fixed-size pool pulling replicate indices from a shared counter.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      while (true) {
        const std::size_t rep = next.fetch_add(1, std::memory_order_relaxed);
        if (rep >= repetitions) break;
        run_slot(rep);
      }
    };
    const std::size_t width = jobs < repetitions ? jobs : repetitions;
    std::vector<std::thread> pool;
    pool.reserve(width);
    for (std::size_t i = 0; i < width; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  if (!failures.empty()) {
    // Failure order depends on thread scheduling; report by replicate index
    // so the same failing batch always reads the same.
    std::sort(failures.begin(), failures.end(),
              [](const ReplicateFailure& a, const ReplicateFailure& b) {
                return a.replicate < b.replicate;
              });
    throw ReplicateBatchError(std::move(failures));
  }
  return out;
}

AggregateResult aggregate_replicates(const std::vector<ReplicateResult>& reps,
                                     double batch_seconds, std::size_t jobs) {
  std::vector<double> rounds, tokens, packets, completion, coverage, wall;
  std::size_t delivered = 0;
  for (const ReplicateResult& r : reps) {
    tokens.push_back(static_cast<double>(r.metrics.tokens_sent));
    packets.push_back(static_cast<double>(r.metrics.packets_sent));
    completion.push_back(r.metrics.completion_fraction());
    coverage.push_back(r.metrics.token_coverage());
    wall.push_back(r.wall_ms);
    if (r.metrics.all_delivered) {
      ++delivered;
      rounds.push_back(static_cast<double>(r.metrics.rounds_to_completion));
    }
  }
  AggregateResult out;
  out.repetitions = reps.size();
  out.delivery_rate =
      static_cast<double>(delivered) / static_cast<double>(reps.size());
  out.rounds_to_completion = summarize(std::move(rounds));
  out.tokens_sent = summarize(std::move(tokens));
  out.packets_sent = summarize(std::move(packets));
  out.completion_fraction = summarize(std::move(completion));
  out.token_coverage = summarize(std::move(coverage));
  out.timing.replicate_wall_ms = summarize(std::move(wall));
  out.timing.wall_seconds = batch_seconds;
  out.timing.runs_per_second =
      batch_seconds > 0.0
          ? static_cast<double>(reps.size()) / batch_seconds
          : 0.0;
  out.timing.jobs = jobs;
  return out;
}

bool AggregateResult::same_statistics(const AggregateResult& other) const {
  return rounds_to_completion == other.rounds_to_completion &&
         tokens_sent == other.tokens_sent &&
         packets_sent == other.packets_sent &&
         completion_fraction == other.completion_fraction &&
         token_coverage == other.token_coverage &&
         delivery_rate == other.delivery_rate &&
         repetitions == other.repetitions &&
         failed_replicates == other.failed_replicates;
}

namespace {

// FNV-1a, 64-bit.  Doubles enter as IEEE-754 bit patterns so the digest is
// exactly as strict as same_statistics' bitwise comparison.
void digest_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
}

void digest_f64(std::uint64_t& h, double v) {
  digest_u64(h, std::bit_cast<std::uint64_t>(v));
}

void digest_summary(std::uint64_t& h, const Summary& s) {
  digest_u64(h, s.n);
  digest_f64(h, s.mean);
  digest_f64(h, s.stddev);
  digest_f64(h, s.min);
  digest_f64(h, s.max);
  digest_f64(h, s.p50);
  digest_f64(h, s.p95);
}

}  // namespace

std::uint64_t AggregateResult::stats_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  digest_summary(h, rounds_to_completion);
  digest_summary(h, tokens_sent);
  digest_summary(h, packets_sent);
  digest_summary(h, completion_fraction);
  digest_summary(h, token_coverage);
  digest_f64(h, delivery_rate);
  digest_u64(h, repetitions);
  digest_u64(h, failed_replicates);
  return h;
}

std::string AggregateResult::to_string() const {
  std::ostringstream os;
  os << "reps=" << repetitions << " delivery=" << delivery_rate * 100.0
     << "% rounds{mean=" << rounds_to_completion.mean
     << "} tokens{mean=" << tokens_sent.mean << "}";
  if (delivery_rate < 1.0) {
    os << " completion{mean=" << completion_fraction.mean
       << "} coverage{mean=" << token_coverage.mean << "}";
  }
  os << " jobs=" << timing.jobs << " throughput=" << timing.runs_per_second
     << " runs/s";
  return os.str();
}

AggregateResult run_experiment(const SpecFactory& factory,
                               const ExperimentOptions& options) {
  const ExecutionPolicy& policy = options.policy;
  const std::size_t jobs = policy.effective_jobs();
  const auto t0 = Clock::now();
  const std::vector<ReplicateResult> results =
      run_replicates(factory, options.repetitions, options.base_seed, jobs);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return aggregate_replicates(results, seconds, jobs);
}

}  // namespace hinet
