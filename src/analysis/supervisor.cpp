#include "analysis/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "sim/engine.hpp"

namespace hinet {

namespace {

// wall_ms is observability only (excluded from aggregate statistics), and
// the backoff sleep never feeds simulation state.
// detlint-allow(banned-time): supervisor wall-time is a bench-style timer
using Clock = std::chrono::steady_clock;

}  // namespace

const char* to_string(RunErrorClass c) {
  switch (c) {
    case RunErrorClass::kPrecondition:
      return "precondition";
    case RunErrorClass::kDeadline:
      return "deadline";
    case RunErrorClass::kEngineInvariant:
      return "engine-invariant";
    case RunErrorClass::kIo:
      return "io";
    case RunErrorClass::kOther:
      return "other";
  }
  return "other";
}

RunErrorClass classify_run_error(const std::exception& e) {
  if (dynamic_cast<const DeadlineError*>(&e) != nullptr) {
    return RunErrorClass::kDeadline;
  }
  if (dynamic_cast<const IoError*>(&e) != nullptr) return RunErrorClass::kIo;
  if (dynamic_cast<const PreconditionError*>(&e) != nullptr) {
    return RunErrorClass::kPrecondition;
  }
  if (dynamic_cast<const InvariantError*>(&e) != nullptr) {
    return RunErrorClass::kEngineInvariant;
  }
  return RunErrorClass::kOther;
}

bool is_transient(RunErrorClass c) {
  // Deadline and I/O failures depend on machine state and may pass on
  // retry; precondition and invariant violations are deterministic — the
  // same inputs would fail the same way — and unknown errors are not safe
  // to assume transient.
  return c == RunErrorClass::kDeadline || c == RunErrorClass::kIo;
}

std::size_t SupervisedBatch::completed() const {
  std::size_t n = 0;
  for (const auto& slot : slots) {
    if (slot.has_value()) ++n;
  }
  return n;
}

SupervisedBatch run_replicates_supervised(const SpecFactory& factory,
                                          const ExperimentOptions& options,
                                          const SupervisorPolicy& policy) {
  const std::size_t repetitions = options.repetitions;
  const std::uint64_t base_seed = options.base_seed;
  const std::size_t jobs = options.policy.effective_jobs();
  HINET_REQUIRE(repetitions >= 1, "need at least one repetition");
  HINET_REQUIRE(
      repetitions - 1 <= std::numeric_limits<std::uint64_t>::max() - base_seed,
      "replicate seed overflow: base_seed + repetitions - 1 wraps past "
      "2^64, which would alias replicates onto low seeds and correlate "
      "'independent' repetitions — lower the base seed or the repetition "
      "count");
  // Fail before running anything: a read-only journal would refuse every
  // append only after its replicate had been simulated.
  if (policy.journal != nullptr && !policy.journal->writable()) {
    throw ConcurrentWriterError("journal " + policy.journal->path() +
                                " is held by another writer; retry after "
                                "it closes");
  }

  SupervisedBatch batch;
  batch.slots.resize(repetitions);
  std::mutex book_mutex;  // guards failures + counters; slots are per-index
  std::atomic<bool> cancelled{false};

  const auto cancel_requested = [&policy] {
    return policy.cancel != nullptr &&
           policy.cancel->load(std::memory_order_relaxed);
  };

  const auto run_slot = [&](std::size_t rep) {
    const std::uint64_t seed = replicate_seed(base_seed, rep);
    if (policy.journal != nullptr) {
      if (auto cached = policy.journal->lookup(seed)) {
        batch.slots[rep] = std::move(*cached);
        const std::lock_guard<std::mutex> lock(book_mutex);
        ++batch.from_journal;
        return;
      }
    }
    const std::size_t max_attempts = policy.max_retries + 1;
    for (std::size_t attempt = 1; attempt <= max_attempts; ++attempt) {
      try {
        const auto t0 = Clock::now();
        SimulationSpec spec = factory(seed);
        if (policy.deadline_ms > 0) {
          spec.engine.deadline_ms = policy.deadline_ms;
        }
        ReplicateResult result;
        result.metrics = run_simulation(std::move(spec));
        result.wall_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        // Journal before reporting success: once append returns, the
        // record is fdatasync'd and a crash cannot lose this replicate.
        if (policy.journal != nullptr) policy.journal->append(seed, result);
        batch.slots[rep] = std::move(result);
        if (attempt > 1) {
          const std::lock_guard<std::mutex> lock(book_mutex);
          ++batch.retried_replicates;
        }
        if (policy.on_progress) policy.on_progress(rep, seed);
        return;
      } catch (const std::exception& e) {
        const RunErrorClass cls = classify_run_error(e);
        const bool retryable =
            is_transient(cls) &&
            (cls != RunErrorClass::kDeadline || policy.retry_deadline);
        if (retryable && attempt < max_attempts && !cancel_requested()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              policy.backoff_base_ms << (attempt - 1)));
          continue;
        }
        const std::lock_guard<std::mutex> lock(book_mutex);
        batch.failures.push_back(RunError{cls, rep, seed, attempt, e.what()});
        return;
      } catch (...) {
        const std::lock_guard<std::mutex> lock(book_mutex);
        batch.failures.push_back(RunError{RunErrorClass::kOther, rep, seed,
                                          attempt, "unknown exception"});
        return;
      }
    }
  };

  // Workers pull replicate indices from a shared counter; the counter only
  // moves forward, so every replicate runs at most once and cancellation
  // simply stops the pulls at the next boundary.
  std::atomic<std::size_t> next{0};
  const auto pull_worker = [&] {
    while (true) {
      if (cancel_requested()) {
        cancelled.store(true, std::memory_order_relaxed);
        break;
      }
      const std::size_t rep = next.fetch_add(1, std::memory_order_relaxed);
      if (rep >= repetitions) break;
      run_slot(rep);
    }
  };

  if (jobs == 1 || repetitions == 1) {
    pull_worker();
  } else {
    const std::size_t width = jobs < repetitions ? jobs : repetitions;
    std::vector<std::thread> pool;
    pool.reserve(width);
    for (std::size_t i = 0; i < width; ++i) pool.emplace_back(pull_worker);
    for (auto& t : pool) t.join();
  }

  batch.cancelled = cancelled.load(std::memory_order_relaxed);
  // Failure order depends on thread scheduling; sort for a deterministic
  // report.
  std::sort(batch.failures.begin(), batch.failures.end(),
            [](const RunError& a, const RunError& b) {
              return a.replicate < b.replicate;
            });
  return batch;
}

AggregateResult aggregate_supervised(const SupervisedBatch& batch,
                                     double batch_seconds, std::size_t jobs) {
  std::vector<ReplicateResult> ok;
  ok.reserve(batch.slots.size());
  for (const auto& slot : batch.slots) {
    if (slot.has_value()) ok.push_back(*slot);
  }
  HINET_REQUIRE(!ok.empty(),
                "cannot aggregate a batch with zero successful replicates");
  AggregateResult out = aggregate_replicates(ok, batch_seconds, jobs);
  out.failed_replicates = batch.failures.size();
  out.retried_replicates = batch.retried_replicates;
  return out;
}

AggregateResult run_experiment_supervised(const SpecFactory& factory,
                                          const ExperimentOptions& options,
                                          const SupervisorPolicy& policy) {
  const std::size_t jobs = options.policy.effective_jobs();
  const auto t0 = Clock::now();
  const SupervisedBatch batch =
      run_replicates_supervised(factory, options, policy);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (batch.completed() == 0) {
    std::vector<ReplicateFailure> failures;
    failures.reserve(batch.failures.size());
    for (const RunError& f : batch.failures) {
      std::ostringstream os;
      os << "[" << to_string(f.cls) << ", " << f.attempts << " attempt(s)] "
         << f.message;
      failures.push_back(ReplicateFailure{f.replicate, f.seed, os.str()});
    }
    if (failures.empty()) {
      failures.push_back(ReplicateFailure{
          0, replicate_seed(options.base_seed, 0),
          "batch cancelled before any replicate completed"});
    }
    throw ReplicateBatchError(std::move(failures));
  }
  return aggregate_supervised(batch, seconds, jobs);
}

namespace {

std::atomic<bool> g_sigint_cancel{false};

extern "C" void hinet_sigint_handler(int sig) {
  g_sigint_cancel.store(true, std::memory_order_relaxed);
  // A second delivery should kill even a wedged sweep: fall back to the
  // default disposition once the graceful path has been requested.
  std::signal(sig, SIG_DFL);
}

}  // namespace

const std::atomic<bool>* install_sigint_cancellation() {
  std::signal(SIGINT, hinet_sigint_handler);
  return &g_sigint_cancel;
}

const std::atomic<bool>* install_termination_cancellation() {
  std::signal(SIGINT, hinet_sigint_handler);
  std::signal(SIGTERM, hinet_sigint_handler);
  return &g_sigint_cancel;
}

}  // namespace hinet
