// Supervised experiment execution: failure isolation, deadlines, retry,
// journal-backed resume.
//
// run_replicates (experiment.hpp) treats any replicate failure as fatal to
// the batch.  That is the right default for correctness tests, but a long
// sweep wants supervision instead: one replicate hitting a pathological
// seed, a wall-clock deadline, or a transient I/O error should cost that
// replicate (or just one retry), never the other 999.
//
// The supervisor wraps the same worker-pool executor with, per replicate:
//
//   - a wall-clock deadline, injected as EngineConfig::deadline_ms into
//     the spec so a stuck run throws DeadlineError instead of occupying
//     its worker forever;
//   - a structured error taxonomy (RunErrorClass) distinguishing caller
//     bugs (precondition), budget exhaustion (deadline), simulator bugs
//     (engine invariant) and environment trouble (I/O);
//   - retry with exponential backoff for the transient classes — a
//     deadline or I/O failure may pass on a second attempt, a
//     precondition or invariant violation never will;
//   - partial-result salvage: failures are recorded per replicate and the
//     batch aggregates what succeeded (AggregateResult::failed_replicates
//     keeps the loss visible and part of same_statistics);
//   - journal-backed resume: with a journal attached, completed
//     replicates are durably recorded as they finish and skipped on the
//     next run — a killed sweep resumes and aggregates byte-identically
//     (tests/analysis/test_journal.cpp, CI kill-and-resume smoke);
//   - cooperative cancellation: a cancel flag (e.g. set by SIGINT via
//     install_sigint_cancellation) stops workers at the next replicate
//     boundary; in-flight replicates finish and reach the journal, so an
//     interrupted sweep loses nothing it completed.
//
// All of the above composes with both ExecutionPolicy modes: serial is the
// threaded executor with one worker.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/journal.hpp"

namespace hinet {

/// What kind of failure a replicate died of — drives the retry decision
/// and the failure report.
enum class RunErrorClass {
  kPrecondition,     ///< PreconditionError: caller misuse; never retried
  kDeadline,         ///< DeadlineError: wall budget exhausted; retryable
  kEngineInvariant,  ///< InvariantError: simulator bug; never retried
  kIo,               ///< IoError: environment trouble; retryable
  kOther,            ///< anything else; never retried (unknown = not safe)
};

const char* to_string(RunErrorClass c);

/// Maps a caught exception to its class by dynamic type.
RunErrorClass classify_run_error(const std::exception& e);

/// True for the classes worth a retry: transient by nature (deadline, I/O)
/// rather than deterministic (precondition, invariant — identical inputs
/// would fail identically).
bool is_transient(RunErrorClass c);

/// One replicate's terminal failure, after retries were exhausted.
struct RunError {
  RunErrorClass cls = RunErrorClass::kOther;
  std::size_t replicate = 0;
  std::uint64_t seed = 0;
  std::size_t attempts = 1;  ///< total attempts made (1 = no retry)
  std::string message;
};

struct SupervisorPolicy {
  /// Per-replicate wall-clock budget, injected as the spec's
  /// EngineConfig::deadline_ms (overriding the factory's value when > 0).
  /// 0 = no deadline.
  std::size_t deadline_ms = 0;

  /// Extra attempts per replicate for transient failures.  0 = fail on
  /// first error (still isolated to that replicate).
  std::size_t max_retries = 0;

  /// Backoff before retry i (1-based) is backoff_base_ms << (i-1).
  std::size_t backoff_base_ms = 10;

  /// Whether DeadlineError counts as transient.  True by default — on a
  /// loaded machine a deadline often passes on retry; set false when the
  /// deadline is meant as a hard per-replicate cost cap.
  bool retry_deadline = true;

  /// Completed-replicate store for crash-safe resume; not owned.  When
  /// set, recorded seeds are skipped (their results reused) and fresh
  /// completions are appended durably.
  ExperimentJournal* journal = nullptr;

  /// Cooperative cancellation flag; not owned.  Checked between
  /// replicates: when it reads true, workers stop pulling new work.
  const std::atomic<bool>* cancel = nullptr;

  /// Invoked (from worker threads) after each freshly executed replicate
  /// has been recorded in the journal (or completed, without one).  The
  /// kill-and-resume harness uses it to crash deterministically mid-sweep.
  std::function<void(std::size_t replicate, std::uint64_t seed)> on_progress;
};

/// Outcome of a supervised batch: per-replicate slots plus the failure
/// and provenance bookkeeping.
struct SupervisedBatch {
  /// Result per replicate index; nullopt = failed (see failures) or never
  /// ran (cancelled).
  std::vector<std::optional<ReplicateResult>> slots;

  /// Terminal failures, sorted by replicate index.
  std::vector<RunError> failures;

  std::size_t retried_replicates = 0;  ///< succeeded after >= 1 retry
  std::size_t from_journal = 0;        ///< reused from the journal
  bool cancelled = false;              ///< stopped early on the cancel flag

  std::size_t completed() const;
};

/// Executes the batch under the policy.  Never throws for per-replicate
/// failures (they land in `failures`); does throw for batch-level caller
/// errors (zero repetitions, seed overflow) and, before running anything,
/// ConcurrentWriterError for a journal another writer holds.
///
/// options.policy sets the worker-pool width (serial = one worker).
SupervisedBatch run_replicates_supervised(const SpecFactory& factory,
                                          const ExperimentOptions& options,
                                          const SupervisorPolicy& policy);

/// Aggregates a supervised batch: statistics over the successful slots in
/// index order (byte-identical to an unsupervised aggregate when nothing
/// failed), with failed/retried counts filled in.
AggregateResult aggregate_supervised(const SupervisedBatch& batch,
                                     double batch_seconds, std::size_t jobs);

/// run_replicates_supervised + aggregate_supervised.  Throws
/// ReplicateBatchError only when *no* replicate succeeded (there is
/// nothing to aggregate); partial failure is reported through
/// AggregateResult::failed_replicates instead.  Statistics (and the
/// stats_digest) do not depend on options.policy — a threaded resumed
/// sweep aggregates byte-identically to a serial one.
AggregateResult run_experiment_supervised(const SpecFactory& factory,
                                          const ExperimentOptions& options,
                                          const SupervisorPolicy& policy);

/// Installs a SIGINT handler that sets (and never clears) an internal
/// cancellation flag, and returns a pointer to it for SupervisorPolicy::
/// cancel.  Install once per process; a second SIGINT restores the default
/// disposition, so a double ctrl-C still kills a wedged sweep.
const std::atomic<bool>* install_sigint_cancellation();

/// Like install_sigint_cancellation, but covers SIGTERM as well — the
/// signal a supervisor (systemd, CI, `kill`) sends for a clean shutdown.
/// Both signals share one flag: long-running tools (sweep_runner, hinetd)
/// treat either as "finish the in-flight unit, journal it, exit with the
/// shared transient status".  A second delivery of either signal restores
/// the default disposition, so a wedged process can still be killed.
const std::atomic<bool>* install_termination_cancellation();

}  // namespace hinet
