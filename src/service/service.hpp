// ExperimentService: the simulate-once-serve-many layer.
//
// Ties together the three durable pieces — JobQueue (admission),
// ResultsStore (content-addressed results) and the per-job
// ExperimentJournal (in-flight replicate progress) — around the existing
// supervised experiment runner:
//
//   submit(spec)     → cache hit (already stored: nothing to execute),
//                      enqueued, or already pending.  Queue at capacity is
//                      an explicit QueueFullError, never unbounded growth.
//   run_pending()    → drains the queue.  Each job executes its *missing*
//                      replicates through run_replicates_supervised under
//                      the configured ExecutionPolicy (deadlines, retry
//                      taxonomy, partial-batch salvage), journaling each
//                      completed replicate durably.  A fully completed job
//                      is published to the store through the staged commit
//                      protocol and its journal deleted; a partially
//                      completed one keeps its journal and stays pending —
//                      kill -9 at any moment costs at most the replicate
//                      in flight, and no journaled replicate or stored job
//                      is ever executed twice.
//   query helpers    → completion curves, crossover lookups and a
//                      deterministic query digest served purely from the
//                      store, without re-simulating.
//
// Everything is observable: the service report and the store counters
// (hits/misses/recoveries) make the cache behaviour auditable — the CI
// acceptance check literally greps them.
//
// ## Concurrent drains
//
// N service instances (N `hinetd run` processes) may share one directory.
// run_pending() claims one job at a time: open the queue transiently
// (wait-mode FramedLog — short lock-mutate-close sections), pick the
// first unclaimed pending job, win its lease (lease_lock.hpp), record a
// durable claim, close the queue, and only then execute — the queue and
// store are never held across a simulation.  The supervisor's progress
// callback renews the lease after every journaled replicate (the
// heartbeat); publish() carries the lease's fencing token so a drainer
// that lost its lease mid-run is refused at the first commit stage
// instead of clobbering its successor.  Every claim, publish and
// stale-lease detection is appended to <dir>/ledger.hle — the append-only
// execution ledger `hinetd status` reports and the CI multi-drain smoke
// asserts over ("no job published twice").
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/supervisor.hpp"
#include "service/job_queue.hpp"
#include "service/lease_lock.hpp"
#include "service/results_store.hpp"

namespace hinet {

struct ServiceOptions {
  /// Admission bound for the queue.
  std::size_t max_pending = 256;

  /// How each job's replicates execute (serial or threaded).
  ExecutionPolicy policy;

  /// Per-replicate wall budget and retry budget, passed to the supervisor.
  std::size_t deadline_ms = 0;
  std::size_t max_retries = 1;

  /// Cooperative cancellation (SIGINT/SIGTERM); checked between jobs and
  /// between replicates.  Not owned.
  const std::atomic<bool>* cancel = nullptr;

  /// Invoked after a job's results were fully published and acknowledged
  /// (the CI crash lever hard-exits here to simulate SIGKILL).
  std::function<void(const JobSpec&)> on_job_published;

  /// Lease validity per acquire/renew.  Must comfortably exceed the wall
  /// time of one replicate: the heartbeat renews after every journaled
  /// replicate, so a lease shorter than a replicate expires mid-work and
  /// invites a takeover of a live job (safe — fencing refuses the loser —
  /// but wasteful).
  std::uint64_t lease_ms = 30000;

  /// Extra slack past expiry before a contender may take a lease over
  /// (absorbs clock skew between drainer hosts).
  std::uint64_t takeover_grace_ms = 1000;

  /// This drainer's identity in lease files, claims and the ledger.
  /// Empty: "pid-<pid>".
  std::string drain_id;

  /// Millisecond clock for lease expiry (tests inject a fake; empty uses
  /// the wall clock).
  LeaseClock now_ms;

  /// Test seam: invoked after a job's replicates completed, immediately
  /// before the store publish begins (the torture harness parks a zombie
  /// drainer here while a successor steals the job).
  std::function<void(const JobSpec&)> on_job_will_publish;
};

/// What run_pending did, per drained queue entry and in total.
struct ServiceReport {
  std::size_t executed_jobs = 0;   ///< simulated and published this run
  std::size_t cache_hits = 0;      ///< already stored — served, not re-run
  std::size_t failed_jobs = 0;     ///< left the queue permanently failed
  std::size_t deferred_jobs = 0;   ///< transient failure — still pending
  std::size_t resumed_replicates = 0;  ///< journal-recovered, not re-run
  /// Lease lost mid-job (heartbeat renew failed, or a commit stage was
  /// fenced): the successor owns the job; nothing was corrupted and
  /// nothing of the successor's was overwritten.
  std::size_t stale_leases = 0;
  /// Pending jobs left alone because a sibling drainer holds their lease,
  /// live claim or journal — they are *someone else's* work, not a
  /// failure.
  std::size_t skipped_claimed = 0;
  bool cancelled = false;          ///< stopped on the cancel flag
  std::vector<std::string> failure_messages;

  std::string to_string() const;
};

class ExperimentService {
 public:
  enum class SubmitOutcome { kCacheHit, kEnqueued, kAlreadyPending };

  // Execution-ledger file format (<dir>/ledger.hle): an append-only
  // FramedLog of {u8 kind, u64 hash, u64 token, owner blob} records —
  // the audit trail of who executed what (never compacted).
  static constexpr std::uint32_t kLedgerMagic = 0x4c'45'53'48u;  // "HSEL"
  static constexpr std::uint16_t kLedgerVersion = 1;
  static constexpr std::uint32_t kLedgerRecordMagic = 0x52'45'53'48u;  // HSER
  static constexpr std::uint8_t kLedgerClaim = 1;
  static constexpr std::uint8_t kLedgerPublish = 2;
  static constexpr std::uint8_t kLedgerStale = 3;

  /// Opens (creating) the service state under `dir`: <dir>/queue.hjq,
  /// <dir>/index.hix + segments + WAL + store.lock, <dir>/ledger.hle,
  /// <dir>/job-<hash>.{journal,lease,fence} while a job is in flight.
  /// Recovery (store intents — gated on winning each job's lease — queue
  /// backlog, journals) happens here.
  ExperimentService(std::string dir, ServiceOptions options);

  ResultsStore& store() { return *store_; }
  const ResultsStore& store() const { return *store_; }
  LeaseManager& leases() { return *leases_; }

  /// Current queue backlog, observed through a transient read-only open
  /// (safe while other drainers hold the queue).
  std::size_t pending() const;
  std::vector<JobSpec> pending_jobs() const;

  /// Content-addressed admission: a stored job is a pure cache hit (no
  /// queue traffic), a pending one is deduped, a new one is durably
  /// enqueued.  Throws QueueFullError at capacity.
  SubmitOutcome submit(const JobSpec& spec);

  /// Drains the queue one claimed job at a time until no job can be
  /// claimed (empty, or every remainder is a sibling drainer's).  Never
  /// throws for per-job failures or lost leases — they land in the
  /// report; throws only for store/queue-level corruption (IoError).
  ServiceReport run_pending();

  /// Path of the in-flight journal for a job (exists only between first
  /// replicate and publish).
  std::string journal_path(const JobSpec& spec) const;

  std::string queue_path() const { return dir_ + "/queue.hjq"; }
  std::string ledger_path() const { return dir_ + "/ledger.hle"; }

  /// The lease/ledger resource name for a job hash: "job-<16 hex>".
  static std::string job_resource(std::uint64_t hash);

 private:
  struct ClaimedJob {
    JobSpec job;
    LeaseLock lease;
  };

  std::optional<ClaimedJob> claim_next(ServiceReport& report,
                                       const std::set<std::uint64_t>& held);
  /// Runs and publishes a claimed job.  When another writer holds the
  /// job's journal, drops the claim, releases the lease and adds the job
  /// to `held`: it stays pending for its holder.
  void execute_claimed(ClaimedJob claimed, ServiceReport& report,
                       std::set<std::uint64_t>& held);
  void append_ledger(std::uint8_t kind, std::uint64_t hash,
                     std::uint64_t token);
  void reopen_store();
  StoreOptions store_options();

  std::string dir_;
  ServiceOptions options_;
  std::unique_ptr<LeaseManager> leases_;  ///< must outlive store_ (hook)
  std::unique_ptr<ResultsStore> store_;
};

/// Per-job execution counts replayed from <dir>/ledger.hle — the "no job
/// executed twice" evidence: under fencing, `publishes` is at most 1 per
/// hash no matter how many drainers were killed and restarted.
struct ExecutionLedger {
  struct PerJob {
    std::size_t claims = 0;     ///< lease wins (takeovers included)
    std::size_t publishes = 0;  ///< durable publishes acknowledged
    std::size_t stales = 0;     ///< drainers that detected a lost lease
  };
  std::map<std::uint64_t, PerJob> jobs;
  std::size_t total_claims = 0;
  std::size_t total_publishes = 0;
  std::size_t total_stales = 0;
};

/// Replays the execution ledger read-only (missing file: empty ledger).
ExecutionLedger read_execution_ledger(const std::string& dir);

// ── Query path: served from the store, never simulating ────────────────

/// Mean completion curve over a job's replicates: entry r is the mean
/// number of nodes holding all k tokens after round r, padded with each
/// replicate's final value when replicates ran different round counts.
struct CompletionCurve {
  std::size_t nodes = 0;
  std::size_t replicates = 0;
  std::vector<double> mean_complete_nodes;
};

CompletionCurve completion_curve(const StoredResult& result);

/// Aggregate statistics recomputed from the stored replicates — identical
/// (stats_digest and all) to what the original sweep printed, because
/// aggregation is a deterministic index-ordered fold.
AggregateResult aggregate_stored(const StoredResult& result);

/// Where two stored jobs' completion curves cross — the paper's "who wins
/// where" lookup (e.g. Alg1/Alg2 vs KLO) as a pure store query.
struct CrossoverReport {
  double mean_rounds_a = 0.0;  ///< mean rounds_to_completion (delivered)
  double mean_rounds_b = 0.0;
  int winner = 0;  ///< -1: a completes first, +1: b, 0: tie
  /// First round index from which a's mean completion-fraction curve
  /// dominates b's for every later round (SIZE_MAX when it never does).
  std::size_t a_dominates_from = 0;
  std::size_t b_dominates_from = 0;

  std::string to_string() const;
};

CrossoverReport find_crossover(const StoredResult& a, const StoredResult& b);

/// Deterministic digest over everything a query serves (aggregate
/// statistics + completion curve): byte-identical across reopenings,
/// recoveries and re-queries of the same stored job.  The CI
/// kill-and-recover smoke diffs this against an uninterrupted run.
std::uint64_t query_digest(const StoredResult& result);

}  // namespace hinet
