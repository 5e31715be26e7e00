// JobQueue: the durable admission queue in front of the experiment
// service.
//
// Submissions are appended to a FramedLog (CRC-framed, fsynced,
// salvage-the-prefix), so a job accepted before a crash is still pending
// after restart.  The queue is *bounded*: when `max_pending` jobs are
// already waiting, submit() throws QueueFullError — an explicit admission
// reject the caller can surface (shared exit code 3, transient/retryable)
// instead of buffering without limit until the OOM killer decides for us.
//
// Record kinds, replayed in append order to rebuild the pending set:
//   submit  {spec}        — job enters the pending set (no-op if pending)
//   done    {hash}        — job left the queue successfully
//   failed  {hash, why}   — job left the queue permanently failed (a later
//                           submit of the same spec re-enqueues it)
//   claim   {hash, owner, token, expiry} — a drainer holds the job's lease
//                           and is executing it (v2); purely advisory —
//                           the lease file is the authority — but durable,
//                           so `status` and sibling drainers can see who
//                           is working on what across restarts.
//   release {hash, token} — the claim with that token ended (published,
//                           failed, or abandoned).
//
// The log is compacted down to the still-pending submissions (plus live
// claims on them) when history outgrows the backlog, so a long-lived
// queue file stays proportional to the backlog, not to history.  The
// underlying FramedLog is single-writer; multi-process drains open the
// queue transiently in wait mode (lock, mutate, close) so claims by N
// processes serialize instead of interleaving.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/job_spec.hpp"
#include "util/framed_log.hpp"

namespace hinet {

/// Admission reject: the queue is at capacity.  Transient by nature —
/// resubmit once the service drains — and mapped to the shared transient
/// exit code by the tools.
class QueueFullError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JobQueue {
 public:
  static constexpr std::uint32_t kMagic = 0x51'4a'53'48u;        // "HSJQ"
  /// v2: claim/release records carry lease ownership durably.
  static constexpr std::uint16_t kVersion = 2;
  static constexpr std::uint32_t kRecordMagic = 0x52'4a'53'48u;  // "HSJR"

  enum class Submit {
    kEnqueued,        ///< accepted and durably recorded
    kAlreadyPending,  ///< identical job already waiting — nothing to do
  };

  /// A durable claim: which drainer is executing a pending job, under
  /// which fencing token, valid until when.
  struct Claim {
    std::string owner;
    std::uint64_t token = 0;
    std::uint64_t expiry_ms = 0;
  };

  /// Opens (creating if absent) the queue at `path`.  Torn tails are
  /// salvaged; a foreign or version-skewed header is refused (IoError).
  /// `access` follows FramedLog: kExclusive refuses a second writer
  /// (ConcurrentWriterError), kWait blocks for it — the mode concurrent
  /// drains use for short open-mutate-close sections — and kReadOnly
  /// observes without locking or compacting.
  JobQueue(std::string path, std::size_t max_pending,
           FramedLog::Access access = FramedLog::Access::kExclusive);

  const std::string& path() const;

  std::size_t pending() const { return order_.size(); }
  std::size_t max_pending() const { return max_pending_; }
  bool is_pending(std::uint64_t hash) const;

  /// Pending jobs in submission (FIFO) order.
  std::vector<JobSpec> pending_jobs() const;

  /// Durably enqueues `spec`.  Throws QueueFullError when the backlog is
  /// at max_pending (explicit admission control); IoError on hash
  /// collision with a different pending spec.
  Submit submit(const JobSpec& spec);

  /// Durably removes a pending job that completed (results published).
  void mark_done(std::uint64_t hash);

  /// Durably removes a pending job that failed permanently; `reason` is
  /// recorded for the status report until the next compaction.
  void mark_failed(std::uint64_t hash, const std::string& reason);

  /// Durably records that `owner` is executing the pending job `hash`
  /// under fencing `token`, lease valid until `expiry_ms`.  Overwrites a
  /// previous claim on the same job (takeover).
  void record_claim(std::uint64_t hash, const std::string& owner,
                    std::uint64_t token, std::uint64_t expiry_ms);

  /// Durably ends the claim on `hash` — a no-op unless the live claim
  /// carries exactly `token` (a successor's newer claim is not ours to
  /// release).
  void release_claim(std::uint64_t hash, std::uint64_t token);

  /// The live (unexpired at `now_ms`) claim on a pending job, if any.
  std::optional<Claim> claim_of(std::uint64_t hash,
                                std::uint64_t now_ms) const;

  /// Pending jobs with a live claim at `now_ms`.
  std::size_t claimed(std::uint64_t now_ms) const;

  /// Torn-tail bytes dropped at open.
  std::size_t dropped_bytes() const { return log_.dropped_bytes(); }

 private:
  void replay();
  void maybe_compact();
  void remove_pending(std::uint64_t hash, const char* verb);

  FramedLog log_;
  std::size_t max_pending_ = 0;
  std::vector<std::uint64_t> order_;  ///< pending hashes, FIFO
  std::map<std::uint64_t, std::vector<std::uint8_t>> pending_;  ///< hash→spec
  std::map<std::uint64_t, Claim> claims_;  ///< hash→live claim
};

}  // namespace hinet
