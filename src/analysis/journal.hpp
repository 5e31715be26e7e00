// Experiment journal: crash-safe record of completed replicates.
//
// A sweep that dies — OOM kill, node preemption, ctrl-C — should not cost
// the replicates it already finished.  The journal is an append-only file
// of (replicate_seed, ReplicateResult) records; the supervised runner
// appends each replicate the moment it completes (fsynced, CRC-per-record)
// and, on restart, skips every seed the journal already holds.  Because
// replicate statistics are a deterministic function of the seed, a resumed
// sweep aggregates byte-identically to an uninterrupted one — pinned by
// tests/analysis/test_journal.cpp and the CI kill-and-resume smoke step.
//
// On disk the journal is a FramedLog (util/framed_log.hpp) with file magic
// 'HJNL', version 1 and record magic 'HJRD'; this class only encodes and
// decodes the record payload (little-endian):
//
//   payload : u64 seed · f64 wall_ms · SimMetrics (sim/snapshot.hpp)
//
// Everything else is FramedLog's discipline: appends are
// write()-then-fdatasync, a torn or corrupt *tail* is truncated at open
// and counted in dropped_bytes(), and a wrong file header or version
// throws IoError.  A record whose CRC is valid but whose payload does not
// decode also throws IoError: the CRC proves those are the bytes that
// were written, so no crash produced them and dropping them would hide a
// format mismatch.
//
// The journal is single-writer.  A handle takes FramedLog's exclusive
// writer lock at open; a second handle on a journal another handle or
// process holds opens as a read-only view of the records the holder has
// made durable: writable() is false and append() throws
// ConcurrentWriterError, so two writers can never interleave frames.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "util/framed_log.hpp"

namespace hinet {

class ExperimentJournal {
 public:
  static constexpr std::uint32_t kMagic = 0x4c'4e'4a'48u;       // "HJNL"
  static constexpr std::uint16_t kVersion = 1;
  static constexpr std::uint32_t kRecordMagic = 0x44'52'4a'48u;  // "HJRD"

  /// Opens (creating if absent) and replays the journal at `path`.
  /// Throws IoError when the file exists but is not a journal of this
  /// version, when a CRC-valid record does not decode, or on I/O failure.
  /// A corrupt tail is truncated and counted in dropped_bytes().  When
  /// another writer holds the journal, the handle is a read-only view.
  explicit ExperimentJournal(std::string path);

  ExperimentJournal(const ExperimentJournal&) = delete;
  ExperimentJournal& operator=(const ExperimentJournal&) = delete;

  const std::string& path() const { return log_.path(); }

  /// False when another writer held the journal at open: this handle
  /// then only reads, and append() throws ConcurrentWriterError.
  bool writable() const;

  /// Number of completed replicates on record.
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  bool contains(std::uint64_t seed) const;

  /// The recorded result for `seed`, if any.
  std::optional<ReplicateResult> lookup(std::uint64_t seed) const;

  /// Recorded seeds in ascending order (deterministic).
  std::vector<std::uint64_t> seeds() const;

  /// Durably appends one completed replicate: the record is written and
  /// fdatasync'd before this returns, so a crash immediately after cannot
  /// lose it.  Thread-safe.  Re-appending a recorded seed is a
  /// PreconditionError (the supervised runner checks contains() first).
  void append(std::uint64_t seed, const ReplicateResult& result);

  /// Bytes of torn/corrupt tail dropped when the journal was opened
  /// (0 for a cleanly written file).
  std::size_t dropped_bytes() const { return log_.dropped_bytes(); }

 private:
  mutable std::mutex mutex_;
  FramedLog log_;
  /// seed → index of its record in log_.records(); a seed recorded twice
  /// resolves to its last record.
  std::map<std::uint64_t, std::size_t> index_;
};

}  // namespace hinet
