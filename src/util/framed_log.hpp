// FramedLog: append-only, CRC-framed, fsynced record file with
// salvage-the-prefix recovery — the one durability substrate under every
// durable record file: the results store's write-ahead intent log, the
// service's job queue and execution ledger, and the experiment journal
// (analysis/journal.hpp).  Each user only encodes and decodes its own
// payloads; framing, locking, replay and salvage live here.
//
//   file header : u32 file magic · u16 version · u16 reserved(0)
//   record      : u32 record magic · u64 payload length · u32 crc32(payload)
//                 · payload bytes
//
// Appends are write()-then-fdatasync, so a record either exists completely
// or not at all.  Opening replays every record; a torn or corrupt *tail*
// (the expected shape of a crash mid-append) is truncated away and
// reported via dropped_bytes().  Corruption that cannot be the tail of a
// sane log — wrong file magic, wrong version — throws IoError instead:
// that file is not this log, and "salvaging" it would destroy someone
// else's data.  Creating a fresh log fsyncs the parent directory, so even
// the file's existence survives power failure.
//
// A writable log is single-writer, enforced with flock(LOCK_EX) *before*
// the open-time replay (a second writer replaying a stale end-of-file and
// then appending would overwrite the first writer's frames).  kExclusive
// refuses a contended log with a typed ConcurrentWriterError; kWait
// blocks until the holder closes — the mode multi-process drains use for
// their short append-and-close critical sections.  kReadOnly takes no
// lock, never writes (no header stamping, no tail truncation), and
// treats a missing file as an empty log, so status/query tooling can
// observe a live system without perturbing it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/binary_io.hpp"

namespace hinet {

/// A second writer tried to open a FramedLog that another process (or
/// another handle in this process) holds open for writing.  Derives
/// IoError but maps to the *transient* exit code: the holder will close,
/// and retrying is the right move — interleaved frames never are.
class ConcurrentWriterError : public IoError {
 public:
  using IoError::IoError;
};

class FramedLog {
 public:
  enum class Access {
    kExclusive,  ///< writable; a contended lock is a ConcurrentWriterError
    kWait,       ///< writable; block until the current writer closes
    kReadOnly,   ///< no lock, no writes; missing file reads as empty
  };

  /// Opens (creating if absent, unless read-only) and replays the log at
  /// `path`.  `what` names the artifact in every diagnostic
  /// ("results-store WAL").
  FramedLog(std::string path, std::uint32_t file_magic, std::uint16_t version,
            std::uint32_t record_magic, std::string what,
            Access access = Access::kExclusive);
  ~FramedLog();

  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  const std::string& path() const { return path_; }
  Access access() const { return access_; }

  /// Every intact record replayed at open, in append order, plus records
  /// appended through this handle since.
  const std::vector<std::vector<std::uint8_t>>& records() const {
    return records_;
  }

  /// Bytes of torn/corrupt tail dropped at open (0 for a clean file).
  std::size_t dropped_bytes() const { return dropped_bytes_; }

  /// Durably appends one record: written and fdatasync'd before returning.
  void append(std::span<const std::uint8_t> payload);

  /// Atomically rewrites the log to hold exactly `keep` (write a temporary
  /// sibling, fsync, rename, fsync the directory) and continues appending
  /// to the rewritten file.  Used to bound log growth once every record's
  /// outcome is settled.
  void compact(const std::vector<std::vector<std::uint8_t>>& keep);

 private:
  void replay_and_truncate(std::vector<std::uint8_t> raw);
  void write_all(int fd, std::span<const std::uint8_t> bytes,
                 const std::string& file) const;
  void sync_now();
  void require_writable(const char* action) const;

  std::string path_;
  std::uint32_t file_magic_ = 0;
  std::uint16_t version_ = 0;
  std::uint32_t record_magic_ = 0;
  std::string what_;
  Access access_ = Access::kExclusive;
  int fd_ = -1;
  std::vector<std::vector<std::uint8_t>> records_;
  std::size_t dropped_bytes_ = 0;
};

}  // namespace hinet
