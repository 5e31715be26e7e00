#include "util/framed_log.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/require.hpp"

namespace hinet {

namespace {

constexpr std::size_t kFileHeaderBytes = 4 + 2 + 2;

std::string errno_detail(const std::string& what, const std::string& path) {
  std::ostringstream os;
  os << what << " " << path << ": " << std::strerror(errno);
  return os.str();
}

}  // namespace

FramedLog::FramedLog(std::string path, std::uint32_t file_magic,
                     std::uint16_t version, std::uint32_t record_magic,
                     std::string what, Access access)
    : path_(std::move(path)),
      file_magic_(file_magic),
      version_(version),
      record_magic_(record_magic),
      what_(std::move(what)),
      access_(access) {
  if (access_ == Access::kReadOnly) {
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) {
      if (errno == ENOENT) return;  // a log never written reads as empty
      throw IoError(errno_detail("cannot open " + what_, path_));
    }
  } else {
    // The writer lock must be held *before* the replay below: a second
    // writer that replayed a stale end-of-file and then appended would
    // overwrite frames the first writer fsynced after our read.  The
    // retry loop covers the holder compacting (rename replaces the
    // inode) between our open and our lock.
    for (;;) {
      fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
      if (fd_ < 0) {
        throw IoError(errno_detail("cannot open " + what_, path_));
      }
      const int op =
          LOCK_EX | (access_ == Access::kExclusive ? LOCK_NB : 0);
      bool locked = false;
      while (!locked) {
        if (::flock(fd_, op) == 0) {
          locked = true;
        } else if (errno == EINTR) {
          continue;
        } else if (errno == EWOULDBLOCK) {
          ::close(fd_);
          fd_ = -1;
          throw ConcurrentWriterError(
              what_ + " at " + path_ +
              " is held by another writer — a FramedLog is single-writer "
              "(interleaved frames would corrupt it); retry after the "
              "holder closes, or open kReadOnly to observe");
        } else {
          const IoError err(errno_detail("cannot lock " + what_, path_));
          ::close(fd_);
          fd_ = -1;
          throw err;
        }
      }
      struct ::stat opened {};
      struct ::stat current {};
      if (::fstat(fd_, &opened) == 0 &&
          ::stat(path_.c_str(), &current) == 0 &&
          opened.st_ino == current.st_ino &&
          opened.st_dev == current.st_dev) {
        break;  // we hold the lock on the inode `path_` names
      }
      ::close(fd_);  // the holder compacted under us; lock the new file
      fd_ = -1;
    }
  }

  std::vector<std::uint8_t> raw;
  std::uint8_t chunk[4096];
  ssize_t got = 0;
  while ((got = ::read(fd_, chunk, sizeof chunk)) > 0) {
    raw.insert(raw.end(), chunk, chunk + got);
  }
  if (got < 0) {
    const IoError err(errno_detail("read error on " + what_, path_));
    ::close(fd_);
    fd_ = -1;
    throw err;
  }

  try {
    replay_and_truncate(std::move(raw));
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

FramedLog::~FramedLog() {
  if (fd_ >= 0) ::close(fd_);
}

void FramedLog::replay_and_truncate(std::vector<std::uint8_t> raw) {
  if (raw.empty()) {
    if (access_ == Access::kReadOnly) return;  // observe, never stamp
    // Fresh log: stamp the header, then make both the bytes and the file's
    // directory entry durable.
    ByteWriter w;
    w.u32(file_magic_);
    w.u16(version_);
    w.u16(0);  // reserved
    write_all(fd_, w.buffer(), path_);
    sync_now();
    fsync_parent_directory(path_);
    return;
  }

  // A wrong header is never the tail of a crashed append — refuse instead
  // of "salvaging" someone else's file away.
  if (raw.size() < kFileHeaderBytes) {
    std::ostringstream os;
    os << what_ << " file " << path_ << " truncated: " << raw.size()
       << " byte(s) is shorter than the " << kFileHeaderBytes
       << "-byte header";
    throw IoError(os.str());
  }
  ByteReader header(raw, what_ + " header (" + path_ + ")");
  const std::uint32_t got_magic = header.u32();
  if (got_magic != file_magic_) {
    std::ostringstream os;
    os << what_ << " file " << path_ << " has wrong magic 0x" << std::hex
       << got_magic << " (expected 0x" << file_magic_ << ") — not a "
       << what_;
    throw IoError(os.str());
  }
  const std::uint16_t got_version = header.u16();
  if (got_version != version_) {
    std::ostringstream os;
    os << what_ << " file " << path_ << " has format version " << got_version
       << " but this build reads version " << version_;
    throw IoError(os.str());
  }
  header.u16();  // reserved

  // Replay records; anything that fails to parse is the torn tail of a
  // crashed append (every record before it was fsynced and CRC-checked).
  std::size_t valid_end = kFileHeaderBytes;
  ByteReader r(raw, what_ + " (" + path_ + ")");
  r.bytes(kFileHeaderBytes);
  while (!r.done()) {
    try {
      if (r.u32() != record_magic_) break;
      const std::uint64_t len = r.u64();
      const std::uint32_t stored_crc = r.u32();
      if (len > r.remaining()) break;
      const auto payload = r.bytes(static_cast<std::size_t>(len));
      if (crc32(payload) != stored_crc) break;
      records_.emplace_back(payload.begin(), payload.end());
    } catch (const IoError&) {
      break;
    }
    valid_end = raw.size() - r.remaining();
  }
  dropped_bytes_ = raw.size() - valid_end;

  // A reader reports the torn tail but must not repair it — that is the
  // writer's job, under the writer lock.
  if (access_ == Access::kReadOnly) return;

  if (dropped_bytes_ > 0) {
    if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
      throw IoError(
          errno_detail("cannot truncate corrupt tail of " + what_, path_));
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
      throw IoError(errno_detail("lseek failed on " + what_, path_));
    }
  }
}

void FramedLog::write_all(int fd, std::span<const std::uint8_t> bytes,
                          const std::string& file) const {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t wrote =
        ::write(fd, bytes.data() + done, bytes.size() - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw IoError(errno_detail("write failed on " + what_, file));
    }
    done += static_cast<std::size_t>(wrote);
  }
}

void FramedLog::sync_now() {
  if (::fdatasync(fd_) != 0) {
    throw IoError(errno_detail("fdatasync failed on " + what_, path_));
  }
}

void FramedLog::require_writable(const char* action) const {
  if (access_ == Access::kReadOnly) {
    throw PreconditionError("cannot " + std::string(action) + " " + what_ +
                            " at " + path_ +
                            ": the log was opened read-only");
  }
}

void FramedLog::append(std::span<const std::uint8_t> payload) {
  require_writable("append to");
  ByteWriter record;
  record.u32(record_magic_);
  record.u64(payload.size());
  record.u32(crc32(payload));
  record.bytes(payload);
  write_all(fd_, record.buffer(), path_);
  sync_now();
  records_.emplace_back(payload.begin(), payload.end());
}

void FramedLog::compact(const std::vector<std::vector<std::uint8_t>>& keep) {
  require_writable("compact");
  // Per-process-unique temp name: two processes must never share an
  // in-flight compaction sibling (the writer lock already serializes
  // compaction of *this* log, but the name discipline is uniform).
  const std::string tmp = unique_temp_path(path_);
  const int tmp_fd =
      ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) {
    throw IoError(errno_detail("cannot open compaction sibling for " + what_,
                               tmp));
  }

  ByteWriter w;
  w.u32(file_magic_);
  w.u16(version_);
  w.u16(0);  // reserved
  for (const std::vector<std::uint8_t>& payload : keep) {
    w.u32(record_magic_);
    w.u64(payload.size());
    w.u32(crc32(payload));
    w.bytes(payload);
  }

  // Until the rename, `path_` is untouched: a failed step only discards
  // the sibling, and each step reports its own failure.
  const auto abandon = [&](const std::string& message) {
    ::close(tmp_fd);
    std::remove(tmp.c_str());
    throw IoError(message);
  };
  try {
    write_all(tmp_fd, w.buffer(), tmp);
  } catch (const IoError& e) {
    abandon(e.what());
  }
  if (::fsync(tmp_fd) != 0) {
    abandon(errno_detail("fsync failed compacting " + what_, tmp));
  }
  // Take the writer lock on the *new* inode before it becomes `path_`:
  // the rename must never expose a window where a waiting opener can
  // lock the fresh file while we still consider ourselves the writer.
  if (::flock(tmp_fd, LOCK_EX | LOCK_NB) != 0) {
    abandon(errno_detail("cannot lock compacted " + what_, tmp));
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    abandon(errno_detail("cannot publish compacted " + what_, path_));
  }
  fsync_parent_directory(path_);

  // Continue appending through the already-positioned, already-locked fd
  // (closing the old fd releases the old inode's lock with it).
  ::close(fd_);
  fd_ = tmp_fd;
  records_ = keep;
}

}  // namespace hinet
