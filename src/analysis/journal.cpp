#include "analysis/journal.hpp"

#include "sim/snapshot.hpp"

namespace hinet {

namespace {

constexpr const char* kWhat = "journal";

struct JournalRecord {
  std::uint64_t seed = 0;
  ReplicateResult result;
};

/// The writer's handle when the journal is free; a read-only view of it
/// when another writer holds it.
FramedLog open_log(std::string path) {
  try {
    return FramedLog(path, ExperimentJournal::kMagic,
                     ExperimentJournal::kVersion,
                     ExperimentJournal::kRecordMagic, kWhat,
                     FramedLog::Access::kExclusive);
  } catch (const ConcurrentWriterError&) {
    return FramedLog(std::move(path), ExperimentJournal::kMagic,
                     ExperimentJournal::kVersion,
                     ExperimentJournal::kRecordMagic, kWhat,
                     FramedLog::Access::kReadOnly);
  }
}

JournalRecord decode(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "journal record");
  JournalRecord rec;
  rec.seed = r.u64();
  rec.result.wall_ms = r.f64();
  rec.result.metrics = load_metrics(r);
  r.expect_done();
  return rec;
}

}  // namespace

ExperimentJournal::ExperimentJournal(std::string path)
    : log_(open_log(std::move(path))) {
  const std::vector<std::vector<std::uint8_t>>& records = log_.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    try {
      index_.insert_or_assign(decode(records[i]).seed, i);
    } catch (const IoError& e) {
      throw IoError("journal " + log_.path() + " record " +
                    std::to_string(i) +
                    " has a valid CRC but does not decode (" + e.what() +
                    ") — no crash writes such a record; it was written "
                    "in another format");
    }
  }
}

bool ExperimentJournal::writable() const {
  return log_.access() != FramedLog::Access::kReadOnly;
}

std::size_t ExperimentJournal::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

bool ExperimentJournal::contains(std::uint64_t seed) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_.find(seed) != index_.end();
}

std::optional<ReplicateResult> ExperimentJournal::lookup(
    std::uint64_t seed) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(seed);
  if (it == index_.end()) return std::nullopt;
  return decode(log_.records()[it->second]).result;
}

std::vector<std::uint64_t> ExperimentJournal::seeds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(index_.size());
  for (const auto& [seed, record] : index_) out.push_back(seed);
  return out;
}

void ExperimentJournal::append(std::uint64_t seed,
                               const ReplicateResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  HINET_REQUIRE(index_.find(seed) == index_.end(),
                "journal already holds this replicate seed — the supervised "
                "runner must skip recorded seeds instead of re-running them");
  if (!writable()) {
    throw ConcurrentWriterError(
        "journal " + log_.path() +
        " is held by another writer — this handle only reads it");
  }
  ByteWriter payload;
  payload.u64(seed);
  payload.f64(result.wall_ms);
  save_metrics(payload, result.metrics);
  log_.append(payload.buffer());
  index_.insert_or_assign(seed, log_.records().size() - 1);
}

}  // namespace hinet
