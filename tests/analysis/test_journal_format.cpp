// The journal's on-disk format, pinned byte for byte: what this tree
// writes, what earlier builds wrote, and the two refusals that keep the
// journal trustworthy (a second writer, a CRC-valid record that does not
// decode).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "analysis/journal.hpp"
#include "util/binary_io.hpp"
#include "util/framed_log.hpp"

namespace hinet {
namespace {

/// Synthetic replicate results: fixed by the seed alone, so the pinned
/// bytes below do not depend on the engine.
ReplicateResult fixed_replicate(std::uint64_t seed) {
  ReplicateResult r;
  r.wall_ms = 0.25 * static_cast<double>(seed);
  SimMetrics& m = r.metrics;
  m.rounds_executed = 10 + seed;
  m.packets_sent = 100 * seed;
  m.tokens_sent = 300 * seed;
  m.rounds_to_completion = 7 + seed;
  m.all_delivered = seed % 2 == 1;
  m.tokens_sent_per_round = {seed, 2 * seed, 3 * seed};
  m.complete_nodes_per_round = {1, 2, 4};
  m.per_node_tx_tokens = {seed, seed + 1};
  m.per_node_rx_tokens = {2, 3};
  m.token_universe = 3;
  m.complete_nodes_final = 2;
  m.per_node_tokens_known = {3, 3};
  return r;
}

/// Append order of the recorded journal (deliberately not sorted).
constexpr std::uint64_t kRecordedSeeds[] = {9, 3, 5};

/// The journal a build from before the FramedLog-backed journal wrote
/// for fixed_replicate() of kRecordedSeeds, in append order.
constexpr const char* kRecordedJournalHex =
    "484a4e4c01000000484a5244c900000000000000205bf5010900000000000000"
    "0000000000000240130000000000000084030000000000008c0a000000000000"
    "1000000000000000010300000000000000090000000000000012000000000000"
    "001b000000000000000300000000000000010000000000000002000000000000"
    "000400000000000000020000000000000009000000000000000a000000000000"
    "0002000000000000000200000000000000030000000000000003000000000000"
    "0002000000000000000200000000000000030000000000000003000000000000"
    "00484a5244c9000000000000000abb4a610300000000000000000000000000e8"
    "3f0d000000000000002c0100000000000084030000000000000a000000000000"
    "0001030000000000000003000000000000000600000000000000090000000000"
    "0000030000000000000001000000000000000200000000000000040000000000"
    "0000020000000000000003000000000000000400000000000000020000000000"
    "0000020000000000000003000000000000000300000000000000020000000000"
    "0000020000000000000003000000000000000300000000000000484a5244c900"
    "000000000000e653581c0500000000000000000000000000f43f0f0000000000"
    "0000f401000000000000dc050000000000000c00000000000000010300000000"
    "00000005000000000000000a000000000000000f000000000000000300000000"
    "0000000100000000000000020000000000000004000000000000000200000000"
    "0000000500000000000000060000000000000002000000000000000200000000"
    "0000000300000000000000030000000000000002000000000000000200000000"
    "00000003000000000000000300000000000000";

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string fresh_path(const char* tag) {
  const std::string p =
      ::testing::TempDir() + "hinet_journal_format_" + tag + ".jnl";
  std::remove(p.c_str());
  return p;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(b.data()),
          static_cast<std::streamsize>(b.size()));
}

TEST(JournalFormat, WritesTheRecordedBytes) {
  const std::string path = fresh_path("write");
  {
    ExperimentJournal j(path);
    for (const std::uint64_t seed : kRecordedSeeds) {
      j.append(seed, fixed_replicate(seed));
    }
  }
  EXPECT_EQ(read_file(path), from_hex(kRecordedJournalHex));
  std::remove(path.c_str());
}

TEST(JournalFormat, OpensARecordedJournalUnchanged) {
  const std::string path = fresh_path("read");
  const std::vector<std::uint8_t> recorded = from_hex(kRecordedJournalHex);
  write_file(path, recorded);
  {
    ExperimentJournal j(path);
    EXPECT_TRUE(j.writable());
    EXPECT_EQ(j.dropped_bytes(), 0u);
    EXPECT_EQ(j.seeds(), (std::vector<std::uint64_t>{3, 5, 9}));
    for (const std::uint64_t seed : kRecordedSeeds) {
      const std::optional<ReplicateResult> got = j.lookup(seed);
      ASSERT_TRUE(got.has_value()) << "seed " << seed;
      EXPECT_EQ(got->metrics, fixed_replicate(seed).metrics);
      EXPECT_EQ(got->wall_ms, fixed_replicate(seed).wall_ms);
    }
    EXPECT_FALSE(j.lookup(4).has_value());
  }
  EXPECT_EQ(read_file(path), recorded) << "opening must not rewrite the file";
  std::remove(path.c_str());
}

TEST(JournalFormat, SecondWriterOnOnePathIsRefused) {
  const std::string path = fresh_path("two_writers");
  ExperimentJournal first(path);
  first.append(3, fixed_replicate(3));
  ExperimentJournal second(path);
  EXPECT_TRUE(first.writable());
  EXPECT_FALSE(second.writable());
  // The second handle still reads what the holder made durable…
  EXPECT_EQ(second.seeds(), (std::vector<std::uint64_t>{3}));
  // …but can never write a frame of its own.
  EXPECT_THROW(second.append(5, fixed_replicate(5)), ConcurrentWriterError);
  first.append(5, fixed_replicate(5));
  EXPECT_EQ(first.size(), 2u);
  std::remove(path.c_str());
}

TEST(JournalFormat, CrcValidUndecodableRecordIsRefused) {
  // A well-framed record (right magic, length and CRC) whose payload is
  // not {seed, wall_ms, SimMetrics}: no torn append produces this, so it
  // must not be salvaged away as a tail.
  const std::string path = fresh_path("undecodable");
  ByteWriter payload;
  payload.u64(7);
  payload.u8(1);  // far too short for wall_ms + SimMetrics
  ByteWriter file;
  file.u32(ExperimentJournal::kMagic);
  file.u16(ExperimentJournal::kVersion);
  file.u16(0);
  file.u32(ExperimentJournal::kRecordMagic);
  file.u64(payload.size());
  file.u32(crc32(payload.buffer()));
  file.bytes(payload.buffer());
  const std::vector<std::uint8_t> bytes(file.buffer().begin(),
                                        file.buffer().end());
  write_file(path, bytes);
  EXPECT_THROW(ExperimentJournal j(path), IoError);
  EXPECT_EQ(read_file(path), bytes) << "a refused journal is left as it was";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hinet
