// Allocation gate for streaming round synthesis.
//
// A counting operator new (forwarding to malloc) makes heap allocations an
// exact, deterministic count, so this gate cannot flake the way a wall-time
// threshold would.  It pins two properties of a streaming (1, L)-HiNet
// trace once the ring and the builders have grown to size:
//   - every steady-state round allocates the same small constant (<= 32);
//   - that constant does not depend on n (checked at n = 600 and 6000).
// It lives in its own executable because the operator new replacement is
// program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/hinet_generator.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hinet {
namespace {

constexpr std::size_t kWarmupRounds = 20;
constexpr std::size_t kMeasuredRounds = 60;
constexpr std::uint64_t kMaxAllocsPerRound = 32;

/// Allocations made by each steady-state graph_at + hierarchy_at pair.
std::vector<std::uint64_t> allocs_per_round(std::size_t nodes) {
  HiNetConfig cfg;
  cfg.nodes = nodes;
  cfg.heads = nodes / 8;
  cfg.hop_l = 2;
  cfg.phase_length = 1;  // a (1, L)-HiNet: every round is a new phase
  cfg.phases = kWarmupRounds + kMeasuredRounds;
  cfg.reaffiliation_prob = 0.1;
  cfg.backbone_rewire_prob = 0.1;
  cfg.churn_edges = 4;
  cfg.seed = 5;
  HiNetStream stream = make_hinet_stream(cfg);
  std::vector<std::uint64_t> counts;
  counts.reserve(kMeasuredRounds);
  for (Round r = 0; r < kWarmupRounds + kMeasuredRounds; ++r) {
    const std::uint64_t before = g_allocations.load();
    const Graph& g = stream.topology->graph_at(r);
    const HierarchyView& h = stream.hierarchy->hierarchy_at(r);
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(g.node_count(), h.node_count());
    if (r >= kWarmupRounds) counts.push_back(after - before);
  }
  return counts;
}

TEST(SynthesisAllocGate, SteadyStateRoundsAllocateASmallConstant) {
  const std::vector<std::uint64_t> small = allocs_per_round(600);
  const std::vector<std::uint64_t> large = allocs_per_round(6000);
  ASSERT_EQ(small.size(), kMeasuredRounds);
  ASSERT_EQ(large.size(), kMeasuredRounds);
  const std::uint64_t constant = small.front();
  EXPECT_LE(constant, kMaxAllocsPerRound);
  for (std::size_t i = 0; i < kMeasuredRounds; ++i) {
    EXPECT_EQ(small[i], constant) << "n=600, round " << kWarmupRounds + i;
    EXPECT_EQ(large[i], constant) << "n=6000, round " << kWarmupRounds + i;
  }
}

}  // namespace
}  // namespace hinet
