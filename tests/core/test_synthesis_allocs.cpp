// Allocation gates for streaming rounds.
//
// A counting operator new (forwarding to malloc) makes heap allocations an
// exact, deterministic count, so these gates cannot flake the way a
// wall-time threshold would.  They pin two properties of a streaming
// (1, L)-HiNet run once the ring, the builders and the engine's buffers
// have grown to size:
//   - every steady-state round allocates the same small constant (<= 32);
//   - that constant does not depend on n (checked at n = 600 and 6000).
// SynthesisAllocGate counts trace synthesis alone (graph_at +
// hierarchy_at); EngineAllocGate counts whole Engine::step() rounds —
// synthesis, send, delivery and receive — so a per-packet TokenSet copy
// would show up as a count that grows with n.  They live in their own
// executable because the operator new replacement is program-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "baseline/klo.hpp"
#include "core/alg1.hpp"
#include "core/hinet_generator.hpp"
#include "sim/engine.hpp"

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

HiNetConfig stream_config(std::size_t nodes) {
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
  return cfg;
}

/// Expects every entry of `small` and `large` to be one constant that is
/// at most kMaxAllocsPerRound.
void expect_constant(const std::vector<std::uint64_t>& small,
                     const std::vector<std::uint64_t>& large) {
  ASSERT_EQ(small.size(), kMeasuredRounds);
  ASSERT_EQ(large.size(), kMeasuredRounds);
  const std::uint64_t constant = small.front();
  EXPECT_LE(constant, kMaxAllocsPerRound);
  for (std::size_t i = 0; i < kMeasuredRounds; ++i) {
    EXPECT_EQ(small[i], constant) << "n=600, round " << kWarmupRounds + i;
    EXPECT_EQ(large[i], constant) << "n=6000, round " << kWarmupRounds + i;
  }
}

/// Allocations made by each steady-state graph_at + hierarchy_at pair.
std::vector<std::uint64_t> allocs_per_round(std::size_t nodes) {
  HiNetStream stream = make_hinet_stream(stream_config(nodes));
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
  expect_constant(allocs_per_round(600), allocs_per_round(6000));
}

/// Node v starts with token v mod k, so every node has something to send
/// from the first round on.
std::vector<TokenSet> spread_tokens(std::size_t nodes, std::size_t k) {
  std::vector<TokenSet> initial(nodes, TokenSet(k));
  for (std::size_t v = 0; v < nodes; ++v) {
    initial[v].insert(static_cast<TokenId>(v % k));
  }
  return initial;
}

enum class Algorithm { kKloFlood, kAlg1 };

/// Allocations made by each steady-state Engine::step() round.
std::vector<std::uint64_t> engine_allocs_per_round(Algorithm alg,
                                                   std::size_t nodes) {
  HiNetStream stream = make_hinet_stream(stream_config(nodes));
  std::vector<ProcessPtr> processes;
  if (alg == Algorithm::kKloFlood) {
    KloFloodParams p;
    p.k = 16;
    p.rounds = kWarmupRounds + kMeasuredRounds;
    processes = make_klo_flood_processes(spread_tokens(nodes, p.k), p);
  } else {
    Alg1Params p;
    p.k = 8;
    p.phase_length = 10;
    p.phases = (kWarmupRounds + kMeasuredRounds) / p.phase_length;
    processes = make_alg1_processes(spread_tokens(nodes, p.k), p);
  }
  Engine engine(*stream.topology, stream.hierarchy.get(),
                std::move(processes));
  EngineConfig run;
  run.max_rounds = kWarmupRounds + kMeasuredRounds;
  run.stop_when_complete = false;
  engine.start(run);
  std::vector<std::uint64_t> counts;
  counts.reserve(kMeasuredRounds);
  for (Round r = 0; r < kWarmupRounds + kMeasuredRounds; ++r) {
    const std::uint64_t before = g_allocations.load();
    engine.step();
    const std::uint64_t after = g_allocations.load();
    if (r >= kWarmupRounds) counts.push_back(after - before);
  }
  return counts;
}

TEST(EngineAllocGate, KloFloodRoundsAllocateASmallConstant) {
  expect_constant(engine_allocs_per_round(Algorithm::kKloFlood, 600),
                  engine_allocs_per_round(Algorithm::kKloFlood, 6000));
}

TEST(EngineAllocGate, Alg1RoundsAllocateASmallConstant) {
  expect_constant(engine_allocs_per_round(Algorithm::kAlg1, 600),
                  engine_allocs_per_round(Algorithm::kAlg1, 6000));
}

}  // namespace
}  // namespace hinet
