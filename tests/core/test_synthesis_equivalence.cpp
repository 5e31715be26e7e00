// Round-synthesis equivalence and buffer-reuse safety.
//
// Round synthesis writes each realized round into reused CSR buffers (the
// streaming ring slots, FaultyNetwork's cache).  This suite pins what that
// reuse must not change:
//   - RecordedDigests: for randomised (T, L)-HiNet configs, an FNV-1a
//     digest of every round's Graph::edges() equals the value recorded
//     from the adjacency-vector Graph this CSR Graph replaced;
//   - StreamedRoundsMatchMaterialized: each config's streamed rounds equal
//     its materialized rounds edge for edge;
//   - PhaseFreezeIsWellFormedCsr: the phase plan's row-order CSR freeze
//     yields sorted, duplicate-free, symmetric rows — every realized round
//     equals the graph rebuilt from its own edge list;
//   - the aliasing cases: a reference held across the next graph_at call
//     still shows its own round, because the next round goes to the other
//     slot of the default window of 2.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "core/hinet_generator.hpp"
#include "graph/generators.hpp"
#include "sim/faults.hpp"
#include "util/rng.hpp"

namespace hinet {
namespace {

constexpr std::size_t kConfigs = 24;

/// Digests of make_hinet_trace(random_config(i)), i = 0..kConfigs-1,
/// recorded with the adjacency-vector Graph (build view + lazy CSR).
constexpr std::uint64_t kRecorded[kConfigs] = {
    0x288c470fd1bef7d9ULL, 0xaa1d208beea98f72ULL, 0x609affbdea12ec3dULL,
    0xec4297ff2f9a51b2ULL, 0x1fbb926e19ba46beULL, 0xd6f9ab99ed531048ULL,
    0xb54a559888b778e2ULL, 0x504f6df430285ce0ULL, 0xb8be24fe15cd5a60ULL,
    0xf72190115e84a4b7ULL, 0x51a8dd0323e1983eULL, 0x20a04d36665d2fb2ULL,
    0x92a0fe82797aba80ULL, 0xcee7af617da3d80aULL, 0xa41f165cb9ea9327ULL,
    0xed7fa15359877805ULL, 0xe18dfb9f6cc1880aULL, 0xad46594cd208196aULL,
    0x633052c851b7df47ULL, 0x50ecdebfd0b79cc5ULL, 0xa3ca30d191b57497ULL,
    0x78cae4281558a2caULL, 0x9db87ee2b612f5fcULL, 0x9d28251b28bffcebULL,
};

HiNetConfig random_config(std::size_t index) {
  Rng rng(0x5eed0000u + index);
  HiNetConfig cfg;
  cfg.heads = 1 + rng.below(8);
  cfg.hop_l = 1 + static_cast<int>(rng.below(4));
  cfg.nodes = hinet_min_nodes(cfg.heads, cfg.hop_l) + rng.below(40);
  cfg.phase_length = 1 + rng.below(4);
  cfg.phases = 1 + rng.below(6);
  cfg.churn_edges = rng.below(7);
  const double probs[] = {0.0, 0.1, 0.5, 1.0};
  cfg.reaffiliation_prob = probs[rng.below(4)];
  cfg.head_churn_prob = probs[rng.below(4)];
  cfg.backbone_rewire_prob = probs[rng.below(4)];
  cfg.stable_heads = rng.bernoulli(0.25);
  cfg.seed = rng();
  return cfg;
}

std::string describe(const HiNetConfig& cfg) {
  std::ostringstream os;
  os << "n=" << cfg.nodes << " heads=" << cfg.heads << " L=" << cfg.hop_l
     << " T=" << cfg.phase_length << " phases=" << cfg.phases
     << " churn=" << cfg.churn_edges << " reaff=" << cfg.reaffiliation_prob
     << " head_churn=" << cfg.head_churn_prob
     << " rewire=" << cfg.backbone_rewire_prob
     << " stable_heads=" << cfg.stable_heads;
  return os.str();
}

void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t trace_digest(DynamicNetwork& net, std::size_t rounds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (Round r = 0; r < rounds; ++r) {
    const Graph& g = net.graph_at(r);
    fnv_mix(h, r);
    fnv_mix(h, g.node_count());
    for (const Edge& e : g.edges()) {
      fnv_mix(h, (std::uint64_t{e.u} << 32) | e.v);
    }
  }
  return h;
}

TEST(SynthesisEquivalence, RecordedDigests) {
  std::ostringstream actual;
  for (std::size_t i = 0; i < kConfigs; ++i) {
    const HiNetConfig cfg = random_config(i);
    HiNetTrace trace = make_hinet_trace(cfg);
    const std::uint64_t got =
        trace_digest(trace.ctvg.topology(), cfg.phases * cfg.phase_length);
    actual << "0x" << std::hex << got << "ULL, ";
    EXPECT_EQ(got, kRecorded[i]) << "config " << i << ": " << describe(cfg);
  }
  if (HasFailure()) ADD_FAILURE() << "computed digests: " << actual.str();
}

TEST(SynthesisEquivalence, StreamedRoundsMatchMaterialized) {
  for (std::size_t i = 0; i < kConfigs; ++i) {
    const HiNetConfig cfg = random_config(i);
    HiNetTrace trace = make_hinet_trace(cfg);
    HiNetStream stream = make_hinet_stream(cfg);
    for (Round r = 0; r < stream.rounds; ++r) {
      ASSERT_EQ(stream.topology->graph_at(r).edges(),
                trace.ctvg.graph_at(r).edges())
          << "config " << i << " round " << r << ": " << describe(cfg);
      ASSERT_TRUE(stream.hierarchy->hierarchy_at(r) ==
                  trace.ctvg.hierarchy_at(r))
          << "config " << i << " round " << r << ": " << describe(cfg);
    }
  }
}

/// Every round of cfg's stream equals Graph(n, edges()): the edge-list
/// constructor sorts, dedupes and symmetrizes, so any unsorted, duplicate
/// or one-sided row in the synthesized CSR makes the two differ.
void expect_well_formed_rounds(const HiNetConfig& cfg) {
  HiNetStream stream = make_hinet_stream(cfg);
  for (Round r = 0; r < stream.rounds; ++r) {
    const Graph& g = stream.topology->graph_at(r);
    ASSERT_EQ(Graph(cfg.nodes, g.edges()), g)
        << "round " << r << ": " << describe(cfg);
  }
}

TEST(SynthesisEquivalence, PhaseFreezeIsWellFormedCsr) {
  for (std::size_t i = 0; i < kConfigs; ++i) {
    HiNetConfig cfg = random_config(i);
    expect_well_formed_rounds(cfg);
    // At the minimum node count every node is a head or a relay: the
    // stable graph is the backbone path alone.
    cfg.nodes = hinet_min_nodes(cfg.heads, cfg.hop_l);
    expect_well_formed_rounds(cfg);
  }
  HiNetConfig large;
  large.nodes = 2000;
  large.heads = large.nodes / 8;
  large.phase_length = 1;
  large.phases = 6;
  large.backbone_rewire_prob = 0.1;
  large.seed = 41;
  expect_well_formed_rounds(large);
}

TEST(RingSlotAliasing, HeldStreamRoundSurvivesNextRound) {
  HiNetConfig cfg;
  cfg.nodes = 60;
  cfg.heads = 6;
  cfg.phase_length = 1;
  cfg.phases = 12;
  cfg.churn_edges = 5;
  cfg.seed = 77;
  HiNetTrace trace = make_hinet_trace(cfg);
  HiNetStream stream = make_hinet_stream(cfg);  // default window of 2
  for (Round r = 0; r + 1 < stream.rounds; ++r) {
    const Graph& held = stream.topology->graph_at(r);
    const Graph& next = stream.topology->graph_at(r + 1);
    EXPECT_NE(&held, &next) << "round " << r;
    EXPECT_EQ(held, trace.ctvg.graph_at(r)) << "round " << r;
    EXPECT_EQ(next, trace.ctvg.graph_at(r + 1)) << "round " << r + 1;
  }
}

TEST(RingSlotAliasing, HeldFaultedRoundSurvivesNextFaultedRound) {
  StaticNetwork base(gen::complete(6));
  FaultPlan plan;
  plan.crashes = {{1, 0, 1}, {2, 1, 2}};  // node 1 down in round 0, 2 in 1
  FaultyNetwork faulty(base, plan);
  const Graph& round0 = faulty.graph_at(0);
  const Graph& round1 = faulty.graph_at(1);
  EXPECT_NE(&round0, &round1);
  EXPECT_EQ(round0.degree(1), 0u);
  EXPECT_EQ(round0.degree(2), 4u);
  EXPECT_EQ(round0.edge_count(), 10u);
  EXPECT_EQ(round1.degree(1), 4u);
  EXPECT_EQ(round1.degree(2), 0u);
  EXPECT_EQ(round1.edge_count(), 10u);
}

}  // namespace
}  // namespace hinet
