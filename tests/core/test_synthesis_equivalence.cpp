// Round-synthesis equivalence and buffer-reuse safety.
//
// Round synthesis writes each realized round into reused CSR buffers (the
// streaming ring slots, FaultyNetwork's cache).  This suite pins what that
// reuse must not change:
//   - RecordedDigests: for randomised (T, L)-HiNet configs, an FNV-1a
//     digest of every round's Graph::edges() equals the value recorded
//     from the adjacency-vector Graph this CSR Graph replaced;
//   - RecordedViewDigests: a digest of every streamed round's hierarchy
//     view equals the value recorded while each phase was still checked
//     by a whole-view validate, so moving that check into the planning
//     passes changed no role and no affiliation;
//   - StreamedRoundsMatchMaterialized: each config's streamed rounds equal
//     its materialized rounds edge for edge;
//   - PhaseFreezeIsWellFormedCsr: the phase plan's row-order CSR freeze
//     yields sorted, duplicate-free, symmetric rows — every realized round
//     equals the graph rebuilt from its own edge list — and every round's
//     view passes the full HierarchyView::validate against its graph;
//   - the aliasing cases: a reference held across the next graph_at call
//     still shows its own round, because the next round goes to the other
//     slot of the default window of 2.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "core/hinet_generator.hpp"
#include "core/hinet_random_configs.hpp"
#include "graph/generators.hpp"
#include "sim/faults.hpp"

namespace hinet {
namespace {

constexpr std::size_t kConfigs = kRandomHiNetConfigs;

/// Digests of make_hinet_trace(random_hinet_config(i)), i = 0..kConfigs-1,
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

/// Digests of every streamed round's view — each node's (role, cluster)
/// — for random_hinet_config(i), i = 0..kConfigs-1, recorded while each
/// phase was still checked by a whole-view HierarchyView::validate.
constexpr std::uint64_t kRecordedViews[kConfigs] = {
    0x11201db5cbb2f2a5ULL, 0x15e8e356b8362de1ULL, 0xcaf7124b87368305ULL,
    0xc862625a84d5d564ULL, 0x44b16d35e10f209cULL, 0x408491babd0dd7e4ULL,
    0xa58532a30e384da5ULL, 0x4aa4add40afdd6c4ULL, 0xc551aeaceb0c125ULL,
    0xb1b50d31baf22fa4ULL, 0x1307c2551cafbbdcULL, 0x3e9338036aa1bdb8ULL,
    0x37fbe45711081f24ULL, 0xf035d8b6078d1f2dULL, 0x879c2bb5ba46d0e5ULL,
    0xe3b0bcd0320939f5ULL, 0x74a74a13534f6965ULL, 0xadea01b8705ded25ULL,
    0x2c5f54b2e27142c5ULL, 0x155aa5d1acd788b0ULL, 0xa12c7abbff15db25ULL,
    0x12aabb258503bee5ULL, 0xd0cfdb2183820aa3ULL, 0xadd9b89635e00f69ULL,
};

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
    const HiNetConfig cfg = random_hinet_config(i);
    HiNetTrace trace = make_hinet_trace(cfg);
    const std::uint64_t got =
        trace_digest(trace.ctvg.topology(), cfg.phases * cfg.phase_length);
    actual << "0x" << std::hex << got << "ULL, ";
    EXPECT_EQ(got, kRecorded[i]) << "config " << i << ": " << describe(cfg);
  }
  if (HasFailure()) ADD_FAILURE() << "computed digests: " << actual.str();
}

std::uint64_t view_digest(HierarchyProvider& views, std::size_t rounds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (Round r = 0; r < rounds; ++r) {
    const HierarchyView& view = views.hierarchy_at(r);
    fnv_mix(h, r);
    fnv_mix(h, view.node_count());
    for (NodeId v = 0; v < view.node_count(); ++v) {
      fnv_mix(h, (std::uint64_t{static_cast<std::uint8_t>(view.role(v))}
                  << 32) |
                     view.cluster_of(v));
    }
  }
  return h;
}

TEST(SynthesisEquivalence, RecordedViewDigests) {
  std::ostringstream actual;
  for (std::size_t i = 0; i < kConfigs; ++i) {
    const HiNetConfig cfg = random_hinet_config(i);
    HiNetStream stream = make_hinet_stream(cfg);
    const std::uint64_t got = view_digest(*stream.hierarchy, stream.rounds);
    actual << "0x" << std::hex << got << "ULL, ";
    EXPECT_EQ(got, kRecordedViews[i]) << "config " << i << ": "
                                      << describe(cfg);
  }
  if (HasFailure()) ADD_FAILURE() << "computed digests: " << actual.str();
}

TEST(SynthesisEquivalence, StreamedRoundsMatchMaterialized) {
  for (std::size_t i = 0; i < kConfigs; ++i) {
    const HiNetConfig cfg = random_hinet_config(i);
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
/// or one-sided row in the synthesized CSR makes the two differ.  Every
/// round's view also passes the full validate against that graph: the
/// generator checks each phase inside its own planning passes, and this
/// is the whole-view check those in-pass checks stand in for.
void expect_well_formed_rounds(const HiNetConfig& cfg) {
  HiNetStream stream = make_hinet_stream(cfg);
  for (Round r = 0; r < stream.rounds; ++r) {
    const Graph& g = stream.topology->graph_at(r);
    ASSERT_EQ(Graph(cfg.nodes, g.edges()), g)
        << "round " << r << ": " << describe(cfg);
    ASSERT_EQ(stream.hierarchy->hierarchy_at(r).validate(g), "")
        << "round " << r << ": " << describe(cfg);
  }
}

TEST(SynthesisEquivalence, PhaseFreezeIsWellFormedCsr) {
  for (std::size_t i = 0; i < kConfigs; ++i) {
    HiNetConfig cfg = random_hinet_config(i);
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
