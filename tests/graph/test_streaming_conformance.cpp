// Streaming == materialized conformance suite.
//
// The streaming trace layer's whole contract is byte-identical round
// emission: for every generator, StreamingNetwork::graph_at(r) must equal
// the materialized trace's graph for round r — in order, out of order,
// past the horizon, and composed with fault decorators.  This template
// pins that contract for every streaming provider in the repo so a future
// generator change that breaks draw-order equivalence fails loudly here.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/hinet_generator.hpp"
#include "core/hinet_random_configs.hpp"
#include "graph/adversary.hpp"
#include "graph/dynamic.hpp"
#include "graph/markovian.hpp"
#include "graph/mobility.hpp"
#include "sim/faults.hpp"
#include "util/binary_io.hpp"

namespace hinet {
namespace {

/// One conformance case: a streaming provider factory plus the
/// materialized reference trace it must reproduce.
struct Case {
  std::string name;
  std::function<std::unique_ptr<StreamingNetwork>(std::size_t window)> stream;
  GraphSequence reference;
};

std::vector<Case> conformance_cases() {
  std::vector<Case> cases;

  MarkovianConfig emdg;
  emdg.nodes = 24;
  emdg.rounds = 40;
  emdg.seed = 7;
  cases.push_back({"emdg",
                   [emdg](std::size_t w) {
                     return std::make_unique<EdgeMarkovianNetwork>(emdg, w);
                   },
                   make_edge_markovian_trace(emdg)});

  AdversaryConfig adv;
  adv.nodes = 20;
  adv.interval = 5;
  adv.rounds = 37;  // deliberately not a multiple of the interval
  adv.churn_edges = 3;
  adv.seed = 11;
  cases.push_back({"t_interval_tree",
                   [adv](std::size_t w) {
                     return std::make_unique<TIntervalNetwork>(adv, false, w);
                   },
                   make_t_interval_trace(adv)});
  cases.push_back({"t_interval_path",
                   [adv](std::size_t w) {
                     return std::make_unique<TIntervalNetwork>(adv, true, w);
                   },
                   make_t_interval_path_trace(adv)});

  for (const MobilityModel model :
       {MobilityModel::kRandomWaypoint, MobilityModel::kRandomWalk,
        MobilityModel::kManhattan}) {
    MobilityConfig mob;
    mob.nodes = 16;
    mob.model = model;
    mob.rounds = 30;
    mob.pause_rounds = model == MobilityModel::kRandomWaypoint ? 2 : 0;
    mob.seed = 13;
    const char* name = model == MobilityModel::kRandomWaypoint
                           ? "mobility_waypoint"
                           : model == MobilityModel::kRandomWalk
                                 ? "mobility_walk"
                                 : "mobility_manhattan";
    cases.push_back({name,
                     [mob](std::size_t w) {
                       return std::make_unique<MobilityNetwork>(mob, w);
                     },
                     MobilityTrace(mob).network()});
  }

  return cases;
}

TEST(StreamingConformance, ForwardScanMatchesMaterialized) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    auto net = c.stream(2);
    ASSERT_EQ(net->node_count(), c.reference.node_count());
    ASSERT_EQ(net->round_count(), c.reference.round_count());
    for (Round r = 0; r < c.reference.round_count(); ++r) {
      EXPECT_EQ(net->graph_at(r), c.reference.graph_at(r))
          << "round " << r << " diverges";
    }
    EXPECT_EQ(net->rewinds(), 0u) << "forward scan must never replay";
  }
}

TEST(StreamingConformance, PastHorizonRepeatsFinalRound) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    auto net = c.stream(2);
    const std::size_t horizon = c.reference.round_count();
    // Same repeat-final-round convention as GraphSequence, including far
    // past the end.
    EXPECT_EQ(net->graph_at(horizon), c.reference.graph_at(horizon));
    EXPECT_EQ(net->graph_at(horizon + 5), c.reference.graph_at(horizon + 5));
    EXPECT_EQ(net->graph_at(horizon - 1), c.reference.graph_at(horizon - 1));
  }
}

TEST(StreamingConformance, BackwardAccessReplaysDeterministically) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    auto net = c.stream(2);
    const std::size_t horizon = c.reference.round_count();
    // Jump to the end, then re-read round 0: forces a rewind, which must
    // reproduce the identical prefix.
    (void)net->graph_at(horizon - 1);
    EXPECT_EQ(net->graph_at(0), c.reference.graph_at(0));
    EXPECT_GE(net->rewinds(), 1u);
    // And the ring still serves the freshly replayed rounds.
    EXPECT_EQ(net->graph_at(1), c.reference.graph_at(1));
  }
}

TEST(StreamingConformance, WindowedResidencyServesRecentRounds) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    auto net = c.stream(4);
    const std::size_t horizon = c.reference.round_count();
    ASSERT_GE(horizon, 8u);
    (void)net->graph_at(7);
    // Rounds 4..7 are inside the ring: reading them back is replay-free.
    for (Round r = 4; r <= 7; ++r) {
      EXPECT_EQ(net->graph_at(r), c.reference.graph_at(r));
    }
    EXPECT_EQ(net->rewinds(), 0u);
  }
}

TEST(StreamingConformance, FaultyNetworkComposesWithStreaming) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    FaultPlan plan;
    CrashEvent crash;
    crash.node = 3;
    crash.round = 5;
    crash.recovery = 12;
    plan.crashes.push_back(crash);
    LinkBurst burst;
    burst.start = 8;
    burst.length = 4;
    burst.links = {{0, 1}, {1, 2}};
    plan.bursts.push_back(burst);

    auto net = c.stream(2);
    FaultyNetwork faulty_stream(*net, plan);
    FaultyNetwork faulty_ref(c.reference, plan);
    for (Round r = 0; r < c.reference.round_count(); ++r) {
      EXPECT_EQ(faulty_stream.graph_at(r), faulty_ref.graph_at(r))
          << "round " << r << " diverges under faults";
    }
  }
}

TEST(StreamingConformance, TraceStateRoundTripsMidStream) {
  for (Case& c : conformance_cases()) {
    SCOPED_TRACE(c.name);
    auto net = c.stream(2);
    const std::size_t horizon = c.reference.round_count();
    const Round cut = horizon / 2;
    for (Round r = 0; r <= cut; ++r) (void)net->graph_at(r);

    ByteWriter w;
    net->save_trace_state(w);

    // Restore into a FRESH provider: it must continue from the cut
    // without re-reading the prefix.
    auto resumed = c.stream(2);
    ByteReader r(w.buffer(), "trace state");
    resumed->restore_trace_state(r);
    r.expect_done();
    EXPECT_EQ(resumed->frontier(), cut + 1);
    for (Round rr = cut + 1; rr < horizon; ++rr) {
      EXPECT_EQ(resumed->graph_at(rr), c.reference.graph_at(rr))
          << "round " << rr << " diverges after restore";
    }
    EXPECT_EQ(resumed->rewinds(), 0u)
        << "post-restore forward scan must not replay the prefix";
  }
}

void expect_same_stats(const HiNetTraceStats& streamed,
                       const HiNetTraceStats& materialized) {
  EXPECT_EQ(streamed.theta, materialized.theta);
  EXPECT_EQ(streamed.reaffiliation_events, materialized.reaffiliation_events);
  EXPECT_EQ(streamed.head_changes, materialized.head_changes);
  EXPECT_DOUBLE_EQ(streamed.mean_members, materialized.mean_members);
  EXPECT_DOUBLE_EQ(streamed.mean_reaffiliations,
                   materialized.mean_reaffiliations);
}

TEST(StreamingConformance, HiNetStreamMatchesMaterializedTrace) {
  HiNetConfig cfg;
  cfg.nodes = 40;
  cfg.heads = 5;
  cfg.phase_length = 4;
  cfg.phases = 6;
  cfg.hop_l = 2;
  cfg.head_churn_prob = 0.3;
  cfg.backbone_rewire_prob = 0.5;
  cfg.churn_edges = 3;
  cfg.seed = 21;

  HiNetTrace trace = make_hinet_trace(cfg);
  HiNetStream stream = make_hinet_stream(cfg);
  const std::size_t rounds = cfg.phases * cfg.phase_length;
  ASSERT_EQ(stream.rounds, rounds);

  for (Round r = 0; r < rounds; ++r) {
    EXPECT_EQ(stream.topology->graph_at(r), trace.ctvg.graph_at(r))
        << "graph diverges at round " << r;
    EXPECT_TRUE(stream.hierarchy->hierarchy_at(r) == trace.ctvg.hierarchy_at(r))
        << "hierarchy diverges at round " << r;
  }
  // Past-horizon clamp matches the sequence convention on both views.
  EXPECT_EQ(stream.topology->graph_at(rounds + 3),
            trace.ctvg.graph_at(rounds + 3));
  EXPECT_TRUE(stream.hierarchy->hierarchy_at(rounds + 3) ==
              trace.ctvg.hierarchy_at(rounds + 3));

  // The dry planning pass reports the exact realized-trace statistics.
  expect_same_stats(stream.stats, trace.stats);
}

TEST(StreamingConformance, HiNetStreamStatsMatchOnRandomConfigs) {
  // The stats pass plans each phase's affiliations without freezing its
  // graph; over the shared random configs (every L, churn probability and
  // head-stability mode) it must still report the realized trace's stats.
  for (std::size_t i = 0; i < kRandomHiNetConfigs; ++i) {
    const HiNetConfig cfg = random_hinet_config(i);
    SCOPED_TRACE("config " + std::to_string(i) + ": " + describe(cfg));
    expect_same_stats(make_hinet_stream(cfg).stats,
                      make_hinet_trace(cfg).stats);
  }
}

TEST(StreamingConformance, HiNetStreamBackwardAccessReplays) {
  HiNetConfig cfg;
  cfg.nodes = 30;
  cfg.heads = 4;
  cfg.phase_length = 3;
  cfg.phases = 5;
  cfg.seed = 5;

  HiNetTrace trace = make_hinet_trace(cfg);
  HiNetStream stream = make_hinet_stream(cfg);
  const std::size_t rounds = cfg.phases * cfg.phase_length;
  (void)stream.topology->graph_at(rounds - 1);
  for (Round r = 0; r < rounds; ++r) {
    EXPECT_EQ(stream.topology->graph_at(r), trace.ctvg.graph_at(r));
    EXPECT_TRUE(stream.hierarchy->hierarchy_at(r) ==
                trace.ctvg.hierarchy_at(r));
  }
}

TEST(StreamingConformance, HiNetStateWithARepeatedBackboneNodeIsRejected) {
  // The phase plan freezes the backbone as one simple path, so restored
  // generator state whose relay list repeats a chain head must be refused
  // at restore, not turned into a malformed graph at the next phase.
  HiNetConfig cfg;
  cfg.nodes = 30;
  cfg.heads = 4;
  cfg.phase_length = 1;
  cfg.phases = 6;
  cfg.seed = 5;
  HiNetStream stream = make_hinet_stream(cfg);
  (void)stream.topology->graph_at(2);
  ByteWriter saved;
  dynamic_cast<TraceStateSource&>(*stream.topology).save_trace_state(saved);

  ByteReader outer(saved.buffer(), "trace state");
  const std::uint64_t frontier = outer.u64();
  const auto blob = outer.blob();
  std::vector<std::uint8_t> driver(blob.begin(), blob.end());
  // Walk to the layout: three RNG states, the phase, then the head set,
  // previous affiliations, chain and gateways as counted u32 vectors.
  ByteReader walk(driver, "driver state");
  for (int word = 0; word < 13; ++word) (void)walk.u64();
  const auto skip_nodes = [&walk] {
    const std::uint64_t count = walk.u64();
    for (std::uint64_t i = 0; i < count; ++i) (void)walk.u32();
  };
  skip_nodes();  // head set
  skip_nodes();  // previous affiliations
  ASSERT_EQ(walk.u64(), cfg.heads);
  const std::uint32_t first_head = walk.u32();
  for (std::size_t i = 1; i < cfg.heads; ++i) (void)walk.u32();
  ASSERT_EQ(walk.u64(), cfg.heads - 1);  // (heads - 1) * (L - 1) relays
  const std::size_t at = driver.size() - walk.remaining();
  for (int byte = 0; byte < 4; ++byte) {
    driver[at + static_cast<std::size_t>(byte)] =
        static_cast<std::uint8_t>(first_head >> (8 * byte));
  }
  ByteWriter bad;
  bad.u64(frontier);
  bad.blob(driver);

  HiNetStream fresh = make_hinet_stream(cfg);
  ByteReader r(bad.buffer(), "trace state");
  EXPECT_THROW(dynamic_cast<TraceStateSource&>(*fresh.topology)
                   .restore_trace_state(r),
               IoError);
}

TEST(StreamingConformance, HiNetStateWithDisagreeingAffiliationsIsRejected) {
  // The driver reads each member's previous head from the restored view,
  // so stored affiliations that disagree with the view are corrupt state:
  // restore refuses them instead of silently following one copy.
  HiNetConfig cfg;
  cfg.nodes = 30;
  cfg.heads = 4;
  cfg.phase_length = 1;
  cfg.phases = 6;
  cfg.seed = 5;
  HiNetStream stream = make_hinet_stream(cfg);
  (void)stream.topology->graph_at(2);
  ByteWriter saved;
  dynamic_cast<TraceStateSource&>(*stream.topology).save_trace_state(saved);

  ByteReader outer(saved.buffer(), "trace state");
  const std::uint64_t frontier = outer.u64();
  const auto blob = outer.blob();
  std::vector<std::uint8_t> driver(blob.begin(), blob.end());
  // Three RNG states and the phase, the head set, then the previous
  // affiliations: rewrite node 0's entry.
  ByteReader walk(driver, "driver state");
  for (int word = 0; word < 13; ++word) (void)walk.u64();
  const std::uint64_t heads = walk.u64();
  for (std::uint64_t i = 0; i < heads; ++i) (void)walk.u32();
  ASSERT_EQ(walk.u64(), cfg.nodes);
  const std::size_t at = driver.size() - walk.remaining();
  const std::uint32_t old = walk.u32();
  const std::uint32_t changed = old == kNoCluster ? 0u : kNoCluster;
  for (int byte = 0; byte < 4; ++byte) {
    driver[at + static_cast<std::size_t>(byte)] =
        static_cast<std::uint8_t>(changed >> (8 * byte));
  }
  ByteWriter bad;
  bad.u64(frontier);
  bad.blob(driver);

  HiNetStream fresh = make_hinet_stream(cfg);
  ByteReader r(bad.buffer(), "trace state");
  EXPECT_THROW(dynamic_cast<TraceStateSource&>(*fresh.topology)
                   .restore_trace_state(r),
               IoError);
}

TEST(StreamingConformance, MaterializeBudgetGuardThrows) {
  MarkovianConfig cfg;
  cfg.nodes = 64;
  cfg.rounds = 1000;
  cfg.seed = 3;
  EdgeMarkovianNetwork net(cfg);
  // A one-graph byte budget cannot host a thousand rounds.
  EXPECT_THROW(materialize(net, cfg.rounds, /*byte_budget=*/1024),
               PreconditionError);
  // A generous budget materializes fine and matches the stream.
  EdgeMarkovianNetwork net2(cfg);
  GraphSequence seq = materialize(net2, 8);
  EdgeMarkovianNetwork net3(cfg);
  for (Round r = 0; r < 8; ++r) {
    EXPECT_EQ(net3.graph_at(r), seq.graph_at(r));
  }
}

}  // namespace
}  // namespace hinet
