// Algorithm 1 conformance and Theorem 1 / Remark 1 correctness.
#include "core/alg1.hpp"

#include <gtest/gtest.h>

#include "analysis/assignment.hpp"
#include "core/hinet_generator.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace hinet {
namespace {

/// Static one-cluster CTVG: head 0, members 1..n-1 (star graph).
struct StarWorld {
  StaticNetwork net;
  HierarchySequence hier;

  explicit StarWorld(std::size_t n)
      : net([n] {
          GraphBuilder g(n);
          for (NodeId v = 1; v < n; ++v) g.add_edge(0, v);
          return g.build();
        }()),
        hier([n] {
          HierarchyView h(n);
          h.set_head(0);
          for (NodeId v = 1; v < n; ++v) h.set_member(v, 0);
          return HierarchySequence({h});
        }()) {}
};

Alg1Params params(std::size_t k, std::size_t t, std::size_t m,
                  bool stable = false) {
  Alg1Params p;
  p.k = k;
  p.phase_length = t;
  p.phases = m;
  p.stable_head_optimisation = stable;
  return p;
}

TEST(Alg1, MemberUploadsMaxIdTokenFirst) {
  StarWorld w(3);
  std::vector<TokenSet> init(3, TokenSet(4));
  init[1] = TokenSet(4, {0, 2, 3});
  Engine engine(w.net, &w.hier, make_alg1_processes(init, params(4, 6, 1)));
  TraceRecorder rec;
  engine.set_observer(rec.observer());
  engine.run({.max_rounds = 3, .stop_when_complete = false});
  // Member 1's uploads: max-id first (3, then 2, then 0), addressed to 0.
  ASSERT_GE(rec.rounds().size(), 3u);
  auto member_pkt = [&](Round r) -> const Packet* {
    for (const Packet& p : rec.rounds()[r].packets) {
      if (p.src == 1) return &p;
    }
    return nullptr;
  };
  ASSERT_NE(member_pkt(0), nullptr);
  EXPECT_EQ(member_pkt(0)->dest, 0u);
  EXPECT_EQ(member_pkt(0)->tokens, TokenSet(4, {3}));
  ASSERT_NE(member_pkt(1), nullptr);
  EXPECT_EQ(member_pkt(1)->tokens, TokenSet(4, {2}));
  ASSERT_NE(member_pkt(2), nullptr);
  EXPECT_EQ(member_pkt(2)->tokens, TokenSet(4, {0}));
}

TEST(Alg1, HeadBroadcastsMinIdTokenFirst) {
  StarWorld w(3);
  std::vector<TokenSet> init(3, TokenSet(4));
  init[0] = TokenSet(4, {1, 3});
  Engine engine(w.net, &w.hier, make_alg1_processes(init, params(4, 6, 1)));
  TraceRecorder rec;
  engine.set_observer(rec.observer());
  engine.run({.max_rounds = 2, .stop_when_complete = false});
  auto head_pkt = [&](Round r) -> const Packet* {
    for (const Packet& p : rec.rounds()[r].packets) {
      if (p.src == 0) return &p;
    }
    return nullptr;
  };
  ASSERT_NE(head_pkt(0), nullptr);
  EXPECT_EQ(head_pkt(0)->dest, kBroadcastDest);
  EXPECT_EQ(head_pkt(0)->tokens, TokenSet(4, {1}));
  ASSERT_NE(head_pkt(1), nullptr);
  EXPECT_EQ(head_pkt(1)->tokens, TokenSet(4, {3}));
}

TEST(Alg1, MemberDoesNotResendWhatHeadEchoed) {
  // Head learns token 2 from member 1, broadcasts it back; member 1 puts
  // it in TR and never re-sends, and member 2 receives it.
  StarWorld w(3);
  std::vector<TokenSet> init(3, TokenSet(1));
  init[1].insert(0);
  Engine engine(w.net, &w.hier, make_alg1_processes(init, params(1, 4, 1)));
  const SimMetrics m = engine.run({.max_rounds = 4, .stop_when_complete = false});
  EXPECT_TRUE(m.all_delivered);
  // Member 1 uploads once (round 0), head broadcasts once (round 1).
  // After that everyone is silent: total 2 packets, 2 tokens.
  EXPECT_EQ(m.packets_sent, 2u);
  EXPECT_EQ(m.tokens_sent, 2u);
}

TEST(Alg1, SilentWhenNothingNew) {
  StarWorld w(4);
  std::vector<TokenSet> init(4, TokenSet(2));  // nobody holds anything
  Engine engine(w.net, &w.hier, make_alg1_processes(init, params(2, 3, 2)));
  const SimMetrics m = engine.run({.max_rounds = 6, .stop_when_complete = false});
  EXPECT_EQ(m.packets_sent, 0u);
}

TEST(Alg1, OneClusterDisseminatesWithinOnePhase) {
  // k tokens spread over members of one star; with T >= 2k every token is
  // uploaded and re-broadcast within the first phase.
  const std::size_t n = 6, k = 4;
  StarWorld w(n);
  Rng rng(3);
  const auto init = assign_tokens(n, k, AssignmentMode::kDistinctRandom, rng);
  Engine engine(w.net, &w.hier,
                make_alg1_processes(init, params(k, 2 * k + 2, 1)));
  const SimMetrics m = engine.run(
      {.max_rounds = 2 * k + 2, .stop_when_complete = false});
  EXPECT_TRUE(m.all_delivered);
}

TEST(Alg1, FinishedAfterScheduledRounds) {
  StarWorld w(2);
  std::vector<TokenSet> init(2, TokenSet(1));
  init[0].insert(0);
  auto procs = make_alg1_processes(init, params(1, 3, 2));
  RoundContext ctx;
  ctx.round = 5;
  EXPECT_FALSE(procs[0]->finished(ctx));
  ctx.round = 6;
  EXPECT_TRUE(procs[0]->finished(ctx));
  EXPECT_EQ(alg1_scheduled_rounds(params(1, 3, 2)), 6u);
}

TEST(Alg1, RejectsBadParameters) {
  EXPECT_THROW(Alg1Process(0, TokenSet(2), params(3, 4, 1)),
               PreconditionError);  // universe mismatch
  EXPECT_THROW(Alg1Process(0, TokenSet(2), params(2, 0, 1)),
               PreconditionError);
  EXPECT_THROW(Alg1Process(0, TokenSet(2), params(2, 4, 0)),
               PreconditionError);
}

// ---------------- Theorem 1 on generated (T, L)-HiNet traces -------------

struct TheoremCase {
  std::size_t nodes, heads, k, alpha;
  int l;
  double reaff;
  std::uint64_t seed;
};

class Theorem1Sweep : public ::testing::TestWithParam<TheoremCase> {};

TEST_P(Theorem1Sweep, DeliversWithinScheduledPhases) {
  const TheoremCase c = GetParam();
  // Theorem 1 schedule: T = k + αL, M = ⌈θ/α⌉ + 1.
  const std::size_t t = c.k + c.alpha * static_cast<std::size_t>(c.l);
  const std::size_t m = (c.heads + c.alpha - 1) / c.alpha + 1;

  HiNetConfig gen;
  gen.nodes = c.nodes;
  gen.heads = c.heads;
  gen.phase_length = t;
  gen.phases = m;
  gen.hop_l = c.l;
  gen.reaffiliation_prob = c.reaff;
  gen.churn_edges = 4;
  gen.seed = c.seed;
  HiNetTrace trace = make_hinet_trace(gen);

  Rng rng(c.seed ^ 0xdeadbeefULL);
  const auto init =
      assign_tokens(c.nodes, c.k, AssignmentMode::kDistinctRandom, rng);
  Engine engine(trace.ctvg.topology(), &trace.ctvg.hierarchy(),
                make_alg1_processes(init, params(c.k, t, m)));
  const SimMetrics metrics =
      engine.run({.max_rounds = m * t, .stop_when_complete = false});
  EXPECT_TRUE(metrics.all_delivered)
      << "nodes=" << c.nodes << " heads=" << c.heads << " k=" << c.k
      << " alpha=" << c.alpha << " L=" << c.l << " seed=" << c.seed;
  EXPECT_LE(metrics.rounds_to_completion, m * t);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Theorem1Sweep,
    ::testing::Values(TheoremCase{30, 4, 4, 1, 2, 0.1, 1},
                      TheoremCase{30, 4, 4, 1, 2, 0.1, 2},
                      TheoremCase{40, 6, 8, 2, 2, 0.2, 3},
                      TheoremCase{40, 6, 8, 2, 2, 0.2, 4},
                      TheoremCase{50, 8, 6, 2, 3, 0.15, 5},
                      TheoremCase{60, 10, 10, 5, 2, 0.1, 6},
                      TheoremCase{25, 3, 5, 3, 1, 0.3, 7},
                      TheoremCase{80, 12, 12, 4, 2, 0.05, 8},
                      TheoremCase{30, 5, 3, 1, 3, 0.25, 9},
                      TheoremCase{100, 10, 8, 5, 2, 0.1, 10}));

// ---------------- Remark 1: ∞-stable head set variant ---------------------

class Remark1Sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Remark1Sweep, StableVariantDeliversAndSendsFewerMemberTokens) {
  const std::size_t nodes = 40, heads = 6, k = 6, alpha = 2;
  const int l = 2;
  const std::size_t t = k + alpha * static_cast<std::size_t>(l);
  const std::size_t m = (heads + alpha - 1) / alpha + 1;

  HiNetConfig gen;
  gen.nodes = nodes;
  gen.heads = heads;
  gen.phase_length = t;
  gen.phases = m;
  gen.hop_l = l;
  gen.reaffiliation_prob = 0.3;  // members churn between clusters
  gen.churn_edges = 4;
  gen.stable_heads = true;  // Remark 1's precondition
  gen.seed = GetParam();
  // Both algorithms run on the *same* trace.
  HiNetTrace trace_a = make_hinet_trace(gen);
  HiNetTrace trace_b = make_hinet_trace(gen);

  Rng rng(GetParam() ^ 0x1234ULL);
  const auto init =
      assign_tokens(nodes, k, AssignmentMode::kDistinctRandom, rng);

  Engine plain(trace_a.ctvg.topology(), &trace_a.ctvg.hierarchy(),
               make_alg1_processes(init, params(k, t, m, false)));
  const SimMetrics m_plain =
      plain.run({.max_rounds = m * t, .stop_when_complete = false});

  Engine stable(trace_b.ctvg.topology(), &trace_b.ctvg.hierarchy(),
                make_alg1_processes(init, params(k, t, m, true)));
  const SimMetrics m_stable =
      stable.run({.max_rounds = m * t, .stop_when_complete = false});

  EXPECT_TRUE(m_plain.all_delivered);
  EXPECT_TRUE(m_stable.all_delivered);
  // Remark 1's whole point: less communication under member churn.
  EXPECT_LE(m_stable.tokens_sent, m_plain.tokens_sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Remark1Sweep,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace hinet
