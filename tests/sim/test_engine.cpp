// Engine semantics tests, using a tiny scripted process.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"
#include "sim/channel.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace hinet {
namespace {

/// Broadcasts its whole set every round; unions everything heard.
class EchoProcess final : public Process {
 public:
  EchoProcess(NodeId self, TokenSet initial, std::size_t quiet_after = kNever)
      : self_(self), ta_(std::move(initial)), quiet_after_(quiet_after) {}

  std::optional<Packet> transmit(const RoundContext& ctx) override {
    ++transmissions_;
    if (ctx.round >= quiet_after_ || ta_.empty()) return std::nullopt;
    Packet pkt;
    pkt.src = self_;
    pkt.tokens = ta_;
    return pkt;
  }

  void receive(const RoundContext&, InboxView inbox) override {
    last_inbox_senders_.clear();
    for (PacketView pkt : inbox) {
      last_inbox_senders_.push_back(pkt->src);
      ta_.unite(pkt->tokens);
    }
  }

  const TokenSet& knowledge() const override { return ta_; }

  std::size_t transmissions() const { return transmissions_; }
  const std::vector<NodeId>& last_inbox_senders() const {
    return last_inbox_senders_;
  }

 private:
  NodeId self_;
  TokenSet ta_;
  std::size_t quiet_after_;
  std::size_t transmissions_ = 0;
  std::vector<NodeId> last_inbox_senders_;
};

std::vector<ProcessPtr> echo_processes(std::size_t n, std::size_t k,
                                       NodeId token_holder) {
  std::vector<ProcessPtr> ps;
  for (NodeId v = 0; v < n; ++v) {
    TokenSet init(k);
    if (v == token_holder) {
      for (TokenId t = 0; t < k; ++t) init.insert(t);
    }
    ps.push_back(std::make_unique<EchoProcess>(v, std::move(init)));
  }
  return ps;
}

TEST(Engine, FloodsAcrossAPathInDiameterRounds) {
  StaticNetwork net(gen::path(5));
  Engine engine(net, nullptr, echo_processes(5, 2, 0));
  const SimMetrics m = engine.run({.max_rounds = 10, .stop_when_complete = true});
  EXPECT_TRUE(m.all_delivered);
  EXPECT_EQ(m.rounds_to_completion, 4u);  // distance 0 -> 4
  EXPECT_EQ(m.rounds_executed, 4u);
}

TEST(Engine, StopWhenCompleteFalseRunsFullBudget) {
  StaticNetwork net(gen::path(3));
  Engine engine(net, nullptr, echo_processes(3, 1, 0));
  const SimMetrics m =
      engine.run({.max_rounds = 7, .stop_when_complete = false});
  EXPECT_TRUE(m.all_delivered);
  EXPECT_EQ(m.rounds_to_completion, 2u);
  EXPECT_EQ(m.rounds_executed, 7u);
}

TEST(Engine, CountsTokensPerTransmissionNotPerReceiver) {
  // A star: the hub's broadcast reaches 3 nodes but costs its own size
  // once.
  StaticNetwork net(gen::star(4));
  Engine engine(net, nullptr, echo_processes(4, 2, 0));
  const SimMetrics m = engine.run({.max_rounds = 1, .stop_when_complete = true});
  // Round 0: only the hub holds tokens; one packet of 2 tokens.
  EXPECT_EQ(m.packets_sent, 1u);
  EXPECT_EQ(m.tokens_sent, 2u);
}

TEST(Engine, DeliveryRespectsRoundGraph) {
  // Dynamic: round 0 only edge 0-1, round 1 only edge 1-2.
  std::vector<Graph> rounds;
  rounds.push_back(Graph(3, {{0, 1}}));
  rounds.push_back(Graph(3, {{1, 2}}));
  GraphSequence net(std::move(rounds));
  Engine engine(net, nullptr, echo_processes(3, 1, 0));
  const SimMetrics m = engine.run({.max_rounds = 5, .stop_when_complete = true});
  EXPECT_TRUE(m.all_delivered);
  EXPECT_EQ(m.rounds_to_completion, 2u);
}

TEST(Engine, NoSelfDelivery) {
  StaticNetwork net(gen::complete(2));
  std::vector<ProcessPtr> ps = echo_processes(2, 1, 0);
  auto* p0 = static_cast<EchoProcess*>(ps[0].get());
  Engine engine(net, nullptr, std::move(ps));
  engine.run({.max_rounds = 1, .stop_when_complete = false});
  // Node 0 transmitted but must not hear itself.
  EXPECT_TRUE(p0->last_inbox_senders().empty());
}

TEST(Engine, InboxOrderedBySenderId) {
  StaticNetwork net(gen::complete(4));
  std::vector<ProcessPtr> ps;
  for (NodeId v = 0; v < 4; ++v) {
    TokenSet init(4);
    init.insert(v);  // everyone holds one token -> everyone transmits
    ps.push_back(std::make_unique<EchoProcess>(v, std::move(init)));
  }
  auto* p3 = static_cast<EchoProcess*>(ps[3].get());
  Engine engine(net, nullptr, std::move(ps));
  engine.run({.max_rounds = 1, .stop_when_complete = false});
  EXPECT_EQ(p3->last_inbox_senders(), (std::vector<NodeId>{0, 1, 2}));
}

TEST(Engine, PerRoundSeriesRecorded) {
  StaticNetwork net(gen::path(3));
  Engine engine(net, nullptr, echo_processes(3, 1, 0));
  const SimMetrics m =
      engine.run({.max_rounds = 4, .stop_when_complete = false});
  ASSERT_EQ(m.tokens_sent_per_round.size(), 4u);
  ASSERT_EQ(m.complete_nodes_per_round.size(), 4u);
  EXPECT_EQ(m.complete_nodes_per_round[0], 2u);  // holder + neighbour
  EXPECT_EQ(m.complete_nodes_per_round[1], 3u);
}

TEST(Engine, NeverDeliversWhenDisconnected) {
  StaticNetwork net(Graph(3));  // no edges ever
  Engine engine(net, nullptr, echo_processes(3, 1, 0));
  const SimMetrics m = engine.run({.max_rounds = 5, .stop_when_complete = true});
  EXPECT_FALSE(m.all_delivered);
  EXPECT_EQ(m.rounds_to_completion, kNever);
  EXPECT_EQ(m.rounds_executed, 5u);
}

TEST(Engine, ObserverSeesEveryRound) {
  StaticNetwork net(gen::path(3));
  Engine engine(net, nullptr, echo_processes(3, 1, 0));
  TraceRecorder rec;
  engine.set_observer(rec.observer());
  engine.run({.max_rounds = 3, .stop_when_complete = false});
  ASSERT_EQ(rec.rounds().size(), 3u);
  EXPECT_EQ(rec.rounds()[0].packets.size(), 1u);
  EXPECT_EQ(rec.rounds()[0].packets[0].src, 0u);
  const std::string rendered = rec.render();
  EXPECT_NE(rendered.find("round 0:"), std::string::npos);
  EXPECT_NE(rendered.find("0 -> *"), std::string::npos);
}

TEST(Engine, RunIsSingleShot) {
  StaticNetwork net(gen::path(2));
  Engine engine(net, nullptr, echo_processes(2, 1, 0));
  engine.run({.max_rounds = 1, .stop_when_complete = true});
  EXPECT_THROW(engine.run({.max_rounds = 1, .stop_when_complete = true}),
               PreconditionError);
}

TEST(Engine, SpecOwningEngineRunsWithOwnConfig) {
  SimulationSpec spec;
  spec.network = std::make_unique<StaticNetwork>(gen::path(5));
  spec.processes = echo_processes(5, 2, 0);
  spec.engine.max_rounds = 10;
  spec.engine.stop_when_complete = true;
  Engine engine(std::move(spec));
  const SimMetrics m = engine.run();
  EXPECT_TRUE(m.all_delivered);
  EXPECT_EQ(m.rounds_to_completion, 4u);
}

TEST(Engine, SpecOwningEngineRunIsSingleShot) {
  SimulationSpec spec;
  spec.network = std::make_unique<StaticNetwork>(gen::path(2));
  spec.processes = echo_processes(2, 1, 0);
  spec.engine.max_rounds = 1;
  Engine engine(std::move(spec));
  engine.run();
  EXPECT_THROW(engine.run(), PreconditionError);
}

TEST(Engine, BorrowingEngineRejectsArglessRun) {
  StaticNetwork net(gen::path(2));
  Engine engine(net, nullptr, echo_processes(2, 1, 0));
  EXPECT_THROW(engine.run(), PreconditionError);
}

TEST(Engine, SpecRequiresNetwork) {
  SimulationSpec spec;
  spec.processes = echo_processes(2, 1, 0);
  EXPECT_THROW(Engine{std::move(spec)}, PreconditionError);
}

// run_simulation() validates the spec up front with actionable messages;
// these tests pin both the rejection and the message content so a
// mis-built spec fails naming the field to fix.

std::string run_simulation_error(SimulationSpec spec) {
  try {
    run_simulation(std::move(spec));
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(SpecValidation, RejectsZeroMaxRounds) {
  SimulationSpec spec;
  spec.network = std::make_unique<StaticNetwork>(gen::path(2));
  spec.processes = echo_processes(2, 1, 0);
  spec.engine.max_rounds = 0;
  const std::string msg = run_simulation_error(std::move(spec));
  EXPECT_NE(msg.find("max_rounds"), std::string::npos) << msg;
  EXPECT_NE(msg.find("no rounds"), std::string::npos) << msg;
}

TEST(SpecValidation, RejectsProcessCountMismatchWithCounts) {
  SimulationSpec spec;
  spec.network = std::make_unique<StaticNetwork>(gen::path(3));
  spec.processes = echo_processes(2, 1, 0);
  spec.engine.max_rounds = 5;
  const std::string msg = run_simulation_error(std::move(spec));
  // The message names both counts so the off-by-what is obvious.
  EXPECT_NE(msg.find("2 entries"), std::string::npos) << msg;
  EXPECT_NE(msg.find("3-node"), std::string::npos) << msg;
}

TEST(SpecValidation, RejectsHierarchyNodeCountMismatch) {
  SimulationSpec spec;
  spec.network = std::make_unique<StaticNetwork>(gen::path(3));
  spec.processes = echo_processes(3, 1, 0);
  spec.hierarchy = std::make_unique<HierarchySequence>(
      std::vector<HierarchyView>{HierarchyView(4)});
  spec.engine.max_rounds = 5;
  const std::string msg = run_simulation_error(std::move(spec));
  EXPECT_NE(msg.find("hierarchy"), std::string::npos) << msg;
  EXPECT_NE(msg.find("4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("3"), std::string::npos) << msg;
}

TEST(SpecValidation, RejectsTraceRoundCountMismatch) {
  // Both sides are explicit traces of different length: almost always a
  // mis-assembled spec (roles would silently freeze).
  std::vector<Graph> rounds(4, gen::path(3));
  std::vector<HierarchyView> hier(2, HierarchyView(3));
  SimulationSpec spec;
  spec.network = std::make_unique<GraphSequence>(std::move(rounds));
  spec.hierarchy = std::make_unique<HierarchySequence>(std::move(hier));
  spec.processes = echo_processes(3, 1, 0);
  spec.engine.max_rounds = 4;
  const std::string msg = run_simulation_error(std::move(spec));
  EXPECT_NE(msg.find("4 rounds"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2"), std::string::npos) << msg;
}

TEST(SpecValidation, AcceptsMatchingTraces) {
  std::vector<Graph> rounds(3, gen::path(2));
  std::vector<HierarchyView> hier(3, HierarchyView(2));
  SimulationSpec spec;
  spec.network = std::make_unique<GraphSequence>(std::move(rounds));
  spec.hierarchy = std::make_unique<HierarchySequence>(std::move(hier));
  spec.processes = echo_processes(2, 1, 0);
  spec.engine.max_rounds = 3;
  const SimMetrics m = run_simulation(std::move(spec));
  EXPECT_TRUE(m.all_delivered);
}

TEST(Engine, SpecOwnedChannelIsApplied) {
  // A channel dropping everything: delivery must never happen.
  class BlackholeChannel final : public ChannelModel {
   public:
    bool deliver(Round, const Packet&, NodeId) override { return false; }
  };
  SimulationSpec spec;
  spec.network = std::make_unique<StaticNetwork>(gen::path(2));
  spec.processes = echo_processes(2, 1, 0);
  spec.channel = std::make_unique<BlackholeChannel>();
  spec.engine.max_rounds = 5;
  Engine engine(std::move(spec));
  const SimMetrics m = engine.run();
  EXPECT_FALSE(m.all_delivered);
}

TEST(Engine, RejectsWrongProcessCount) {
  StaticNetwork net(gen::path(3));
  EXPECT_THROW(Engine(net, nullptr, echo_processes(2, 1, 0)),
               PreconditionError);
}

TEST(Engine, RejectsMismatchedUniverses) {
  StaticNetwork net(gen::path(2));
  std::vector<ProcessPtr> ps;
  ps.push_back(std::make_unique<EchoProcess>(0, TokenSet(2)));
  ps.push_back(std::make_unique<EchoProcess>(1, TokenSet(3)));
  EXPECT_THROW(Engine(net, nullptr, std::move(ps)), PreconditionError);
}

TEST(Engine, HierarchyIsVisibleToProcesses) {
  /// A process that asserts its role matches the provided hierarchy.
  class RoleCheckProcess final : public Process {
   public:
    RoleCheckProcess(NodeId self, NodeRole expected)
        : self_(self), expected_(expected), ta_(1) {}
    std::optional<Packet> transmit(const RoundContext& ctx) override {
      EXPECT_EQ(ctx.role(), expected_) << "node " << self_;
      return std::nullopt;
    }
    void receive(const RoundContext&, InboxView) override {}
    const TokenSet& knowledge() const override { return ta_; }

   private:
    NodeId self_;
    NodeRole expected_;
    TokenSet ta_;
  };

  StaticNetwork net(gen::star(3));
  HierarchyView h(3);
  h.set_head(0);
  h.set_member(1, 0);
  h.set_member(2, 0, true);
  HierarchySequence hier({h});
  std::vector<ProcessPtr> ps;
  ps.push_back(std::make_unique<RoleCheckProcess>(0, NodeRole::kHead));
  ps.push_back(std::make_unique<RoleCheckProcess>(1, NodeRole::kMember));
  ps.push_back(std::make_unique<RoleCheckProcess>(2, NodeRole::kGateway));
  Engine engine(net, &hier, std::move(ps));
  const SimMetrics m = engine.run({.max_rounds = 2, .stop_when_complete = false});
  EXPECT_EQ(m.packets_sent, 0u);
}

TEST(Engine, FlatViewWhenNoHierarchy) {
  class FlatCheckProcess final : public Process {
   public:
    explicit FlatCheckProcess(NodeId) : ta_(1) {}
    std::optional<Packet> transmit(const RoundContext& ctx) override {
      EXPECT_EQ(ctx.role(), NodeRole::kMember);
      EXPECT_EQ(ctx.cluster(), kNoCluster);
      return std::nullopt;
    }
    void receive(const RoundContext&, InboxView) override {}
    const TokenSet& knowledge() const override { return ta_; }

   private:
    TokenSet ta_;
  };
  StaticNetwork net(gen::path(2));
  std::vector<ProcessPtr> ps;
  ps.push_back(std::make_unique<FlatCheckProcess>(0));
  ps.push_back(std::make_unique<FlatCheckProcess>(1));
  Engine engine(net, nullptr, std::move(ps));
  engine.run({.max_rounds = 1, .stop_when_complete = false});
}

// --- gather-delivery oracle ---------------------------------------------
//
// The engine gathers each receiver's inbox from its CSR row.  The oracle
// here knows nothing of CSR: it keeps each round's edges as a set, and
// says receiver v hears exactly {u : {u, v} is an edge, u transmitted},
// senders ascending, with the channel consulted receivers ascending and,
// per receiver, senders ascending.

/// Transmits on the rounds `speaks` marks; records each inbox's senders.
class GatherProbe final : public Process {
 public:
  using Heard = std::vector<std::vector<std::vector<NodeId>>>;  // [r][v]

  GatherProbe(NodeId self, const std::vector<std::vector<char>>* speaks,
              Heard* heard)
      : self_(self), speaks_(speaks), heard_(heard), ta_(1) {}

  std::optional<Packet> transmit(const RoundContext& ctx) override {
    if ((*speaks_)[ctx.round][self_] == 0) return std::nullopt;
    Packet pkt;
    pkt.src = self_;
    pkt.tokens = TokenSet(1, {0});
    return pkt;
  }

  void receive(const RoundContext& ctx, InboxView inbox) override {
    auto& got = (*heard_)[ctx.round][self_];
    for (PacketView pkt : inbox) got.push_back(pkt->src);
  }

  const TokenSet& knowledge() const override { return ta_; }

 private:
  NodeId self_;
  const std::vector<std::vector<char>>* speaks_;
  Heard* heard_;
  TokenSet ta_;
};

struct DeliverCall {
  Round round;
  NodeId src;
  NodeId receiver;
  friend bool operator==(const DeliverCall&, const DeliverCall&) = default;
};

/// Forwards to a LossyChannel and logs every deliver() call.
class RecordingChannel final : public ChannelModel {
 public:
  RecordingChannel(double loss, std::uint64_t seed,
                   std::vector<DeliverCall>* calls)
      : inner_(loss, seed), calls_(calls) {}

  bool deliver(Round r, const Packet& pkt, NodeId receiver) override {
    calls_->push_back({r, pkt.src, receiver});
    return inner_.deliver(r, pkt, receiver);
  }

 private:
  LossyChannel inner_;
  std::vector<DeliverCall>* calls_;
};

struct GatherCase {
  std::size_t n = 0;
  std::vector<std::vector<Edge>> rounds;  ///< each round's edge list
  FaultPlan faults;                       ///< crash-only, may be empty
};

/// Runs the case through the engine and checks every inbox (and, with a
/// channel, every deliver() call) against the edge-set reference.
void check_gather(const GatherCase& c, bool lossy, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << " lossy " << lossy);
  const std::size_t n = c.n;
  const std::size_t rounds = c.rounds.size();
  constexpr double kLoss = 0.3;

  Rng rng(seed);
  std::vector<std::vector<char>> speaks(rounds, std::vector<char>(n, 0));
  for (auto& row : speaks) {
    for (char& s : row) s = rng.bernoulli(0.6) ? 1 : 0;
  }

  GatherProbe::Heard heard(rounds, std::vector<std::vector<NodeId>>(n));
  std::vector<DeliverCall> calls;
  std::vector<Graph> graphs;
  for (const auto& edges : c.rounds) graphs.emplace_back(n, edges);
  SimulationSpec spec;
  auto base = std::make_unique<GraphSequence>(std::move(graphs));
  if (c.faults.empty()) {
    spec.network = std::move(base);
  } else {
    spec.network = std::make_unique<FaultyNetwork>(std::move(base), c.faults);
  }
  for (NodeId v = 0; v < n; ++v) {
    spec.processes.push_back(std::make_unique<GatherProbe>(v, &speaks, &heard));
  }
  if (lossy) {
    spec.channel = std::make_unique<RecordingChannel>(kLoss, seed, &calls);
  }
  spec.engine.max_rounds = rounds;
  spec.engine.stop_when_complete = false;
  run_simulation(std::move(spec));

  LossyChannel reference_channel(kLoss, seed);
  std::vector<DeliverCall> expected_calls;
  for (Round r = 0; r < rounds; ++r) {
    std::vector<std::set<NodeId>> nbrs(n);
    for (const Edge& e : c.rounds[r]) {
      if (c.faults.node_down(e.u, r) || c.faults.node_down(e.v, r)) continue;
      nbrs[e.u].insert(e.v);
      nbrs[e.v].insert(e.u);
    }
    for (NodeId v = 0; v < n; ++v) {
      std::vector<NodeId> expected;
      for (NodeId u : nbrs[v]) {
        if (speaks[r][u] == 0) continue;
        if (lossy) {
          expected_calls.push_back({r, u, v});
          Packet pkt;
          pkt.src = u;
          pkt.tokens = TokenSet(1, {0});
          if (!reference_channel.deliver(r, pkt, v)) continue;
        }
        expected.push_back(u);
      }
      ASSERT_EQ(heard[r][v], expected) << "round " << r << " receiver " << v;
    }
  }
  EXPECT_EQ(calls, expected_calls);
}

std::vector<Edge> random_edges(std::size_t n, std::size_t count, Rng& rng) {
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < count; ++i) {
    const auto a = static_cast<NodeId>(rng.below(n));
    const auto b = static_cast<NodeId>(rng.below(n));
    if (a != b) edges.push_back(make_edge(a, b));
  }
  return edges;
}

TEST(EngineGatherOracle, RandomGraphsWithIsolatedNodes) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 101);
    GatherCase c;
    c.n = 40;
    // Edges only among the first 30 nodes: 30..39 stay isolated, and the
    // sparse random draws isolate more nodes in some rounds.
    for (int r = 0; r < 8; ++r) c.rounds.push_back(random_edges(30, 35, rng));
    check_gather(c, /*lossy=*/false, seed);
    check_gather(c, /*lossy=*/true, seed);
  }
}

TEST(EngineGatherOracle, HighDegreeRowAfterLowDegreeRows) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 211);
    GatherCase c;
    c.n = 50;
    for (int r = 0; r < 6; ++r) {
      // A sparse path over 0..48, then node 49 adjacent to everyone.
      std::vector<Edge> edges = random_edges(49, 20, rng);
      for (NodeId v = 0; v + 1 < 49; v += 3) edges.push_back({v, v + 1});
      for (NodeId v = 0; v < 49; ++v) edges.push_back({v, 49});
      c.rounds.push_back(std::move(edges));
    }
    check_gather(c, /*lossy=*/false, seed);
    check_gather(c, /*lossy=*/true, seed);
  }
}

TEST(EngineGatherOracle, FaultFilteredTrace) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 307);
    GatherCase c;
    c.n = 36;
    for (int r = 0; r < 10; ++r) c.rounds.push_back(random_edges(36, 70, rng));
    c.faults = random_churn_plan(c.n, /*crash_count=*/6, /*horizon=*/8,
                                 /*downtime=*/3, seed);
    ASSERT_FALSE(c.faults.crashes.empty());
    check_gather(c, /*lossy=*/false, seed);
    check_gather(c, /*lossy=*/true, seed);
  }
}

}  // namespace
}  // namespace hinet
