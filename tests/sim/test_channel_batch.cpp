// Channel batch-interface conformance.
//
// The contract under test (channel.hpp): for every channel type with
// supports_batching() == true, ONE begin_round_batch call over N entries
// must leave every entry's channel byte-for-byte identical to N
// independent begin_round calls — same subsequent deliver() decisions AND
// the same serialized state (save_state bytes compare equal after every
// round).  The template below drives both twins of each channel through
// an identical multi-round workload, including a save_state/restore_state
// round-trip mid-run on the batched twin, and compares after every round.
//
// A custom channel that keeps the default supports_batching() == false
// pins the conservative path: the batch engine must route such channels
// through per-replicate begin_round and still match serial execution.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/scenarios.hpp"
#include "sim/batch_engine.hpp"
#include "sim/channel.hpp"

namespace hinet {
namespace {

using ChannelFactory =
    std::function<std::unique_ptr<ChannelModel>(std::uint64_t seed)>;

constexpr std::size_t kNodes = 10;
constexpr std::size_t kReplicates = 4;
constexpr Round kRounds = 12;
constexpr std::uint64_t kBaseSeed = 100;

Graph ring_graph() {
  GraphBuilder g(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    g.add_edge(v, static_cast<NodeId>((v + 1) % kNodes));
  }
  return g.build();
}

/// Per-(replicate, round) transmission list — deterministic and distinct
/// per replicate, so a batched channel that accidentally reads another
/// entry's packets diverges immediately.
std::vector<Packet> workload(std::size_t replicate, Round r) {
  std::vector<Packet> packets;
  for (NodeId v = 0; v < kNodes; ++v) {
    if ((v + replicate + r) % 3 == 0) {
      Packet p;
      p.src = v;
      p.tokens = TokenSet(4, {v % 4});
      packets.push_back(std::move(p));
    }
  }
  return packets;
}

std::vector<std::uint8_t> state_bytes(const ChannelModel& c) {
  ByteWriter w;
  c.save_state(w);
  return w.take();
}

/// The conformance template: batched twin == serial twin, byte for byte,
/// after every round; with `restore_mid_run`, the batched twins are pushed
/// through a save/restore round-trip halfway.
void expect_batch_conformance(const ChannelFactory& make,
                              bool restore_mid_run) {
  const Graph g = ring_graph();

  std::vector<std::unique_ptr<ChannelModel>> serial, batched;
  for (std::size_t i = 0; i < kReplicates; ++i) {
    serial.push_back(make(kBaseSeed + i));
    batched.push_back(make(kBaseSeed + i));
  }
  ASSERT_TRUE(batched.front()->supports_batching());

  for (Round r = 0; r < kRounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    if (restore_mid_run && r == kRounds / 2) {
      // A replicate resumed from a snapshot mid-sweep joins a fresh batch;
      // the restored channel must behave exactly like the original.
      for (std::size_t i = 0; i < kReplicates; ++i) {
        const std::vector<std::uint8_t> saved = state_bytes(*batched[i]);
        auto fresh = make(kBaseSeed + i);
        ByteReader reader(saved, "channel state");
        fresh->restore_state(reader);
        batched[i] = std::move(fresh);
      }
    }

    std::vector<std::vector<Packet>> packets;
    for (std::size_t i = 0; i < kReplicates; ++i) {
      packets.push_back(workload(i, r));
    }

    for (std::size_t i = 0; i < kReplicates; ++i) {
      serial[i]->begin_round(r, g, packets[i]);
    }
    std::vector<ChannelRoundInput> batch;
    for (std::size_t i = 0; i < kReplicates; ++i) {
      batch.push_back(ChannelRoundInput{batched[i].get(), &g, packets[i]});
    }
    batched.front()->begin_round_batch(r, batch);

    // Identical deliver sequences (receiver-major, the engine's order)
    // must make identical decisions — this also advances any loss RNG the
    // same way on both sides.
    for (std::size_t i = 0; i < kReplicates; ++i) {
      for (NodeId receiver = 0; receiver < kNodes; ++receiver) {
        for (const Packet& p : packets[i]) {
          if (p.src == receiver || !g.has_edge(p.src, receiver)) continue;
          EXPECT_EQ(serial[i]->deliver(r, p, receiver),
                    batched[i]->deliver(r, p, receiver))
              << "replicate " << i << " receiver " << receiver << " src "
              << p.src;
        }
      }
      EXPECT_EQ(state_bytes(*serial[i]), state_bytes(*batched[i]))
          << "replicate " << i << " state diverged";
    }
  }
}

struct ChannelCase {
  const char* name;
  ChannelFactory make;
};

std::vector<ChannelCase> all_channel_cases() {
  std::vector<ChannelCase> cases;
  cases.push_back({"perfect", [](std::uint64_t) {
                     return std::make_unique<PerfectChannel>();
                   }});
  cases.push_back({"lossy", [](std::uint64_t seed) {
                     return std::make_unique<LossyChannel>(0.3, seed);
                   }});
  cases.push_back({"collision", [](std::uint64_t) {
                     return std::make_unique<CollisionChannel>(1);
                   }});
  cases.push_back({"gilbert-elliott", [](std::uint64_t seed) {
                     return std::make_unique<GilbertElliottChannel>(
                         GilbertElliottParams{}, seed);
                   }});
  return cases;
}

TEST(ChannelBatchConformance, BatchedEqualsNIndependentSerialChannels) {
  for (const ChannelCase& c : all_channel_cases()) {
    SCOPED_TRACE(c.name);
    expect_batch_conformance(c.make, /*restore_mid_run=*/false);
  }
}

TEST(ChannelBatchConformance, SurvivesSaveRestoreMidBatch) {
  for (const ChannelCase& c : all_channel_cases()) {
    SCOPED_TRACE(c.name);
    expect_batch_conformance(c.make, /*restore_mid_run=*/true);
  }
}

// A channel that opts OUT of batching: LossyChannel semantics re-derived
// from its own RNG, with supports_batching() left at the base default.
class NonBatchingLossy final : public ChannelModel {
 public:
  NonBatchingLossy(double loss, std::uint64_t seed)
      : loss_(loss), rng_(seed) {}

  bool deliver(Round, const Packet&, NodeId) override {
    return !rng_.bernoulli(loss_);
  }

 private:
  double loss_;
  Rng rng_;
};

TEST(ChannelBatchConformance, DefaultSupportsBatchingIsFalse) {
  const NonBatchingLossy c(0.5, 1);
  EXPECT_FALSE(c.supports_batching());
}

TEST(ChannelBatchConformance, DefaultBatchHookLoopsBeginRoundPerEntry) {
  // The base-class begin_round_batch must visit entries in index order and
  // equal per-entry begin_round exactly; GE channels observing their own
  // chains see it.
  const Graph g = ring_graph();
  const std::vector<Packet> none;
  GilbertElliottChannel a(GilbertElliottParams{}, 7);
  GilbertElliottChannel b(GilbertElliottParams{}, 8);
  GilbertElliottChannel a2(GilbertElliottParams{}, 7);
  GilbertElliottChannel b2(GilbertElliottParams{}, 8);
  std::vector<ChannelRoundInput> batch{{&a, &g, none}, {&b, &g, none}};
  // Route through the BASE implementation explicitly (GE overrides it).
  a.ChannelModel::begin_round_batch(0, batch);
  a2.begin_round(0, g, none);
  b2.begin_round(0, g, none);
  EXPECT_EQ(state_bytes(a), state_bytes(a2));
  EXPECT_EQ(state_bytes(b), state_bytes(b2));
}

TEST(ChannelBatchConformance, BatchEngineFallsBackForNonBatchingChannels) {
  // End to end: a batch whose channels decline batching must take the
  // per-replicate begin_round path and still match serial runs exactly.
  ScenarioConfig cfg;
  cfg.nodes = 24;
  cfg.heads = 6;
  cfg.k = 4;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  const SpecFactory base = scenario_factory(Scenario::kHiNetInterval, cfg);
  const auto with_channel = [&base](std::uint64_t seed) {
    SimulationSpec spec = base(seed);
    spec.channel = std::make_unique<NonBatchingLossy>(0.2, seed ^ 0x5eedull);
    return spec;
  };

  std::vector<SimulationSpec> specs;
  for (std::uint64_t seed = 50; seed < 53; ++seed) {
    specs.push_back(with_channel(seed));
  }
  BatchEngine engine(std::move(specs));
  const BatchOutcome outcome = engine.run();
  ASSERT_TRUE(outcome.failures.empty());
  for (std::uint64_t seed = 50; seed < 53; ++seed) {
    const SimMetrics serial = run_simulation(with_channel(seed));
    EXPECT_TRUE(*outcome.slots[seed - 50] == serial) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hinet
