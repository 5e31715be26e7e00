// ExecutionPolicy equivalence at the experiment layer: for a fixed
// (factory, repetitions, base_seed), Serial and Threaded{jobs} must
// aggregate to byte-identical statistics (same_statistics AND equal
// stats_digest) — across every evaluation scenario, every channel model,
// fault-plan wrapping, and both base seeds — in the plain and the
// supervised executor.
#include "analysis/experiment.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "analysis/scenarios.hpp"
#include "analysis/supervisor.hpp"
#include "sim/channel.hpp"
#include "sim/faults.hpp"

namespace hinet {
namespace {

enum class ChannelKind { kPerfect, kLossy, kCollision, kGilbertElliott };

const char* channel_name(ChannelKind c) {
  switch (c) {
    case ChannelKind::kPerfect:
      return "perfect";
    case ChannelKind::kLossy:
      return "lossy";
    case ChannelKind::kCollision:
      return "collision";
    case ChannelKind::kGilbertElliott:
      return "gilbert-elliott";
  }
  return "?";
}

constexpr Scenario kAllScenarios[] = {
    Scenario::kKloInterval, Scenario::kHiNetInterval,
    Scenario::kHiNetIntervalStable, Scenario::kKloOne, Scenario::kHiNetOne};

constexpr ChannelKind kAllChannels[] = {
    ChannelKind::kPerfect, ChannelKind::kLossy, ChannelKind::kCollision,
    ChannelKind::kGilbertElliott};

constexpr std::uint64_t kBaseSeeds[] = {13, 777};

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.nodes = 24;
  cfg.heads = 6;
  cfg.k = 4;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  return cfg;
}

/// Factory for (scenario, channel): still a pure function of the seed, so
/// it satisfies the concurrent-invocation contract of every policy.
SpecFactory channel_factory(Scenario s, ChannelKind c) {
  const SpecFactory base = scenario_factory(s, small_config());
  return [base, c](std::uint64_t seed) {
    SimulationSpec spec = base(seed);
    switch (c) {
      case ChannelKind::kPerfect:
        break;
      case ChannelKind::kLossy:
        spec.channel =
            std::make_unique<LossyChannel>(0.2, seed ^ 0xc0ffee0ddccull);
        break;
      case ChannelKind::kCollision:
        spec.channel = std::make_unique<CollisionChannel>(3);
        break;
      case ChannelKind::kGilbertElliott:
        spec.channel = std::make_unique<GilbertElliottChannel>(
            GilbertElliottParams{}, seed ^ 0xbadc0deull);
        break;
    }
    return spec;
  };
}

/// The hostile variant: churn faults layered on the trace, Gilbert–Elliott
/// burst loss on the medium (the test_snapshot_faults.cpp construction).
SpecFactory faulty_factory(Scenario s) {
  const SpecFactory base = scenario_factory(s, small_config());
  return [base](std::uint64_t seed) {
    SimulationSpec spec = base(seed);
    const std::size_t horizon = spec.engine.max_rounds;
    FaultPlan plan = random_churn_plan(small_config().nodes,
                                       /*crash_count=*/4, horizon,
                                       /*downtime=*/3, seed ^ 0xfa71edull);
    spec.network = std::make_unique<FaultyNetwork>(std::move(spec.network),
                                                   std::move(plan));
    spec.channel = std::make_unique<GilbertElliottChannel>(
        GilbertElliottParams{}, seed ^ 0xbad'cafeull);
    return spec;
  };
}

/// Serial is the reference; the threaded policy must reproduce its
/// statistics bit for bit, whatever order the 3 workers finish the 5
/// replicates in.
void expect_policy_equivalence(const SpecFactory& factory,
                               std::uint64_t base_seed) {
  const std::size_t reps = 5;
  const AggregateResult serial = run_experiment(
      factory, ExperimentOptions{reps, base_seed, ExecutionPolicy::serial()});
  ASSERT_EQ(serial.repetitions, reps);

  const AggregateResult threaded = run_experiment(
      factory,
      ExperimentOptions{reps, base_seed, ExecutionPolicy::threaded(3)});
  EXPECT_TRUE(threaded.same_statistics(serial));
  EXPECT_EQ(threaded.stats_digest(), serial.stats_digest());
  EXPECT_EQ(threaded.timing.jobs, 3u);
}

class ThreadedPolicyEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(ThreadedPolicyEquivalence, DigestMatchesSerialAcrossChannelsAndSeeds) {
  const Scenario s = GetParam();
  for (const ChannelKind c : kAllChannels) {
    for (const std::uint64_t seed : kBaseSeeds) {
      SCOPED_TRACE(std::string(channel_name(c)) + " / seed " +
                   std::to_string(seed));
      expect_policy_equivalence(channel_factory(s, c), seed);
    }
  }
}

TEST_P(ThreadedPolicyEquivalence, DigestMatchesSerialUnderFaultPlans) {
  const Scenario s = GetParam();
  for (const std::uint64_t seed : kBaseSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_policy_equivalence(faulty_factory(s), seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ThreadedPolicyEquivalence, ::testing::ValuesIn(kAllScenarios),
    [](const ::testing::TestParamInfo<Scenario>& scenario_info) {
      switch (scenario_info.param) {
        case Scenario::kKloInterval: return "KloInterval";
        case Scenario::kHiNetInterval: return "HiNetInterval";
        case Scenario::kHiNetIntervalStable: return "HiNetIntervalStable";
        case Scenario::kKloOne: return "KloOne";
        case Scenario::kHiNetOne: return "HiNetOne";
      }
      return "Unknown";
    });

TEST(SupervisedThreaded, ThreadedSupervisedMatchesSerialSupervised) {
  // No journal, no failures: the supervised worker pool must match the
  // serial supervised path statistic for statistic.
  const SpecFactory factory =
      channel_factory(Scenario::kKloInterval, ChannelKind::kCollision);
  const std::size_t reps = 7;
  const std::uint64_t base_seed = 30;
  SupervisorPolicy policy;

  const SupervisedBatch serial = run_replicates_supervised(
      factory, ExperimentOptions{reps, base_seed, ExecutionPolicy::serial()},
      policy);
  const SupervisedBatch threaded = run_replicates_supervised(
      factory, ExperimentOptions{reps, base_seed, ExecutionPolicy::threaded(3)},
      policy);
  ASSERT_EQ(serial.completed(), reps);
  ASSERT_EQ(threaded.completed(), reps);
  const AggregateResult a = aggregate_supervised(serial, 1.0, 1);
  const AggregateResult b = aggregate_supervised(threaded, 1.0, 3);
  EXPECT_TRUE(a.same_statistics(b));
  EXPECT_EQ(a.stats_digest(), b.stats_digest());
}

}  // namespace
}  // namespace hinet
