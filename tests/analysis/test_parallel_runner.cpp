// Parallel experiment runner: serial/parallel statistical equivalence,
// deterministic seed derivation, timing capture and error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "analysis/experiment.hpp"
#include "analysis/scenarios.hpp"
#include "graph/generators.hpp"

namespace hinet {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.nodes = 24;
  cfg.heads = 4;
  cfg.k = 3;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  cfg.reaffiliation_prob = 0.1;
  return cfg;
}

TEST(ParallelRunner, SeedDerivationIsBasePlusIndex) {
  EXPECT_EQ(replicate_seed(100, 0), 100u);
  EXPECT_EQ(replicate_seed(100, 7), 107u);
}

// The runner's core contract: for every scenario, every worker count must
// reproduce the serial statistics exactly (bitwise-equal doubles), because
// replicate seeds and aggregation order are independent of scheduling.
class SerialParallelEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(SerialParallelEquivalence, IdenticalStatisticsAtEveryWorkerCount) {
  const ScenarioConfig cfg = small_config();
  const SpecFactory factory = scenario_factory(GetParam(), cfg);
  const std::size_t reps = 6;
  const std::uint64_t base_seed = 42;

  const AggregateResult serial = run_experiment(
      factory, ExperimentOptions{reps, base_seed, ExecutionPolicy::serial()});
  for (std::size_t jobs = 1; jobs <= 8; ++jobs) {
    const AggregateResult parallel = run_experiment(
        factory,
        ExperimentOptions{reps, base_seed, ExecutionPolicy::threaded(jobs)});
    EXPECT_TRUE(parallel.same_statistics(serial))
        << scenario_name(GetParam()) << " diverges at jobs=" << jobs
        << "\nserial:   " << serial.to_string()
        << "\nparallel: " << parallel.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, SerialParallelEquivalence,
    ::testing::Values(Scenario::kKloInterval, Scenario::kHiNetInterval,
                      Scenario::kHiNetIntervalStable, Scenario::kKloOne,
                      Scenario::kHiNetOne),
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

TEST(ParallelRunner, ReplicatesAreIndexedBySeedOffset) {
  // Each replicate must land in the slot of its own derived seed, not in
  // completion order.
  const SpecFactory factory =
      scenario_factory(Scenario::kHiNetOne, small_config());
  const auto serial = run_replicates(factory, 4, 9, 1);
  const auto parallel = run_replicates(factory, 4, 9, 4);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(serial[i].metrics.tokens_sent, parallel[i].metrics.tokens_sent)
        << "replicate " << i;
    EXPECT_EQ(serial[i].metrics.rounds_to_completion,
              parallel[i].metrics.rounds_to_completion)
        << "replicate " << i;
  }
}

TEST(ParallelRunner, TimingIsPopulated) {
  const SpecFactory factory =
      scenario_factory(Scenario::kHiNetInterval, small_config());
  const AggregateResult agg = run_experiment(
      factory, ExperimentOptions{3, 1, ExecutionPolicy::threaded(2)});
  EXPECT_EQ(agg.timing.jobs, 2u);
  EXPECT_GT(agg.timing.wall_seconds, 0.0);
  EXPECT_GT(agg.timing.runs_per_second, 0.0);
  EXPECT_EQ(agg.timing.replicate_wall_ms.n, 3u);
  EXPECT_GE(agg.timing.replicate_wall_ms.mean, 0.0);
}

TEST(ParallelRunner, TimingIsExcludedFromStatisticsComparison) {
  const SpecFactory factory =
      scenario_factory(Scenario::kHiNetInterval, small_config());
  const AggregateResult a = run_experiment(
      factory, ExperimentOptions{3, 1, ExecutionPolicy::serial()});
  const AggregateResult b = run_experiment(
      factory, ExperimentOptions{3, 1, ExecutionPolicy::threaded(3)});
  // Wall times differ run to run; statistics must still compare equal.
  EXPECT_TRUE(a.same_statistics(b));
}

TEST(ParallelRunner, ZeroJobsMeansDefaultJobs) {
  EXPECT_GE(default_jobs(), 1u);
  const SpecFactory factory =
      scenario_factory(Scenario::kKloOne, small_config());
  const AggregateResult agg = run_experiment(
      factory, ExperimentOptions{2, 5, ExecutionPolicy::threaded(0)});
  EXPECT_EQ(agg.timing.jobs, default_jobs());
}

TEST(ParallelRunner, FactoryExceptionPropagates) {
  const SpecFactory broken = [](std::uint64_t seed) -> SimulationSpec {
    if (seed >= 2) throw std::runtime_error("factory boom");
    return std::move(
        make_scenario(Scenario::kKloOne, small_config(), seed).spec);
  };
  EXPECT_THROW(
      run_experiment(broken,
                     ExperimentOptions{6, 0, ExecutionPolicy::threaded(4)}),
      std::runtime_error);
}

TEST(ParallelRunner, AllWorkersObserveEveryReplicateExactlyOnce) {
  std::atomic<int> calls{0};
  const SpecFactory counting = [&calls](std::uint64_t seed) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return std::move(
        make_scenario(Scenario::kHiNetOne, small_config(), seed).spec);
  };
  const AggregateResult agg = run_experiment(
      counting, ExperimentOptions{5, 3, ExecutionPolicy::threaded(3)});
  EXPECT_EQ(agg.repetitions, 5u);
  EXPECT_EQ(calls.load(), 5);
}

TEST(ExecutionPolicy_, FactoriesAndQueries) {
  EXPECT_EQ(ExecutionPolicy::serial().mode, ExecutionPolicy::Mode::kSerial);
  EXPECT_EQ(ExecutionPolicy::threaded(3).jobs, 3u);
  const ExecutionPolicy t = ExecutionPolicy::threaded(2);
  EXPECT_TRUE(t.is_threaded());
  EXPECT_EQ(t.effective_jobs(), 2u);
  // Serial never spins up a pool regardless of the jobs field.
  EXPECT_EQ(ExecutionPolicy::serial().effective_jobs(), 1u);
  EXPECT_EQ(std::string(to_string(ExecutionPolicy::Mode::kThreaded)),
            "threaded");
}

TEST(ParallelRunner, RequiresAtLeastOneRepetition) {
  const SpecFactory factory =
      scenario_factory(Scenario::kKloOne, small_config());
  EXPECT_THROW(
      run_experiment(factory,
                     ExperimentOptions{0, 1, ExecutionPolicy::threaded(2)}),
      PreconditionError);
}

}  // namespace
}  // namespace hinet
