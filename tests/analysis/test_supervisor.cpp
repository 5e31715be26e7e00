// Supervisor semantics: error taxonomy, retry policy, failure isolation,
// deadlines, cancellation — plus the aggregated failure report of the
// unsupervised run_replicates (which stays all-or-nothing but must name
// every casualty, not just the first).
#include "analysis/supervisor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "analysis/scenarios.hpp"
#include "baseline/klo.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace hinet {
namespace {

ScenarioConfig tiny_config() {
  ScenarioConfig cfg;
  cfg.nodes = 16;
  cfg.heads = 4;
  cfg.k = 3;
  cfg.alpha = 2;
  cfg.hop_l = 2;
  return cfg;
}

SpecFactory tiny_factory() {
  return scenario_factory(Scenario::kHiNetOne, tiny_config());
}

/// Wraps a factory to throw `make_error()`'s exception for the listed
/// replicate seeds.
template <typename MakeError>
SpecFactory failing_for(SpecFactory base, std::set<std::uint64_t> bad_seeds,
                        MakeError make_error) {
  return [base = std::move(base), bad_seeds = std::move(bad_seeds),
          make_error](std::uint64_t seed) -> SimulationSpec {
    if (bad_seeds.count(seed) != 0) make_error();
    return base(seed);
  };
}

/// A spec that cannot finish inside any tight wall-clock budget: a long
/// fixed-schedule flood with no early stop.
SimulationSpec heavy_spec() {
  const std::size_t n = 16;
  const std::size_t k = 8;
  std::vector<TokenSet> initial(n, TokenSet(k));
  for (std::size_t v = 0; v < n; ++v) initial[v].insert(v % k);
  KloFloodParams params;
  params.k = k;
  params.rounds = 50'000'000;
  SimulationSpec spec;
  spec.network = std::make_unique<StaticNetwork>(gen::complete(n));
  spec.processes = make_klo_flood_processes(initial, params);
  spec.engine.max_rounds = params.rounds;
  spec.engine.stop_when_complete = false;
  return spec;
}

TEST(RunErrorClassification, MapsExceptionTypesToClasses) {
  EXPECT_EQ(classify_run_error(PreconditionError("x")),
            RunErrorClass::kPrecondition);
  EXPECT_EQ(classify_run_error(InvariantError("x")),
            RunErrorClass::kEngineInvariant);
  EXPECT_EQ(classify_run_error(DeadlineError("x")), RunErrorClass::kDeadline);
  EXPECT_EQ(classify_run_error(IoError("x")), RunErrorClass::kIo);
  EXPECT_EQ(classify_run_error(std::runtime_error("x")),
            RunErrorClass::kOther);

  EXPECT_FALSE(is_transient(RunErrorClass::kPrecondition));
  EXPECT_FALSE(is_transient(RunErrorClass::kEngineInvariant));
  EXPECT_FALSE(is_transient(RunErrorClass::kOther));
  EXPECT_TRUE(is_transient(RunErrorClass::kDeadline));
  EXPECT_TRUE(is_transient(RunErrorClass::kIo));
}

TEST(RunReplicatesFailureReport, CollectsEveryFailureNotJustTheFirst) {
  const std::uint64_t base_seed = 100;
  const std::set<std::uint64_t> bad = {replicate_seed(base_seed, 1),
                                       replicate_seed(base_seed, 3),
                                       replicate_seed(base_seed, 4)};
  const SpecFactory factory =
      failing_for(tiny_factory(), bad,
                  [] { throw PreconditionError("injected failure"); });
  try {
    run_replicates(factory, 6, base_seed, 2);
    FAIL() << "batch with failing replicates did not throw";
  } catch (const ReplicateBatchError& e) {
    ASSERT_EQ(e.failures().size(), 3u);
    EXPECT_EQ(e.failures()[0].replicate, 1u);
    EXPECT_EQ(e.failures()[1].replicate, 3u);
    EXPECT_EQ(e.failures()[2].replicate, 4u);
    for (const ReplicateFailure& f : e.failures()) {
      EXPECT_EQ(f.seed, replicate_seed(base_seed, f.replicate));
      EXPECT_NE(f.message.find("injected failure"), std::string::npos);
    }
    // The what() report counts the casualties and names each replicate.
    const std::string what = e.what();
    EXPECT_NE(what.find("3 replicate(s) failed"), std::string::npos) << what;
    EXPECT_NE(what.find("replicate 4"), std::string::npos) << what;
  }
}

TEST(RunReplicatesFailureReport, SeedOverflowIsRejectedUpFront) {
  const std::uint64_t near_max = std::numeric_limits<std::uint64_t>::max() - 1;
  EXPECT_THROW(run_replicates(tiny_factory(), 3, near_max, 1),
               PreconditionError);
  SupervisorPolicy policy;
  EXPECT_THROW(
      run_replicates_supervised(
          tiny_factory(),
          ExperimentOptions{3, near_max, ExecutionPolicy::threaded(1)},
          policy),
      PreconditionError);
  // Exactly at the boundary is fine: seeds near_max and near_max + 1.
  EXPECT_NO_THROW(run_replicates(tiny_factory(), 2, near_max, 1));
}

TEST(Supervisor, IsolatesFailuresAndSalvagesTheRest) {
  const std::uint64_t base_seed = 200;
  const std::set<std::uint64_t> bad = {replicate_seed(base_seed, 2)};
  const SpecFactory factory = failing_for(
      tiny_factory(), bad, [] { throw InvariantError("simulated bug"); });
  SupervisorPolicy policy;
  policy.max_retries = 2;  // must NOT retry: invariant is deterministic
  const SupervisedBatch batch =
      run_replicates_supervised(
          factory,
          ExperimentOptions{5, base_seed, ExecutionPolicy::threaded(2)},
          policy);

  EXPECT_EQ(batch.completed(), 4u);
  ASSERT_EQ(batch.failures.size(), 1u);
  EXPECT_EQ(batch.failures[0].replicate, 2u);
  EXPECT_EQ(batch.failures[0].cls, RunErrorClass::kEngineInvariant);
  EXPECT_EQ(batch.failures[0].attempts, 1u);
  EXPECT_FALSE(batch.slots[2].has_value());
  EXPECT_FALSE(batch.cancelled);

  const AggregateResult agg = aggregate_supervised(batch, 1.0, 2);
  EXPECT_EQ(agg.failed_replicates, 1u);
  EXPECT_EQ(agg.repetitions, 4u);

  // A clean run of the same sweep is a *different* result: the loss is
  // part of the statistics and of the digest.
  const AggregateResult clean = run_experiment(
      tiny_factory(),
      ExperimentOptions{5, base_seed, ExecutionPolicy::serial()});
  EXPECT_FALSE(agg.same_statistics(clean));
  EXPECT_NE(agg.stats_digest(), clean.stats_digest());
}

TEST(Supervisor, RetriesTransientFailuresWithBackoff) {
  const std::uint64_t base_seed = 300;
  const std::uint64_t flaky_seed = replicate_seed(base_seed, 1);
  auto attempts = std::make_shared<std::atomic<std::size_t>>(0);
  const SpecFactory base = tiny_factory();
  const SpecFactory factory = [base, flaky_seed,
                               attempts](std::uint64_t seed) {
    if (seed == flaky_seed &&
        attempts->fetch_add(1, std::memory_order_relaxed) == 0) {
      throw IoError("transient: scratch volume hiccup");
    }
    return base(seed);
  };

  SupervisorPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_ms = 1;
  const SupervisedBatch batch =
      run_replicates_supervised(
          factory,
          ExperimentOptions{3, base_seed, ExecutionPolicy::threaded(1)},
          policy);
  EXPECT_EQ(batch.completed(), 3u);
  EXPECT_TRUE(batch.failures.empty());
  EXPECT_EQ(batch.retried_replicates, 1u);
  EXPECT_EQ(aggregate_supervised(batch, 1.0, 1).retried_replicates, 1u);
}

TEST(Supervisor, ExhaustedRetriesReportTotalAttempts) {
  const std::uint64_t base_seed = 400;
  const std::set<std::uint64_t> bad = {replicate_seed(base_seed, 0)};
  const SpecFactory factory = failing_for(
      tiny_factory(), bad, [] { throw IoError("permanent hiccup"); });
  SupervisorPolicy policy;
  policy.max_retries = 2;
  policy.backoff_base_ms = 1;
  const SupervisedBatch batch =
      run_replicates_supervised(
          factory,
          ExperimentOptions{2, base_seed, ExecutionPolicy::threaded(1)},
          policy);
  ASSERT_EQ(batch.failures.size(), 1u);
  EXPECT_EQ(batch.failures[0].cls, RunErrorClass::kIo);
  EXPECT_EQ(batch.failures[0].attempts, 3u);  // 1 initial + 2 retries
}

TEST(Supervisor, DeadlineBoundsAStuckReplicate) {
  SupervisorPolicy policy;
  policy.deadline_ms = 1;
  policy.retry_deadline = false;
  const SpecFactory factory = [](std::uint64_t) { return heavy_spec(); };
  const SupervisedBatch batch =
      run_replicates_supervised(
          factory, ExperimentOptions{1, 1, ExecutionPolicy::threaded(1)},
          policy);
  EXPECT_EQ(batch.completed(), 0u);
  ASSERT_EQ(batch.failures.size(), 1u);
  EXPECT_EQ(batch.failures[0].cls, RunErrorClass::kDeadline);
  EXPECT_EQ(batch.failures[0].attempts, 1u);  // retry_deadline=false

  EXPECT_THROW(
      run_experiment_supervised(
          factory, ExperimentOptions{1, 1, ExecutionPolicy::threaded(1)},
          policy),
      ReplicateBatchError);
}

TEST(Supervisor, RetryDeadlinePolicyGivesDeadlinesASecondChance) {
  SupervisorPolicy policy;
  policy.deadline_ms = 1;
  policy.max_retries = 1;
  policy.backoff_base_ms = 1;
  policy.retry_deadline = true;
  const SpecFactory factory = [](std::uint64_t) { return heavy_spec(); };
  const SupervisedBatch batch =
      run_replicates_supervised(
          factory, ExperimentOptions{1, 1, ExecutionPolicy::threaded(1)},
          policy);
  ASSERT_EQ(batch.failures.size(), 1u);
  EXPECT_EQ(batch.failures[0].attempts, 2u);
}

TEST(Supervisor, PreArmedCancelRunsNothing) {
  std::atomic<bool> cancel{true};
  SupervisorPolicy policy;
  policy.cancel = &cancel;
  const SupervisedBatch batch =
      run_replicates_supervised(
          tiny_factory(), ExperimentOptions{4, 1, ExecutionPolicy::threaded(2)},
          policy);
  EXPECT_TRUE(batch.cancelled);
  EXPECT_EQ(batch.completed(), 0u);
  EXPECT_TRUE(batch.failures.empty());

  try {
    run_experiment_supervised(
        tiny_factory(), ExperimentOptions{4, 1, ExecutionPolicy::threaded(2)},
        policy);
    FAIL() << "cancelled-empty batch did not throw";
  } catch (const ReplicateBatchError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_NE(e.failures()[0].message.find("cancelled"), std::string::npos);
  }
}

TEST(Supervisor, CancelMidBatchKeepsWhatCompleted) {
  std::atomic<bool> cancel{false};
  std::atomic<std::size_t> done{0};
  SupervisorPolicy policy;
  policy.cancel = &cancel;
  policy.on_progress = [&](std::size_t, std::uint64_t) {
    if (done.fetch_add(1) + 1 >= 2) cancel.store(true);
  };
  const SupervisedBatch batch =
      run_replicates_supervised(
          tiny_factory(), ExperimentOptions{8, 1, ExecutionPolicy::threaded(1)},
          policy);
  EXPECT_TRUE(batch.cancelled);
  EXPECT_GE(batch.completed(), 2u);
  EXPECT_LT(batch.completed(), 8u);
  // Salvage still aggregates the completed prefix.
  const AggregateResult agg =
      aggregate_supervised(batch, 1.0, 1);
  EXPECT_EQ(agg.repetitions, batch.completed());
}

TEST(Supervisor, SupervisedMatchesUnsupervisedWhenNothingGoesWrong) {
  const SpecFactory factory = tiny_factory();
  const AggregateResult plain = run_experiment(
      factory, ExperimentOptions{6, 9, ExecutionPolicy::threaded(2)});
  SupervisorPolicy policy;
  const AggregateResult supervised =
      run_experiment_supervised(
          factory, ExperimentOptions{6, 9, ExecutionPolicy::threaded(2)},
          policy);
  EXPECT_TRUE(supervised.same_statistics(plain));
  EXPECT_EQ(supervised.stats_digest(), plain.stats_digest());
}

}  // namespace
}  // namespace hinet
