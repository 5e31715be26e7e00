// ExperimentJournal: durable record/replay of completed replicates, and
// the headline guarantee it exists for — a killed sweep, resumed against
// its journal, aggregates byte-identically to a sweep that was never
// killed, at any worker count.
#include "analysis/journal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "analysis/scenarios.hpp"
#include "analysis/supervisor.hpp"
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

/// Fresh temp path per test; the previous incarnation is removed so a
/// journal constructor always starts from scratch.
std::string journal_path(const char* tag) {
  const std::string p = ::testing::TempDir() + "hinet_journal_" + tag + ".jnl";
  std::remove(p.c_str());
  return p;
}

ReplicateResult run_one(std::uint64_t seed) {
  ReplicateResult r;
  r.metrics = run_simulation(tiny_factory()(seed));
  r.wall_ms = 1.5;
  return r;
}

TEST(ExperimentJournal, AppendLookupRoundTrip) {
  const std::string path = journal_path("roundtrip");
  ExperimentJournal j(path);
  EXPECT_TRUE(j.empty());
  EXPECT_FALSE(j.contains(7));
  EXPECT_FALSE(j.lookup(7).has_value());

  const ReplicateResult r7 = run_one(7);
  const ReplicateResult r9 = run_one(9);
  j.append(7, r7);
  j.append(9, r9);

  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.contains(7));
  EXPECT_TRUE(j.contains(9));
  EXPECT_FALSE(j.contains(8));
  ASSERT_TRUE(j.lookup(7).has_value());
  EXPECT_EQ(j.lookup(7)->metrics, r7.metrics);
  EXPECT_DOUBLE_EQ(j.lookup(7)->wall_ms, r7.wall_ms);
  ASSERT_TRUE(j.lookup(9).has_value());
  EXPECT_EQ(j.lookup(9)->metrics, r9.metrics);
  EXPECT_EQ(j.dropped_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(ExperimentJournal, ReopenReplaysEveryRecord) {
  const std::string path = journal_path("reopen");
  const ReplicateResult r1 = run_one(1);
  const ReplicateResult r2 = run_one(2);
  {
    ExperimentJournal j(path);
    j.append(1, r1);
    j.append(2, r2);
  }
  ExperimentJournal j(path);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.dropped_bytes(), 0u);
  ASSERT_TRUE(j.lookup(1).has_value());
  EXPECT_EQ(j.lookup(1)->metrics, r1.metrics);
  ASSERT_TRUE(j.lookup(2).has_value());
  EXPECT_EQ(j.lookup(2)->metrics, r2.metrics);

  // And it stays appendable after a replay.
  const ReplicateResult r3 = run_one(3);
  j.append(3, r3);
  ExperimentJournal again(path);
  EXPECT_EQ(again.size(), 3u);
  std::remove(path.c_str());
}

TEST(ExperimentJournal, DuplicateSeedIsRejected) {
  const std::string path = journal_path("dup");
  ExperimentJournal j(path);
  j.append(4, run_one(4));
  EXPECT_THROW(j.append(4, run_one(4)), PreconditionError);
  EXPECT_EQ(j.size(), 1u);
  std::remove(path.c_str());
}

TEST(ExperimentJournal, KilledSweepResumesByteIdenticallyAtAnyJobCount) {
  // The acceptance-criterion test: run the sweep clean; then run it again
  // journaled but cancelled after 3 fresh completions (the graceful twin
  // of sweep_runner's --abort-after SIGKILL lever, which the CI smoke
  // exercises); then resume from the journal.  The resumed aggregate must
  // match the clean one on every statistic and on the digest, for every
  // worker count.
  const std::size_t reps = 10;
  const std::uint64_t base_seed = 21;
  const SpecFactory factory = tiny_factory();

  const AggregateResult clean = run_experiment(
      factory, ExperimentOptions{reps, base_seed, ExecutionPolicy::serial()});

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                 std::size_t{4}}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const std::string path =
        journal_path(("resume_j" + std::to_string(jobs)).c_str());

    {
      ExperimentJournal journal(path);
      std::atomic<bool> cancel{false};
      std::atomic<std::size_t> fresh{0};
      SupervisorPolicy policy;
      policy.journal = &journal;
      policy.cancel = &cancel;
      policy.on_progress = [&](std::size_t, std::uint64_t) {
        if (fresh.fetch_add(1) + 1 >= 3) cancel.store(true);
      };
      const SupervisedBatch partial =
          run_replicates_supervised(
              factory,
              ExperimentOptions{reps, base_seed,
                                ExecutionPolicy::threaded(jobs)},
              policy);
      EXPECT_TRUE(partial.cancelled);
      EXPECT_LT(partial.completed(), reps);
      EXPECT_GE(journal.size(), 3u);
      EXPECT_LT(journal.size(), reps);
    }

    ExperimentJournal journal(path);
    SupervisorPolicy policy;
    policy.journal = &journal;
    const std::size_t already = journal.size();
    const SupervisedBatch resumed =
        run_replicates_supervised(
            factory,
            ExperimentOptions{reps, base_seed, ExecutionPolicy::threaded(jobs)},
            policy);
    EXPECT_EQ(resumed.completed(), reps);
    EXPECT_EQ(resumed.from_journal, already);
    EXPECT_TRUE(resumed.failures.empty());
    EXPECT_FALSE(resumed.cancelled);
    EXPECT_EQ(journal.size(), reps);

    const AggregateResult agg = aggregate_supervised(resumed, 1.0, jobs);
    EXPECT_TRUE(agg.same_statistics(clean));
    EXPECT_EQ(agg.stats_digest(), clean.stats_digest());
    std::remove(path.c_str());
  }
}

TEST(ExperimentJournal, ResultsFromTheJournalAreTheResultsThatRan) {
  // from_journal replicates must be bit-equal to freshly executed ones —
  // the journal is a cache, not an approximation.
  const std::string path = journal_path("bitexact");
  const SpecFactory factory = tiny_factory();
  {
    ExperimentJournal journal(path);
    SupervisorPolicy policy;
    policy.journal = &journal;
    run_replicates_supervised(
        factory, ExperimentOptions{4, 50, ExecutionPolicy::threaded(1)},
        policy);
  }
  ExperimentJournal journal(path);
  for (std::size_t rep = 0; rep < 4; ++rep) {
    const std::uint64_t seed = replicate_seed(50, rep);
    ASSERT_TRUE(journal.contains(seed));
    EXPECT_EQ(journal.lookup(seed)->metrics,
              run_simulation(factory(seed)));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hinet
