// ExperimentService end-to-end: content-addressed admission, deduped
// execution, journal resume, admission control, and the simulate-once
// serve-many contract (counter-verified cache hits).
#include "service/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/journal.hpp"
#include "analysis/scenarios.hpp"
#include "util/require.hpp"

namespace hinet {
namespace {

JobSpec tiny_spec(std::uint64_t base_seed = 7, std::uint64_t reps = 2) {
  JobSpec spec;
  spec.scenario = Scenario::kHiNetOne;
  spec.config.nodes = 12;
  spec.config.heads = 3;
  spec.config.k = 3;
  spec.config.alpha = 2;
  spec.config.hop_l = 2;
  spec.base_seed = base_seed;
  spec.repetitions = reps;
  return spec;
}

std::string fresh_dir(const char* tag) {
  const std::string dir = ::testing::TempDir() + "hinet_service_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Service, SubmitRunQueryLifecycle) {
  ExperimentService service(fresh_dir("lifecycle"), {});
  const JobSpec spec = tiny_spec();

  EXPECT_EQ(service.submit(spec), ExperimentService::SubmitOutcome::kEnqueued);
  EXPECT_EQ(service.submit(spec),
            ExperimentService::SubmitOutcome::kAlreadyPending);
  EXPECT_EQ(service.pending(), 1u);

  const ServiceReport report = service.run_pending();
  EXPECT_EQ(report.executed_jobs, 1u);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.failed_jobs, 0u);
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_FALSE(std::filesystem::exists(service.journal_path(spec)))
      << "published job must not leave its journal behind";

  // Second submission of a stored (spec, seed) is a pure cache hit: no
  // queue traffic, no simulation — counter-verified through the store.
  EXPECT_EQ(service.submit(spec), ExperimentService::SubmitOutcome::kCacheHit);
  EXPECT_EQ(service.pending(), 0u);
  const std::size_t hits_before = service.store().counters().hits;
  const std::optional<StoredResult> got = service.store().load(spec);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(service.store().counters().hits, hits_before + 1);
  EXPECT_EQ(got->replicates.size(), spec.repetitions);
}

TEST(Service, QueuedDuplicateOfStoredJobBecomesCacheHit) {
  // A job can land in the queue while an identical one is already stored
  // (e.g. two submitters racing a drain).  run_pending must acknowledge it
  // from the store, never simulate it again.
  const std::string dir = fresh_dir("dedupe");
  {
    ExperimentService service(dir, {});
    service.submit(tiny_spec());
    service.run_pending();
  }
  // Re-enqueue the same spec directly (bypassing submit's cache check the
  // way a pre-crash submission would have).
  {
    ExperimentService service(dir, {});
    {
      // Scoped: the queue's writer lock must release before run_pending
      // opens its own wait-mode handle.
      JobQueue queue(service.queue_path(), 256, FramedLog::Access::kWait);
      queue.submit(tiny_spec());
    }
    const ServiceReport report = service.run_pending();
    EXPECT_EQ(report.executed_jobs, 0u);
    EXPECT_EQ(report.cache_hits, 1u);
    EXPECT_EQ(service.pending(), 0u);
  }
}

TEST(Service, AdmissionIsBounded) {
  ServiceOptions options;
  options.max_pending = 2;
  ExperimentService service(fresh_dir("bounded"), options);
  EXPECT_EQ(service.submit(tiny_spec(1)),
            ExperimentService::SubmitOutcome::kEnqueued);
  EXPECT_EQ(service.submit(tiny_spec(100)),
            ExperimentService::SubmitOutcome::kEnqueued);
  EXPECT_THROW(service.submit(tiny_spec(200)), QueueFullError);
  // Rejection is not sticky: draining frees capacity.
  service.run_pending();
  EXPECT_EQ(service.submit(tiny_spec(200)),
            ExperimentService::SubmitOutcome::kEnqueued);
}

TEST(Service, PendingJobsSurviveReopen) {
  const std::string dir = fresh_dir("reopen");
  const JobSpec spec = tiny_spec();
  {
    ExperimentService service(dir, {});
    service.submit(spec);
  }
  ExperimentService service(dir, {});
  EXPECT_EQ(service.pending(), 1u);
  const ServiceReport report = service.run_pending();
  EXPECT_EQ(report.executed_jobs, 1u);
  EXPECT_TRUE(service.store().contains(spec));
}

TEST(Service, JournaledReplicatesAreNotReExecuted) {
  // Simulate a drain killed mid-job: the journal already holds replicate 0.
  // The resumed drain must execute only the missing replicate and still
  // publish a result byte-identical to an uninterrupted run.
  const std::string dir = fresh_dir("resume");
  const JobSpec spec = tiny_spec(7, 2);

  std::uint64_t uninterrupted_digest = 0;
  {
    ExperimentService service(fresh_dir("resume_clean"), {});
    service.submit(spec);
    service.run_pending();
    uninterrupted_digest = query_digest(*service.store().load(spec));
  }

  {
    ExperimentService service(dir, {});
    service.submit(spec);
    // Pre-seed the journal exactly as the killed run would have left it.
    const std::vector<ReplicateResult> reps =
        run_replicates(scenario_factory(spec.scenario, spec.config), 1,
                       spec.base_seed, 1);
    ExperimentJournal journal(service.journal_path(spec));
    journal.append(spec.base_seed, reps[0]);
  }

  ExperimentService service(dir, {});
  const ServiceReport report = service.run_pending();
  EXPECT_EQ(report.executed_jobs, 1u);
  EXPECT_EQ(report.resumed_replicates, 1u);
  EXPECT_EQ(query_digest(*service.store().load(spec)),
            uninterrupted_digest);
}

TEST(Service, HeldJournalDefersTheJobToItsHolder) {
  // Another writer (a zombie drain still executing, say) holds the job's
  // journal.  The drain must leave the job pending for it instead of
  // writing frames into a journal it does not own; once the holder is
  // gone, the next drain resumes every replicate the holder recorded.
  const std::string dir = fresh_dir("held_journal");
  const JobSpec spec = tiny_spec(11, 2);
  ExperimentService service(dir, {});
  service.submit(spec);
  {
    ExperimentJournal holder(service.journal_path(spec));
    const std::vector<ReplicateResult> reps =
        run_replicates(scenario_factory(spec.scenario, spec.config),
                       spec.repetitions, spec.base_seed, 1);
    for (std::uint64_t i = 0; i < spec.repetitions; ++i) {
      holder.append(replicate_seed(spec.base_seed, i), reps[i]);
    }

    const ServiceReport deferred = service.run_pending();
    EXPECT_EQ(deferred.executed_jobs, 0u);
    EXPECT_EQ(deferred.skipped_claimed, 1u);
    EXPECT_EQ(deferred.deferred_jobs, 0u);
    EXPECT_EQ(deferred.failed_jobs, 0u);
    EXPECT_EQ(service.pending(), 1u);
    EXPECT_FALSE(service.store().contains(spec));
  }

  const ServiceReport resumed = service.run_pending();
  EXPECT_EQ(resumed.executed_jobs, 1u);
  EXPECT_EQ(resumed.resumed_replicates, spec.repetitions);
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_TRUE(service.store().contains(spec));
}

TEST(Service, CancelBetweenJobsLeavesQueueResumable) {
  const std::string dir = fresh_dir("cancel");
  std::atomic<bool> cancel{true};  // cancelled before the first job
  ServiceOptions options;
  options.cancel = &cancel;
  {
    ExperimentService service(dir, options);
    service.submit(tiny_spec());
    const ServiceReport report = service.run_pending();
    EXPECT_TRUE(report.cancelled);
    EXPECT_EQ(report.executed_jobs, 0u);
    EXPECT_EQ(service.pending(), 1u);
  }
  ExperimentService resumed(dir, {});
  const ServiceReport report = resumed.run_pending();
  EXPECT_FALSE(report.cancelled);
  EXPECT_EQ(report.executed_jobs, 1u);
}

TEST(Service, OnJobPublishedFiresAfterDurableCommit) {
  std::vector<std::uint64_t> published;
  ServiceOptions options;
  options.on_job_published = [&published](const JobSpec& spec) {
    published.push_back(spec.content_hash());
  };
  ExperimentService service(fresh_dir("hook"), options);
  const JobSpec spec = tiny_spec();
  service.submit(spec);
  service.run_pending();
  ASSERT_EQ(published.size(), 1u);
  EXPECT_EQ(published[0], spec.content_hash());
  // The hook ran after commit: the store already serves the job.
  EXPECT_TRUE(service.store().contains(spec));
}

TEST(Service, SubmitRejectsSeedOverflow) {
  ExperimentService service(fresh_dir("overflow"), {});
  JobSpec spec = tiny_spec();
  spec.base_seed = std::numeric_limits<std::uint64_t>::max() - 1;
  spec.repetitions = 3;
  EXPECT_THROW(service.submit(spec), PreconditionError);
  spec.repetitions = 0;
  EXPECT_THROW(service.submit(spec), PreconditionError);
}

TEST(Service, ExecutionPolicyDoesNotChangeTheDigest) {
  // simulate-once-serve-many only holds if every policy stores the same
  // statistics; the digest ties the service to the ExecutionPolicy
  // equivalence contract.
  const JobSpec spec = tiny_spec(7, 3);
  std::vector<std::uint64_t> digests;
  const ExecutionPolicy policies[] = {
      ExecutionPolicy::serial(), ExecutionPolicy::threaded(2)};
  for (const ExecutionPolicy& policy : policies) {
    ServiceOptions options;
    options.policy = policy;
    ExperimentService service(fresh_dir("policy"), options);
    service.submit(spec);
    service.run_pending();
    digests.push_back(query_digest(*service.store().load(spec)));
  }
  for (const std::uint64_t d : digests) EXPECT_EQ(d, digests[0]);
}

}  // namespace
}  // namespace hinet
