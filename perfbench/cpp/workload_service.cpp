// service_drain: small Algorithm 1 jobs submitted to an in-process
// ExperimentService on a fresh store and drained by one drain; the
// service is then restarted over the published store, each result is
// queried the way `hinetd query` does (read-only open, load,
// query_digest) and resubmitted, which must be a cache hit.
//
// Simulation is a small part of a job here; durability is the rest: queue
// claim, lease, journal, ledger and the store's four commit stages.  Those
// are fsync-bound, and fsync latency on a shared disk drifts by 2x over
// minutes, more than any bound can absorb.  So the end-to-end items are
// the queries served from the store the drain wrote (set-up: the restart),
// while the drain itself is measured layer by layer, with exact fsync and
// byte counts.  One iteration is one pass over a fresh store.
#include <filesystem>
#include <optional>
#include <sstream>

#include "analysis/experiment.hpp"
#include "analysis/scenarios.hpp"
#include "service/service.hpp"
#include "tracing.hpp"

namespace perfbench {
namespace {

using namespace hinet;
namespace fs = std::filesystem;

/// Service restarts per pass; each is one set-up sample.
constexpr std::size_t kRestarts = 5;

struct ServiceParams {
  std::size_t jobs = 200;
  std::uint64_t repetitions = 2;
};

std::vector<JobSpec> make_jobs(const ServiceParams& p, std::uint64_t seed) {
  std::vector<JobSpec> jobs;
  for (std::size_t j = 0; j < p.jobs; ++j) {
    JobSpec job;
    job.scenario = Scenario::kHiNetInterval;
    job.config.nodes = 40;
    job.config.heads = 5;
    job.config.k = 8;
    job.config.alpha = 2;
    job.config.hop_l = 2;
    job.config.reaffiliation_prob = 0.1;
    job.repetitions = p.repetitions;
    job.base_seed = 1000 + seed * p.jobs + j;
    jobs.push_back(job);
  }
  return jobs;
}

/// query_digest of each job run directly through run_replicates, outside
/// the service.  With a tracer the run goes through the traced factory.
std::vector<std::uint64_t> direct_digests(const std::vector<JobSpec>& jobs,
                                          Tracer* tracer,
                                          LayerTotals* factory_total,
                                          double* wall_ms) {
  std::vector<std::uint64_t> out;
  const auto t0 = Clock::now();
  for (const JobSpec& job : jobs) {
    SpecFactory factory = scenario_factory(job.scenario, job.config);
    if (tracer != nullptr) {
      factory = [base = std::move(factory), tracer,
                 factory_total](std::uint64_t seed) {
        const Span whole(*factory_total);
        return wrap_spec(base(seed), *tracer);
      };
    }
    StoredResult direct{job, run_replicates(factory, job.repetitions,
                                            job.base_seed, 1)};
    out.push_back(query_digest(direct));
  }
  *wall_ms = ms_between(t0, Clock::now());
  return out;
}

/// Timestamps of one job's path through the drain.
struct JobMarks {
  Clock::time_point will_publish, published;
  Clock::time_point stage[4];
};

struct PassResult {
  std::vector<double> setup_s;  ///< restarts of the service after the drain
  double drain_ms = 0;
  std::vector<double> job_ms;  ///< publish-to-publish gaps
  std::vector<double> submit_ms, serve_ms;
  std::vector<double> query_ms;  ///< open + load + query_digest, per job
  std::vector<JobMarks> marks;  ///< traced passes only
  Clock::time_point drain_start;
  std::uint64_t fsyncs = 0;
  std::uint64_t index_bytes = 0;
  std::uint64_t queue_bytes = 0;  ///< after every submission
  std::uint64_t reopen_fsyncs = 0;
  std::size_t rss = 0;
};

PassResult run_pass(const ServiceParams& p, const std::vector<JobSpec>& jobs,
                    const std::vector<std::uint64_t>& ref, bool traced,
                    std::size_t pass, WorkloadResult& res) {
  PassResult out;
  const std::string dir =
      std::string(kWorkDir) + "/drain-" + std::to_string(pass);

  ServiceOptions so;
  so.max_pending = p.jobs + 1;
  so.policy = ExecutionPolicy::serial();
  so.drain_id = "perfbench";
  std::size_t published = 0;
  Clock::time_point last_publish;
  so.on_job_published = [&](const JobSpec&) {
    const auto now = Clock::now();
    out.job_ms.push_back(ms_between(last_publish, now));
    last_publish = now;
    if (traced) out.marks[published].published = now;
    ++published;
  };
  if (traced) {
    out.marks.resize(p.jobs);
    so.on_job_will_publish = [&](const JobSpec&) {
      out.marks[published].will_publish = Clock::now();
    };
  }

  std::optional<ExperimentService> svc;
  svc.emplace(dir, so);
  if (traced) {
    const std::string index_path = dir + "/index.hix";
    svc->store().set_commit_hook([&, index_path](
                                     ResultsStore::CommitStage stage) {
      out.marks[published].stage[static_cast<std::size_t>(stage)] =
          Clock::now();
      if (stage == ResultsStore::CommitStage::kIndexPublished) {
        out.index_bytes += fs::file_size(index_path);
      }
    });
  }

  for (const JobSpec& job : jobs) {
    const auto s0 = Clock::now();
    const auto outcome = svc->submit(job);
    out.submit_ms.push_back(ms_between(s0, Clock::now()));
    res.check(outcome == ExperimentService::SubmitOutcome::kEnqueued,
              "first submission of job " + job.hash_hex() + " is enqueued");
  }

  // The queue holds every submission now; the drain compacts it away.
  out.queue_bytes = fs::file_size(svc->queue_path());

  const std::uint64_t drain_fsyncs0 = fsync_count();
  out.drain_start = last_publish = Clock::now();
  const ServiceReport report = svc->run_pending();
  out.drain_ms = ms_between(out.drain_start, Clock::now());
  out.fsyncs = fsync_count() - drain_fsyncs0;
  out.rss = current_rss_bytes();
  std::ostringstream what;
  what << "drain " << pass << ": executed " << report.executed_jobs << "/"
       << p.jobs << ", failed " << report.failed_jobs << ", deferred "
       << report.deferred_jobs << ", stale " << report.stale_leases;
  res.check(report.executed_jobs == p.jobs && report.failed_jobs == 0 &&
                report.deferred_jobs == 0 && report.stale_leases == 0 &&
                report.cache_hits == 0 && published == p.jobs,
            what.str());

  // Set-up: a restarted service becoming ready over the published store
  // (recovery scan of queue, index and ledger), as `hinetd` does on start.
  for (std::size_t r = 0; r < kRestarts; ++r) {
    svc.reset();
    const std::uint64_t fsyncs0 = fsync_count();
    const auto t0 = Clock::now();
    svc.emplace(dir, so);
    out.setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    out.reopen_fsyncs = fsync_count() - fsyncs0;
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto q0 = Clock::now();
    StoreOptions ro;
    ro.read_only = true;
    ResultsStore store(dir, ro);
    const auto q1 = Clock::now();
    const std::optional<StoredResult> stored = store.load(jobs[j]);
    const std::uint64_t digest = stored ? query_digest(*stored) : 0;
    const auto q2 = Clock::now();
    out.query_ms.push_back(ms_between(q0, q2));
    out.serve_ms.push_back(ms_between(q1, q2));
    res.check(stored.has_value() && digest == ref[j],
              "served query_digest of job " + jobs[j].hash_hex() +
                  " equals the direct run_replicates digest");
  }
  for (const JobSpec& job : jobs) {
    res.check(svc->submit(job) == ExperimentService::SubmitOutcome::kCacheHit,
              "resubmission of job " + job.hash_hex() + " is a cache hit");
  }

  const ExecutionLedger ledger = read_execution_ledger(dir);
  bool once = ledger.total_publishes == p.jobs;
  for (const JobSpec& job : jobs) {
    const auto it = ledger.jobs.find(job.content_hash());
    once = once && it != ledger.jobs.end() && it->second.publishes == 1;
  }
  res.check(once, "the ledger shows exactly one publish per job");

  svc.reset();
  fs::remove_all(dir);
  return out;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

WorkloadResult run_service_drain(const Options& opt) {
  ServiceParams p;
  if (opt.smoke) p.jobs = 12;
  WorkloadResult res;
  const std::vector<JobSpec> jobs = make_jobs(p, opt.seed);
  fs::remove_all(kWorkDir);  // what a killed earlier run left behind
  fs::create_directories(kWorkDir);
  const auto per_job = static_cast<double>(p.jobs);

  double simulate_ms = 0;
  const std::vector<std::uint64_t> ref =
      direct_digests(jobs, nullptr, nullptr, &simulate_ms);

  Samples samples;
  std::vector<double> traced_ms;
  std::vector<double> submit_ms, serve_ms, job_ms;
  std::vector<double> pre_publish, intent, segment, index, commit, ack;
  std::uint64_t fsyncs = 0, index_bytes = 0, queue_bytes = 0;
  std::size_t traced_jobs = 0;
  std::optional<std::uint64_t> first_fsyncs, first_index_bytes;
  std::uint64_t reopen_fsyncs = 0;
  const auto budget_end =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::size_t i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    PassResult pass = run_pass(p, jobs, ref, traced, i, res);
    submit_ms.insert(submit_ms.end(), pass.submit_ms.begin(),
                     pass.submit_ms.end());
    serve_ms.insert(serve_ms.end(), pass.serve_ms.begin(),
                    pass.serve_ms.end());
    queue_bytes = pass.queue_bytes;
    reopen_fsyncs = pass.reopen_fsyncs;
    if (traced) {
      traced_ms.push_back(pass.drain_ms);
      traced_jobs += p.jobs;
      fsyncs += pass.fsyncs;
      index_bytes += pass.index_bytes;
      if (!first_fsyncs) {
        first_fsyncs = pass.fsyncs;
        first_index_bytes = pass.index_bytes;
      }
      res.check(pass.fsyncs == *first_fsyncs &&
                    pass.index_bytes == *first_index_bytes,
                "traced pass repeats the exact fsync and index byte counts");
      Clock::time_point prev = pass.drain_start;
      for (const JobMarks& m : pass.marks) {
        using Stage = ResultsStore::CommitStage;
        const auto at = [&](Stage s) {
          return m.stage[static_cast<std::size_t>(s)];
        };
        pre_publish.push_back(ms_between(prev, m.will_publish));
        intent.push_back(ms_between(m.will_publish, at(Stage::kIntentLogged)));
        segment.push_back(ms_between(at(Stage::kIntentLogged),
                                     at(Stage::kSegmentWritten)));
        index.push_back(ms_between(at(Stage::kSegmentWritten),
                                   at(Stage::kIndexPublished)));
        commit.push_back(ms_between(at(Stage::kIndexPublished),
                                    at(Stage::kCommitLogged)));
        ack.push_back(ms_between(at(Stage::kCommitLogged), m.published));
        prev = m.published;
      }
    } else {
      job_ms.insert(job_ms.end(), pass.job_ms.begin(), pass.job_ms.end());
      samples.add(pass.drain_ms, std::move(pass.query_ms), pass.setup_s,
                  static_cast<double>(pass.rss) /
                      static_cast<double>(jobs[0].config.nodes));
    }
    const bool enough = !opt.trace || !traced_ms.empty();
    if (enough && i >= 2 && Clock::now() >= budget_end) break;
  }
  fs::remove_all(kWorkDir);

  res.e2e = samples.summarize();
  if (first_fsyncs) {
    res.counters = {{"fsyncs_per_pass", *first_fsyncs},
                    {"index_bytes_per_pass", *first_index_bytes},
                    {"queue_bytes", queue_bytes},
                    {"fsyncs_per_reopen", reopen_fsyncs}};
  }
  if (opt.trace) {
    // Engine layers, from the same jobs run directly through the traced
    // factory (the service builds its own factory, which cannot be
    // wrapped from outside).
    Tracer tracer;
    LayerTotals factory_total;
    double traced_direct_ms = 0;
    const std::uint64_t allocs0 = allocation_count();
    const std::vector<std::uint64_t> traced_ref =
        direct_digests(jobs, &tracer, &factory_total, &traced_direct_ms);
    const std::uint64_t allocs =
        allocation_count() - allocs0 - factory_total.allocs;
    res.check(traced_ref == ref,
              "traced direct runs reproduce the untraced digests");
    const double reps = per_job * static_cast<double>(p.repetitions);
    const double run_ms =
        traced_direct_ms - static_cast<double>(factory_total.ns) / 1e6;
    fill_engine_layers(tracer, run_ms, allocs, per_job, res);
    res.layers.spec_build_ms =
        static_cast<double>(factory_total.ns) / 1e6 / reps;
    res.layers.run_ms = run_ms / reps;

    LayerReport& l = res.layers;
    l.simulate_ms = simulate_ms / per_job;
    l.pre_publish_ms = mean(pre_publish);
    l.intent_ms = mean(intent);
    l.segment_ms = mean(segment);
    l.index_ms = mean(index);
    l.commit_ms = mean(commit);
    l.ack_ms = mean(ack);
    l.fsyncs_per_job =
        static_cast<double>(fsyncs) / static_cast<double>(traced_jobs);
    l.index_bytes_per_publish =
        static_cast<double>(index_bytes) / static_cast<double>(traced_jobs);
    l.serve_ms = median(serve_ms);
    l.queue_bytes = static_cast<double>(queue_bytes);
    l.submit_ms_p50 = quantile(submit_ms, 0.5);
    l.job_ms_p50 = quantile(job_ms, 0.5);
    l.job_ms_p90 = quantile(job_ms, 0.9);
    l.overhead_frac = overhead_frac(traced_ms, samples.iteration_ms);
  }
  std::ostringstream note;
  note << "service_drain: jobs=" << p.jobs << " reps/job=" << p.repetitions
       << " passes=" << samples.iteration_ms.size() << " untraced + "
       << traced_ms.size() << " traced; drain ms:";
  for (double v : samples.iteration_ms) note << ' ' << static_cast<int>(v);
  res.notes.push_back(note.str());
  return res;
}

}  // namespace perfbench
