// hinetd — the durable experiment service front-end: submit jobs, drain
// the queue, and serve results without re-simulating.
//
//   hinetd submit --store=DIR [spec flags] [--execute] [--from=FILE]
//   hinetd run    --store=DIR [--policy=... --jobs=N --deadline-ms=... ]
//   hinetd query  --store=DIR ([spec flags] | --hash=HEX) [--curve]
//                 [--vs-hash=HEX]
//   hinetd status --store=DIR
//
// A job is `--reps` replicates of one scenario at seeds --seed + 0..reps-1
// — a pure function of its spec, content-addressed by a canonical hash.
// `submit` dedupes against both the store (cache hit: nothing to run) and
// the queue (already pending); the queue is bounded, and a full queue is
// an explicit admission reject (exit 3), not unbounded buffering.  `run`
// executes the missing replicates under the supervisor, journaling every
// completion durably: kill -9 at any point — mid-replicate, mid-commit —
// and a restarted `run` resumes without re-executing anything that
// finished, while the store's staged commit protocol guarantees a query
// sees a full result or a clean miss, never a torn one.  `query` serves
// aggregates, completion curves and crossover lookups purely from the
// store and prints a deterministic digest plus the hit/miss/recovery
// counters.
//
// --from=FILE (or `-` for stdin) batches submissions: one job per line of
// space-separated key=value pairs using the same keys as the spec flags
// (scenario=hinet-one nodes=24 ... reps=4); '#' starts a comment.
//
// Crash levers for the CI kill-and-recover smoke: --crash-at-stage=
// {intent|segment|index|commit} hard-exits (status 42, no cleanup) the
// moment the store's commit protocol passes that stage, and
// --abort-after-jobs=N does the same after N jobs published cleanly.
//
// Exit codes and signal handling follow the convention shared with
// sweep_runner (see --help): SIGINT/SIGTERM finish and journal the
// in-flight replicate batch, then exit 3 for a clean resume.

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/scenarios.hpp"
#include "analysis/supervisor.hpp"
#include "service/exit_codes.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"

namespace {

using namespace hinet;

std::string scenario_choices() {
  std::string out;
  for (const Scenario s : all_scenarios()) {
    if (!out.empty()) out += " | ";
    out += scenario_cli_name(s);
  }
  return out;
}

Scenario parse_scenario(const std::string& name) {
  const std::optional<Scenario> s = scenario_from_cli_name(name);
  if (!s.has_value()) {
    throw std::invalid_argument("unknown scenario '" + name +
                                "' (choose one of: " + scenario_choices() +
                                ")");
  }
  return *s;
}

AssignmentMode parse_assignment(const std::string& name) {
  if (name == "distinct-random") return AssignmentMode::kDistinctRandom;
  if (name == "single-source") return AssignmentMode::kSingleSource;
  if (name == "round-robin") return AssignmentMode::kRoundRobin;
  throw std::invalid_argument(
      "unknown assignment '" + name +
      "' (choose one of: distinct-random, single-source, round-robin)");
}

ExecutionPolicy::Mode parse_policy(const std::string& name) {
  using Mode = ExecutionPolicy::Mode;
  if (name == "serial") return Mode::kSerial;
  if (name == "threaded") return Mode::kThreaded;
  throw std::invalid_argument("unknown policy '" + name +
                              "' (choose one of: serial, threaded)");
}

/// Registers the job-spec flags and builds the spec.  Shared by submit and
/// query so one spelling addresses the same content hash everywhere.
JobSpec spec_from_args(CliArgs& args) {
  JobSpec spec;
  const std::string scenario = args.get_string(
      "scenario", "hinet-interval", "scenario: " + scenario_choices());
  spec.config.nodes = static_cast<std::size_t>(
      args.get_int("nodes", 60, "number of nodes n"));
  spec.config.heads = static_cast<std::size_t>(
      args.get_int("heads", 12, "generator cluster-head count"));
  spec.config.k = static_cast<std::size_t>(
      args.get_int("k", 6, "token universe size k"));
  spec.config.alpha = static_cast<std::size_t>(
      args.get_int("alpha", 3, "bounded-degree parameter alpha"));
  spec.config.hop_l =
      static_cast<int>(args.get_int("hop-l", 2, "cluster radius L"));
  spec.config.reaffiliation_prob = args.get_double(
      "reaffil", 0.05, "member re-affiliation probability per phase");
  spec.config.churn_edges = static_cast<std::size_t>(
      args.get_int("churn-edges", 4, "churn edges per phase boundary"));
  spec.config.assignment = parse_assignment(args.get_string(
      "assignment", "distinct-random",
      "token assignment: distinct-random | single-source | round-robin"));
  spec.config.run_full_schedule = args.get_bool(
      "full-schedule", true,
      "run the full schedule instead of stopping at completion");
  spec.base_seed = static_cast<std::uint64_t>(
      args.get_int("seed", 1, "base seed (replicate i uses seed + i)"));
  spec.repetitions = static_cast<std::uint64_t>(
      args.get_int("reps", 20, "number of replicates"));
  spec.scenario = parse_scenario(scenario);
  return spec;
}

/// Parses one --from line of key=value pairs into a JobSpec by reusing the
/// CLI flag spellings ("scenario=hinet-one nodes=24 ... reps=4").
JobSpec spec_from_line(const std::string& line) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back("hinetd-batch-line");
  std::istringstream is(line);
  std::string token;
  while (is >> token) argv_storage.push_back("--" + token);
  std::vector<const char*> argv;
  argv.reserve(argv_storage.size());
  for (const std::string& s : argv_storage) argv.push_back(s.c_str());
  CliArgs args(static_cast<int>(argv.size()), argv.data());
  JobSpec spec = spec_from_args(args);
  for (const std::string& opt : args.unknown_options()) {
    throw std::invalid_argument("unknown key in batch line: " + opt +
                                " (line: '" + line + "')");
  }
  return spec;
}

ServiceOptions service_options_from_args(CliArgs& args,
                                         bool register_run_flags) {
  ServiceOptions opt;
  opt.max_pending = static_cast<std::size_t>(args.get_int(
      "max-pending", 256,
      "admission bound: queue capacity before submissions are rejected"));
  if (register_run_flags) {
    ExecutionPolicy exec;
    exec.mode = parse_policy(args.get_string(
        "policy", "threaded",
        "execution policy: serial | threaded"));
    exec.jobs = args.get_jobs();
    opt.policy = exec;
    opt.deadline_ms = static_cast<std::size_t>(args.get_int(
        "deadline-ms", 0, "per-replicate wall-clock budget (0 = none)"));
    opt.max_retries = static_cast<std::size_t>(args.get_int(
        "retries", 1, "retry budget per replicate for transient failures"));
    opt.lease_ms = static_cast<std::uint64_t>(args.get_int(
        "lease-ms", 30000,
        "per-job lease validity; renewed after every journaled replicate, "
        "so keep it well above one replicate's wall time"));
    opt.takeover_grace_ms = static_cast<std::uint64_t>(args.get_int(
        "takeover-grace-ms", 1000,
        "extra slack past lease expiry before another drain takes over"));
    opt.drain_id = args.get_string(
        "drain-id", "", "this drain's identity in leases/claims/ledger "
        "(default pid-<pid>)");
  }
  return opt;
}

void print_counters(const ResultsStore::Counters& c) {
  std::cout << "store-counters: hits=" << c.hits << " misses=" << c.misses
            << " recovered-commits=" << c.recovered_commits
            << " rolled-back-intents=" << c.rolled_back_intents
            << " salvaged-wal-bytes=" << c.salvaged_wal_bytes
            << " orphan-temps-removed=" << c.orphan_temps_removed << "\n";
}

std::string digest_hex(std::uint64_t digest) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << digest;
  return os.str();
}

const char* submit_outcome_name(ExperimentService::SubmitOutcome outcome) {
  switch (outcome) {
    case ExperimentService::SubmitOutcome::kCacheHit: return "cache-hit";
    case ExperimentService::SubmitOutcome::kEnqueued: return "enqueued";
    case ExperimentService::SubmitOutcome::kAlreadyPending:
      return "already-pending";
  }
  return "?";
}

int run_service(ExperimentService& service, const ServiceReport& report) {
  std::cout << report.to_string() << "\n";
  for (const std::string& why : report.failure_messages) {
    std::cout << "  failure: " << why << "\n";
  }
  print_counters(service.store().counters());
  if (report.cancelled) {
    std::cout << "interrupted — rerun `hinetd run` to resume; journaled "
                 "replicates will not re-execute\n";
    return kExitTransient;
  }
  if (report.failed_jobs > 0) return kExitFailed;
  if (report.deferred_jobs > 0) return kExitTransient;
  if (report.skipped_claimed > 0 || report.stale_leases > 0) {
    // Sibling drains still own jobs (or took ours over) — nothing failed,
    // but the backlog is not drained *by us*.  Retry loops key off this.
    std::cout << "jobs remain with sibling drains — rerun `hinetd run` "
                 "once their leases settle\n";
    return kExitTransient;
  }
  return kExitOk;
}

int cmd_submit(CliArgs& args) {
  const std::string store_dir = args.get_string(
      "store", "", "service state directory (required)");
  JobSpec spec = spec_from_args(args);
  const std::string from = args.get_string(
      "from", "",
      "batch submissions: file of key=value lines ('-' = stdin)");
  const bool execute = args.get_bool(
      "execute", false, "drain the queue after submitting");
  ServiceOptions opt = service_options_from_args(args, execute);

  if (args.help_requested()) {
    std::cout << args.usage(
        "Submit content-addressed jobs to the experiment service.\n" +
        std::string(exit_code_help()));
    return kExitOk;
  }
  for (const std::string& unknown : args.unknown_options()) {
    std::cerr << "unknown option: " << unknown << "\n";
    return kExitUsage;
  }
  if (store_dir.empty()) {
    std::cerr << "hinetd submit: --store=DIR is required\n";
    return kExitUsage;
  }

  opt.cancel = install_termination_cancellation();
  ExperimentService service(store_dir, opt);

  std::vector<JobSpec> specs;
  if (from.empty()) {
    specs.push_back(spec);
  } else {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (from != "-") {
      file.open(from);
      if (!file) {
        std::cerr << "hinetd submit: cannot open --from file " << from << "\n";
        return kExitUsage;
      }
      in = &file;
    }
    std::string line;
    while (std::getline(*in, line)) {
      const std::size_t hash_pos = line.find('#');
      if (hash_pos != std::string::npos) line.resize(hash_pos);
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      specs.push_back(spec_from_line(line));
    }
  }

  std::size_t rejected = 0;
  for (const JobSpec& s : specs) {
    try {
      const auto outcome = service.submit(s);
      std::cout << "submit " << s.hash_hex() << " "
                << submit_outcome_name(outcome) << "  [" << s.describe()
                << "]\n";
    } catch (const QueueFullError& e) {
      std::cout << "submit " << s.hash_hex() << " rejected: " << e.what()
                << "\n";
      ++rejected;
    }
  }

  if (execute) return run_service(service, service.run_pending());
  return rejected > 0 ? kExitTransient : kExitOk;
}

int cmd_run(CliArgs& args) {
  const std::string store_dir = args.get_string(
      "store", "", "service state directory (required)");
  ServiceOptions opt = service_options_from_args(args, true);
  const std::string crash_stage = args.get_string(
      "crash-at-stage", "",
      "CI crash lever: hard-exit(42) after this store commit stage "
      "(intent | segment | index | commit)");
  const std::size_t abort_after_jobs = static_cast<std::size_t>(args.get_int(
      "abort-after-jobs", 0,
      "CI crash lever: hard-exit(42) after this many published jobs "
      "(0 = off)"));

  if (args.help_requested()) {
    std::cout << args.usage(
        "Drain the job queue: execute missing replicates under the "
        "supervisor, publish results durably.\n" +
        std::string(exit_code_help()));
    return kExitOk;
  }
  for (const std::string& unknown : args.unknown_options()) {
    std::cerr << "unknown option: " << unknown << "\n";
    return kExitUsage;
  }
  if (store_dir.empty()) {
    std::cerr << "hinetd run: --store=DIR is required\n";
    return kExitUsage;
  }
  ResultsStore::CommitStage crash_at = ResultsStore::CommitStage::kIntentLogged;
  bool crash_armed = false;
  if (!crash_stage.empty()) {
    crash_armed = true;
    if (crash_stage == "intent") {
      crash_at = ResultsStore::CommitStage::kIntentLogged;
    } else if (crash_stage == "segment") {
      crash_at = ResultsStore::CommitStage::kSegmentWritten;
    } else if (crash_stage == "index") {
      crash_at = ResultsStore::CommitStage::kIndexPublished;
    } else if (crash_stage == "commit") {
      crash_at = ResultsStore::CommitStage::kCommitLogged;
    } else {
      std::cerr << "hinetd run: unknown --crash-at-stage '" << crash_stage
                << "' (intent | segment | index | commit)\n";
      return kExitUsage;
    }
  }

  opt.cancel = install_termination_cancellation();
  std::atomic<std::size_t> published{0};
  if (abort_after_jobs > 0) {
    opt.on_job_published = [&published, abort_after_jobs](const JobSpec&) {
      if (published.fetch_add(1, std::memory_order_relaxed) + 1 >=
          abort_after_jobs) {
        // Simulated SIGKILL: no destructors, nothing beyond what the
        // store and journals already fsynced.
        std::_Exit(42);
      }
    };
  }

  ExperimentService service(store_dir, opt);
  if (crash_armed) {
    service.store().set_commit_hook([crash_at](ResultsStore::CommitStage s) {
      if (s == crash_at) std::_Exit(42);
    });
  }
  return run_service(service, service.run_pending());
}

int cmd_query(CliArgs& args) {
  const std::string store_dir = args.get_string(
      "store", "", "service state directory (required)");
  JobSpec spec = spec_from_args(args);
  const std::string hash_arg = args.get_string(
      "hash", "", "query by 16-digit content hash instead of spec flags");
  const bool curve = args.get_bool(
      "curve", false, "print the per-round mean completion curve");
  const std::string vs_hash = args.get_string(
      "vs-hash", "",
      "crossover lookup: compare against this stored job's hash");

  if (args.help_requested()) {
    std::cout << args.usage(
        "Serve completion curves, aggregates and crossover lookups from "
        "the store — no simulation.\n" +
        std::string(exit_code_help()));
    return kExitOk;
  }
  for (const std::string& unknown : args.unknown_options()) {
    std::cerr << "unknown option: " << unknown << "\n";
    return kExitUsage;
  }
  if (store_dir.empty()) {
    std::cerr << "hinetd query: --store=DIR is required\n";
    return kExitUsage;
  }

  // Read-only handle: queries never lock, recover, or otherwise perturb a
  // store that live drains are publishing into.
  StoreOptions ro;
  ro.read_only = true;
  ResultsStore store(store_dir, ro);
  std::optional<StoredResult> result =
      hash_arg.empty() ? store.load(spec)
                       : store.load_hash(parse_hash_hex(hash_arg));
  if (!result.has_value()) {
    std::cout << "miss: job "
              << (hash_arg.empty() ? spec.hash_hex() : hash_arg)
              << " is not in the store — submit and run it first\n";
    print_counters(store.counters());
    return kExitTransient;
  }

  std::cout << "job " << result->spec.hash_hex() << "  ["
            << result->spec.describe() << "]\n";
  std::cout << aggregate_stored(*result).to_string() << "\n";
  std::cout << "query-digest: " << digest_hex(query_digest(*result)) << "\n";

  if (curve) {
    const CompletionCurve c = completion_curve(*result);
    std::cout << "completion-curve (mean complete nodes of " << c.nodes
              << ", " << c.replicates << " replicate(s)):\n";
    for (std::size_t r = 0; r < c.mean_complete_nodes.size(); ++r) {
      std::cout << "  round " << r << ": " << c.mean_complete_nodes[r]
                << "\n";
    }
  }

  if (!vs_hash.empty()) {
    std::optional<StoredResult> other =
        store.load_hash(parse_hash_hex(vs_hash));
    if (!other.has_value()) {
      std::cout << "miss: crossover target " << vs_hash
                << " is not in the store\n";
      print_counters(store.counters());
      return kExitTransient;
    }
    std::cout << "crossover vs " << other->spec.hash_hex() << "  ["
              << other->spec.describe() << "]\n";
    std::cout << "  " << find_crossover(*result, *other).to_string() << "\n";
  }

  print_counters(store.counters());
  return kExitOk;
}

int cmd_status(CliArgs& args) {
  const std::string store_dir = args.get_string(
      "store", "", "service state directory (required)");
  const std::size_t max_pending = static_cast<std::size_t>(args.get_int(
      "max-pending", 256, "admission bound (for opening the queue)"));

  if (args.help_requested()) {
    std::cout << args.usage(
        "Report stored jobs, queue backlog and store counters.\n" +
        std::string(exit_code_help()));
    return kExitOk;
  }
  for (const std::string& unknown : args.unknown_options()) {
    std::cerr << "unknown option: " << unknown << "\n";
    return kExitUsage;
  }
  if (store_dir.empty()) {
    std::cerr << "hinetd status: --store=DIR is required\n";
    return kExitUsage;
  }

  // Everything here is observe-only: read-only store (no locks, no
  // recovery), read-only queue (no flock, no compaction), lease files
  // peeked without acquiring — `status` is safe to run while N drains
  // are live, and that is exactly how the CI multi-drain smoke uses it.
  StoreOptions ro;
  ro.read_only = true;
  ResultsStore store(store_dir, ro);
  JobQueue queue(store_dir + "/queue.hjq", max_pending,
                 FramedLog::Access::kReadOnly);
  LeaseManager leases(store_dir, LeaseManager::Options{});
  const std::uint64_t now = leases.now_ms();

  std::cout << "stored jobs: " << store.size() << "\n";
  for (const JobSpec& s : store.entries()) {
    std::cout << "  " << s.hash_hex() << "  [" << s.describe() << "]\n";
  }
  std::cout << "pending jobs: " << queue.pending() << "/"
            << queue.max_pending() << " (claimed: " << queue.claimed(now)
            << ")\n";
  for (const JobSpec& s : queue.pending_jobs()) {
    std::cout << "  " << s.hash_hex() << "  [" << s.describe() << "]";
    const std::optional<JobQueue::Claim> claim =
        queue.claim_of(s.content_hash(), now);
    if (claim.has_value()) {
      std::cout << "  claimed-by=" << claim->owner
                << " token=" << claim->token;
    }
    std::cout << "\n";
  }

  const auto live = leases.list();
  std::cout << "leases: " << live.size() << "\n";
  for (const auto& [name, info] : live) {
    const std::uint64_t ttl =
        info.expiry_ms > now ? info.expiry_ms - now : 0;
    std::cout << "  " << name << "  owner=" << info.owner
              << " token=" << info.token << " ttl-ms=" << ttl
              << (ttl == 0 ? " (expired)" : "") << "\n";
  }

  const ExecutionLedger ledger = read_execution_ledger(store_dir);
  std::cout << "ledger: claims=" << ledger.total_claims
            << " publishes=" << ledger.total_publishes
            << " stale-detected=" << ledger.total_stales << "\n";
  for (const auto& [hash, per] : ledger.jobs) {
    std::cout << "  " << ExperimentService::job_resource(hash)
              << "  claims=" << per.claims << " publishes=" << per.publishes
              << " stales=" << per.stales << "\n";
  }

  print_counters(store.counters());
  return kExitOk;
}

void print_toplevel_help() {
  std::cout
      << "hinetd — durable experiment service: submit jobs, drain the "
         "queue, serve results without re-simulating\n\n"
         "usage: hinetd <submit|run|query|status> [--options]\n"
         "       hinetd <subcommand> --help   for per-subcommand flags\n\n"
      << exit_code_help() << "\n"
      << "signals: SIGINT/SIGTERM finish and journal the in-flight batch, "
         "then exit 3 (resume with `hinetd run`)\n"
         "concurrency: N `hinetd run` processes may drain one store; "
         "per-job leases + fencing make publishes exactly-once "
         "(see `hinetd run --help`: --lease-ms, --drain-id)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hinet;
  if (argc < 2) {
    print_toplevel_help();
    return kExitUsage;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    print_toplevel_help();
    return kExitOk;
  }

  try {
    CliArgs args(argc - 1, argv + 1);
    if (command == "submit") return cmd_submit(args);
    if (command == "run") return cmd_run(args);
    if (command == "query") return cmd_query(args);
    if (command == "status") return cmd_status(args);
    std::cerr << "hinetd: unknown subcommand '" << command
              << "' (submit | run | query | status)\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "hinetd " << command << ": " << e.what() << "\n";
    return exit_code_for_exception(e);
  }
}
