// alg1_sweep and fault_sweep: Algorithm 1 (kHiNetInterval) replicates
// through run_experiment under the serial policy — the paper's Section V
// sweep path.
//
// fault_sweep uses the same factory plus two layers: the streaming
// topology is wrapped in an owning FaultyNetwork that crashes n/10 nodes
// over the first half of the schedule (downtime 16), and a
// GilbertElliottChannel with default parameters filters delivery.  The
// difference between the two workloads isolates those layers.
//
// One item is one replicate; one iteration is one run_experiment batch of
// `reps` replicates at the same base seed.
#include <optional>
#include <sstream>

#include "analysis/experiment.hpp"
#include "analysis/scenarios.hpp"
#include "expected.hpp"
#include "sim/faults.hpp"
#include "tracing.hpp"

namespace perfbench {
namespace {

using namespace hinet;

constexpr std::uint64_t kChurnSalt = 0x6368'7572'6e00'0001ULL;
constexpr std::uint64_t kChannelSalt = 0x6368'616e'6e00'0002ULL;
constexpr std::size_t kDowntime = 16;

struct SweepParams {
  ScenarioConfig cfg;
  std::size_t reps = 128;
  bool faults = false;
};

SweepParams sweep_params(bool faults, bool smoke) {
  SweepParams p;
  p.faults = faults;
  p.cfg.nodes = smoke ? 60 : 200;
  p.cfg.heads = smoke ? 8 : 25;
  p.cfg.k = 8;
  p.cfg.alpha = 2;
  p.cfg.hop_l = 2;
  p.cfg.reaffiliation_prob = 0.1;
  p.reps = smoke ? 4 : 128;
  return p;
}

/// One replicate's spec.  With a tracer, the FaultyNetwork's base network
/// is traced as topology synthesis, so the fault mask's self time is the
/// outer span minus the inner one.
SimulationSpec build_spec(const SweepParams& p, std::uint64_t seed,
                          Tracer* tracer) {
  SimulationSpec spec =
      std::move(make_scenario(Scenario::kHiNetInterval, p.cfg, seed).spec);
  if (p.faults) {
    std::unique_ptr<DynamicNetwork> base = std::move(spec.network);
    if (tracer != nullptr) {
      base = std::make_unique<TracedNetwork>(std::move(base), *tracer,
                                             Layer::kTopology,
                                             /*outermost=*/false);
    }
    const std::size_t n = p.cfg.nodes;
    spec.network = std::make_unique<FaultyNetwork>(
        std::move(base),
        random_churn_plan(n, n / 10, spec.engine.max_rounds / 2, kDowntime,
                          seed ^ kChurnSalt));
    spec.channel = std::make_unique<GilbertElliottChannel>(
        GilbertElliottParams{}, seed ^ kChannelSalt);
  }
  return spec;
}

/// Digest of the batch through the lower-level entry points
/// (run_replicates + aggregate_replicates) rather than run_experiment.
std::uint64_t reference_digest(const SweepParams& p, std::uint64_t base_seed) {
  const SpecFactory plain = [&p](std::uint64_t seed) {
    return build_spec(p, seed, nullptr);
  };
  return aggregate_replicates(run_replicates(plain, p.reps, base_seed, 1), 0.0,
                              1)
      .stats_digest();
}

/// Exact counts of one traced batch.
struct SweepCounts {
  std::uint64_t digest = 0;
  std::uint64_t rounds = 0;
  std::uint64_t packets = 0;
  std::uint64_t inbox_views = 0;
  std::uint64_t deliver_calls = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rewinds = 0;
  std::uint64_t synthesis_allocs = 0;
  std::uint64_t send_allocs = 0;
  std::uint64_t receive_allocs = 0;
  std::uint64_t run_allocs = 0;  ///< the batch minus its spec builds
  friend bool operator==(const SweepCounts&, const SweepCounts&) = default;
};

WorkloadResult run_sweep(const Options& opt, bool faults) {
  const SweepParams p = sweep_params(faults, opt.smoke);
  const char* name = faults ? "fault_sweep" : "alg1_sweep";
  const std::uint64_t base_seed = opt.seed * p.reps;
  WorkloadResult res;

  // Set-up: a ready factory and the first replicate's spec, validated.
  // Sampled before every untraced batch, so the samples span the run.
  const auto setup_once = [&p, base_seed] {
    const auto t0 = Clock::now();
    const SpecFactory factory = [&p](std::uint64_t seed) {
      return build_spec(p, seed, nullptr);
    };
    SimulationSpec first = factory(base_seed);
    validate_simulation_spec(first);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // The reference digest, cross-checked against the recorded value when
  // the seed has one.
  const std::uint64_t ref_digest = reference_digest(p, base_seed);
  if (!opt.smoke) {
    if (const ExpectedSeed* e = expected_for_seed(opt.seed)) {
      res.check((faults ? e->fault_digest : e->alg1_digest) == ref_digest,
                std::string(name) + " digest equals the value recorded for "
                                    "the seed");
    }
  }

  std::vector<Clock::time_point> starts;
  starts.reserve(p.reps);
  const SpecFactory timed = [&](std::uint64_t seed) {
    starts.push_back(Clock::now());
    return build_spec(p, seed, nullptr);
  };
  Tracer tracer;
  LayerTotals spec_build;  // make_scenario + fault plan + channel
  LayerTotals factory_total;  // the whole traced factory call
  const Layer outer = faults ? Layer::kFaultMask : Layer::kTopology;
  const SpecFactory traced = [&](std::uint64_t seed) {
    const Span whole(factory_total);
    SimulationSpec spec;
    {
      const Span build(spec_build);
      spec = build_spec(p, seed, &tracer);
    }
    return wrap_spec(std::move(spec), tracer, outer);
  };

  Samples samples;
  std::vector<double> traced_ms;
  double run_ms = 0, aggregate_ms = 0;
  std::uint64_t run_allocs = 0;
  std::size_t traced_reps = 0;
  std::optional<SweepCounts> first_counts;
  ExperimentOptions eo;
  eo.repetitions = p.reps;
  eo.base_seed = base_seed;
  eo.policy = ExecutionPolicy::serial();
  const auto budget_end =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::size_t i = 0;; ++i) {
    const bool is_traced = opt.trace && i % 2 == 1;
    const double setup = is_traced ? 0.0 : setup_once();
    const Tracer before = tracer;
    const LayerTotals factory_before = factory_total;
    starts.clear();
    const std::uint64_t allocs0 = allocation_count();
    const auto t0 = Clock::now();
    const AggregateResult agg = run_experiment(is_traced ? traced : timed, eo);
    const auto t1 = Clock::now();
    const std::uint64_t allocs = allocation_count() - allocs0;
    const double wall_ms = ms_between(t0, t1);

    const std::uint64_t digest = agg.stats_digest();
    std::ostringstream what;
    what << (is_traced ? "traced " : "untraced ") << name << " batch " << i
         << ": digest " << std::hex << digest << " (expect " << ref_digest
         << std::dec << "), failed replicates " << agg.failed_replicates;
    res.check(digest == ref_digest && agg.failed_replicates == 0 &&
                  agg.repetitions == p.reps,
              what.str());

    if (is_traced) {
      traced_ms.push_back(wall_ms);
      const double factory_ms =
          static_cast<double>(factory_total.ns - factory_before.ns) / 1e6;
      const std::uint64_t factory_allocs =
          factory_total.allocs - factory_before.allocs;
      run_ms += agg.timing.replicate_wall_ms.mean *
                    static_cast<double>(agg.repetitions) -
                factory_ms;
      aggregate_ms += wall_ms - agg.timing.wall_seconds * 1000.0;
      run_allocs += allocs - factory_allocs;
      traced_reps += p.reps;
      const auto delta = [&](Layer l) {
        return tracer[l].allocs - before[l].allocs;
      };
      const SweepCounts counts{
          digest,
          tracer.rounds - before.rounds,
          tracer.packets - before.packets,
          tracer.inbox_views - before.inbox_views,
          tracer.deliver_calls - before.deliver_calls,
          tracer.delivered - before.delivered,
          tracer.rewinds - before.rewinds,
          delta(Layer::kTopology) + delta(Layer::kHierarchy),
          delta(Layer::kSend),
          delta(Layer::kReceive),
          allocs - factory_allocs,
      };
      if (!first_counts) first_counts = counts;
      res.check(counts == *first_counts,
                "traced batch repeats the exact counts");
    } else {
      // A replicate runs from its factory call to the next one; the last
      // replicate's end is hidden behind aggregation, so it is left out.
      std::vector<double> replicate_ms;
      for (std::size_t r = 0; r + 1 < starts.size(); ++r) {
        replicate_ms.push_back(ms_between(starts[r], starts[r + 1]));
      }
      samples.add(wall_ms, std::move(replicate_ms), {setup},
                  static_cast<double>(current_rss_bytes()) /
                      static_cast<double>(p.cfg.nodes));
    }
    const bool enough = !opt.trace || !traced_ms.empty();
    if (enough && i >= 2 && Clock::now() >= budget_end) break;
  }

  res.e2e = samples.summarize();
  if (first_counts) {
    const SweepCounts& c = *first_counts;
    res.counters = {{"stats_digest", c.digest},
                    {"rounds", c.rounds},
                    {"packets", c.packets},
                    {"inbox_views", c.inbox_views},
                    {"deliver_calls", c.deliver_calls},
                    {"delivered", c.delivered},
                    {"rewinds", c.rewinds},
                    {"synthesis_allocs", c.synthesis_allocs},
                    {"send_allocs", c.send_allocs},
                    {"receive_allocs", c.receive_allocs},
                    {"run_allocs", c.run_allocs}};
  }
  if (opt.trace) {
    const auto reps = static_cast<double>(traced_reps);
    fill_engine_layers(tracer, run_ms, run_allocs, reps, res);
    res.layers.spec_build_ms = static_cast<double>(spec_build.ns) / 1e6 / reps;
    res.layers.run_ms = run_ms / reps;
    res.layers.aggregate_ms = aggregate_ms / reps;
    res.layers.overhead_frac = overhead_frac(traced_ms, samples.iteration_ms);
  }
  std::ostringstream note;
  note << name << ": n=" << p.cfg.nodes << " k=" << p.cfg.k
       << " heads=" << p.cfg.heads << " reps/batch=" << p.reps
       << " base_seed=" << base_seed
       << " batches=" << samples.iteration_ms.size() << " untraced + "
       << traced_ms.size() << " traced; batch ms:";
  for (double v : samples.iteration_ms) note << ' ' << static_cast<int>(v);
  res.notes.push_back(note.str());
  return res;
}

}  // namespace

WorkloadResult run_alg1_sweep(const Options& opt) {
  return run_sweep(opt, /*faults=*/false);
}

WorkloadResult run_fault_sweep(const Options& opt) {
  return run_sweep(opt, /*faults=*/true);
}

/// Digest of one full-size sweep batch at `seed`, for --record.
std::uint64_t record_sweep_digest(std::uint64_t seed, bool faults) {
  const SweepParams p = sweep_params(faults, /*smoke=*/false);
  return reference_digest(p, seed * p.reps);
}

}  // namespace perfbench
