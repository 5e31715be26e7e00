#include "sim/batch_engine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace hinet {

std::size_t BatchOutcome::completed() const {
  std::size_t n = 0;
  for (const auto& slot : slots) {
    if (slot.has_value()) ++n;
  }
  return n;
}

BatchEngine::BatchEngine(std::vector<SimulationSpec> specs) {
  HINET_REQUIRE(!specs.empty(), "BatchEngine needs at least one replicate");
  const bool first_has_channel = specs.front().channel != nullptr;
  replicates_.reserve(specs.size());
  for (SimulationSpec& spec : specs) {
    validate_simulation_spec(spec);
    HINET_REQUIRE((spec.channel != nullptr) == first_has_channel,
                  "a lockstep batch must be channel-homogeneous: either "
                  "every spec owns a channel or none does (one SpecFactory "
                  "builds every replicate)");
    for (const auto& p : spec.processes) {
      HINET_REQUIRE(p != nullptr, "null process");
      HINET_REQUIRE(p->knowledge().universe() ==
                        spec.processes.front()->knowledge().universe(),
                    "all processes must share the token universe");
    }
    Replicate rep;
    rep.network = std::move(spec.network);
    rep.hierarchy = std::move(spec.hierarchy);
    rep.channel = std::move(spec.channel);
    rep.processes = std::move(spec.processes);
    rep.config = spec.engine;
    rep.flat_view = HierarchyView(rep.network->node_count());
    replicates_.push_back(std::move(rep));
  }
}

void BatchEngine::bind(Replicate& rep) {
  rep.core.net = rep.network.get();
  rep.core.hierarchy = rep.hierarchy.get();
  rep.core.flat_view = &rep.flat_view;
  rep.core.processes = &rep.processes;
  rep.core.channel = rep.channel.get();
}

namespace {

// Budgets too large to represent as a clock offset cannot ever fire;
// treat them as "no deadline" instead of overflowing the duration
// arithmetic (same saturation as Engine::arm_deadline).
constexpr std::uint64_t kMaxDeadlineMs = static_cast<std::uint64_t>(
    std::chrono::duration_cast<std::chrono::milliseconds>(
        // detlint-allow(banned-time): compile-time clock range, not a read
        std::chrono::steady_clock::duration::max())
        .count() /
    2);

}  // namespace

BatchOutcome BatchEngine::run() {
  HINET_REQUIRE(!ran_, "BatchEngine::run is single-shot: this batch already "
                       "ran (processes hold consumed state)");
  ran_ = true;

  const std::size_t count = replicates_.size();
  BatchOutcome out;
  out.slots.resize(count);
  std::size_t active_count = count;

  // The batch-wide wall budget: the largest per-spec deadline_ms bounds
  // the whole lockstep run (a batch is the unit of scheduling; documented
  // in analysis/experiment.hpp).
  std::uint64_t deadline_ms = 0;
  for (Replicate& rep : replicates_) {
    bind(rep);
    rep.core.begin(rep.config, scratch_);
    rep.active = true;
    deadline_ms = std::max<std::uint64_t>(deadline_ms, rep.config.deadline_ms);
  }
  const bool has_deadline = deadline_ms > 0 && deadline_ms <= kMaxDeadlineMs;
  // detlint-allow(banned-time): deadline only gates abort, never results
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);

  // Channel batching capability, decided once: the explicit
  // supports_batching() query, never engine-side type sniffing.  Any
  // channel declining batching sends the whole batch down the
  // per-replicate begin_round path (always correct).
  const bool have_channels = replicates_.front().channel != nullptr;
  bool use_batch_hook = have_channels;
  for (const Replicate& rep : replicates_) {
    if (have_channels && !rep.channel->supports_batching()) {
      use_batch_hook = false;
    }
  }

  std::vector<ChannelRoundInput> channel_batch;
  channel_batch.reserve(count);

  // Deactivates `rep` and records the in-flight exception against index i.
  const auto fail_current = [&out, &active_count](Replicate& rep,
                                                  std::size_t i) {
    rep.active = false;
    --active_count;
    BatchReplicateFailure f;
    f.index = i;
    f.error = std::current_exception();
    f.message = "unknown exception";
    try {
      std::rethrow_exception(f.error);
    } catch (const std::exception& e) {
      f.message = e.what();
    } catch (...) {
    }
    out.failures.push_back(std::move(f));
  };

  // detlint: hot-path-begin — the lockstep round loop must not allocate in
  // steady state: per-replicate buffers live in each RunCore, the shared
  // inbox scratch and the channel-batch list are hoisted above and reuse
  // capacity.
  while (active_count > 0) {
    // Seal replicates whose schedule is done.
    for (std::size_t i = 0; i < count; ++i) {
      Replicate& rep = replicates_[i];
      if (rep.active && !rep.core.pending()) {
        out.slots[i] = rep.core.seal();
        rep.active = false;
        --active_count;
      }
    }
    if (active_count == 0) break;

    if (has_deadline) {
      // detlint-allow(banned-time): supervision deadline (see above)
      if (std::chrono::steady_clock::now() >= deadline) {
        for (std::size_t i = 0; i < count; ++i) {
          Replicate& rep = replicates_[i];
          if (!rep.active) continue;
          rep.active = false;
          --active_count;
          std::ostringstream os;
          os << "batch deadline of " << deadline_ms << " ms exceeded after "
             << rep.core.metrics.rounds_executed
             << " round(s); the lockstep batch shares one wall budget — "
             << "raise deadline_ms or shrink replicates_per_batch";
          BatchReplicateFailure f;
          f.index = i;
          f.message = os.str();
          f.error = std::make_exception_ptr(DeadlineError(f.message));
          out.failures.push_back(std::move(f));
        }
        break;
      }
    }

    // Phase A: send step, replicate-major.
    for (std::size_t i = 0; i < count; ++i) {
      Replicate& rep = replicates_[i];
      if (!rep.active) continue;
      try {
        const Round r = rep.core.round;
        rep.round_graph = &rep.network->graph_at(r);
        rep.round_view = &rep.core.view_at(r);
        rep.core.send_step(*rep.round_graph, *rep.round_view);
      } catch (...) {
        fail_current(rep, i);
      }
    }

    // Phase B: one batched channel advance covering every active
    // replicate (or the conservative per-replicate loop).
    if (have_channels && active_count > 0) {
      if (use_batch_hook) {
        channel_batch.clear();
        ChannelModel* lead = nullptr;
        Round lead_round = 0;
        for (Replicate& rep : replicates_) {
          if (!rep.active) continue;
          if (lead == nullptr) {
            lead = rep.channel.get();
            lead_round = rep.core.round;
          }
          channel_batch.push_back(ChannelRoundInput{
              rep.channel.get(), rep.round_graph, rep.core.packets});
        }
        try {
          lead->begin_round_batch(lead_round, channel_batch);
        } catch (...) {
          // A failing batch hook cannot be attributed to one replicate:
          // the whole batch fails with the same error.
          for (std::size_t i = 0; i < count; ++i) {
            if (replicates_[i].active) fail_current(replicates_[i], i);
          }
        }
      } else {
        for (std::size_t i = 0; i < count; ++i) {
          Replicate& rep = replicates_[i];
          if (!rep.active) continue;
          try {
            rep.channel->begin_round(rep.core.round, *rep.round_graph,
                                     rep.core.packets);
          } catch (...) {
            fail_current(rep, i);
          }
        }
      }
    }

    // Phase C: delivery, receive and round bookkeeping, replicate-major
    // over the one shared inbox scratch.
    for (std::size_t i = 0; i < count; ++i) {
      Replicate& rep = replicates_[i];
      if (!rep.active) continue;
      try {
        rep.core.deliver_and_receive(*rep.round_graph, *rep.round_view,
                                     scratch_);
        rep.core.end_round();
      } catch (...) {
        fail_current(rep, i);
      }
    }
  }
  // detlint: hot-path-end

  // Phases interleave failure discovery; report by replicate index.
  std::sort(out.failures.begin(), out.failures.end(),
            [](const BatchReplicateFailure& a, const BatchReplicateFailure& b) {
              return a.index < b.index;
            });
  return out;
}

}  // namespace hinet
