// Outside-in layer tracing: thin decorators around the public virtual
// interfaces the engine already calls.
//
//   TracedNetwork    DynamicNetwork::graph_at        synthesis (topology),
//                                                    or the fault mask
//                                                    when it wraps a
//                                                    FaultyNetwork
//   TracedHierarchy  HierarchyProvider::hierarchy_at synthesis
//   TracedProcess    Process::transmit / receive     send / receive
//   TracedChannel    ChannelModel::begin_round /     channel
//                    deliver
//
// Each call is one span: its wall time and the heap allocations made
// inside it are added to the layer's accumulator.  Spans are aggregated in
// place (no per-span records), so tracing itself never allocates.  A
// layer's self time is its accumulated time minus that of the layers
// nested inside it; the only nesting is fault mask > topology, when the
// FaultyNetwork's base network is traced as well.
//
// The decorators change nothing the engine computes: every call is
// forwarded verbatim, in order, so a traced run reproduces the untraced
// run's metrics byte for byte (the workloads check this).
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "cluster/hierarchy.hpp"
#include "graph/dynamic.hpp"
#include "hooks.hpp"
#include "perfbench.hpp"
#include "sim/channel.hpp"
#include "sim/process.hpp"
#include "sim/spec.hpp"

namespace perfbench {

enum class Layer : std::size_t {
  kTopology,   ///< trace synthesis: the base network's graph_at
  kHierarchy,  ///< trace synthesis: hierarchy_at
  kFaultMask,  ///< FaultyNetwork::graph_at, inclusive of its base network
  kSend,
  kReceive,
  kChannel,
  kCount,
};

struct LayerTotals {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t allocs = 0;
};

struct Tracer {
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> layers{};
  std::uint64_t rounds = 0;         ///< engine graph_at calls (one per round)
  std::uint64_t packets = 0;        ///< transmit calls that produced a packet
  std::uint64_t inbox_views = 0;    ///< packet views handed to receive()
  std::uint64_t deliver_calls = 0;  ///< ChannelModel::deliver calls
  std::uint64_t delivered = 0;      ///< ... that returned true
  std::uint64_t rewinds = 0;        ///< StreamingNetwork replays-from-zero

  LayerTotals& operator[](Layer l) {
    return layers[static_cast<std::size_t>(l)];
  }
  const LayerTotals& operator[](Layer l) const {
    return layers[static_cast<std::size_t>(l)];
  }
};

/// One span: times the enclosing scope into a layer's totals.
class Span {
 public:
  explicit Span(LayerTotals& totals)
      : totals_(totals), allocs0_(allocation_count()), t0_(Clock::now()) {}
  ~Span() {
    const auto t1 = Clock::now();
    totals_.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0_)
            .count());
    totals_.allocs += allocation_count() - allocs0_;
    ++totals_.calls;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTotals& totals_;
  std::uint64_t allocs0_;
  Clock::time_point t0_;
};

class TracedNetwork final : public hinet::DynamicNetwork {
 public:
  /// `outermost`: this decorator is the network the engine calls, so its
  /// graph_at calls count rounds.
  TracedNetwork(std::unique_ptr<hinet::DynamicNetwork> inner, Tracer& tracer,
                Layer layer, bool outermost);
  /// Reports the wrapped stream's rewind count into the tracer (the spec,
  /// and with it this decorator, dies inside run_simulation).
  ~TracedNetwork() override;

  std::size_t node_count() const override { return inner_->node_count(); }
  const hinet::Graph& graph_at(hinet::Round r) override {
    if (outermost_) ++tracer_.rounds;
    const Span span(tracer_[layer_]);
    return inner_->graph_at(r);
  }

 private:
  std::unique_ptr<hinet::DynamicNetwork> inner_;
  Tracer& tracer_;
  Layer layer_;
  bool outermost_;
};

class TracedHierarchy final : public hinet::HierarchyProvider {
 public:
  TracedHierarchy(std::unique_ptr<hinet::HierarchyProvider> inner,
                  Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  std::size_t node_count() const override { return inner_->node_count(); }
  const hinet::HierarchyView& hierarchy_at(hinet::Round r) override {
    const Span span(tracer_[Layer::kHierarchy]);
    return inner_->hierarchy_at(r);
  }

 private:
  std::unique_ptr<hinet::HierarchyProvider> inner_;
  Tracer& tracer_;
};

class TracedProcess final : public hinet::Process {
 public:
  TracedProcess(hinet::ProcessPtr inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::optional<hinet::Packet> transmit(
      const hinet::RoundContext& ctx) override {
    const Span span(tracer_[Layer::kSend]);
    std::optional<hinet::Packet> pkt = inner_->transmit(ctx);
    if (pkt) ++tracer_.packets;
    return pkt;
  }
  void receive(const hinet::RoundContext& ctx,
               hinet::InboxView inbox) override {
    tracer_.inbox_views += inbox.size();
    const Span span(tracer_[Layer::kReceive]);
    inner_->receive(ctx, inbox);
  }
  const hinet::TokenSet& knowledge() const override {
    return inner_->knowledge();
  }
  bool finished(const hinet::RoundContext& ctx) const override {
    return inner_->finished(ctx);
  }
  void save_state(hinet::ByteWriter& w) const override {
    inner_->save_state(w);
  }
  void restore_state(hinet::ByteReader& r) override {
    inner_->restore_state(r);
  }
  bool snapshot_capable() const override {
    return inner_->snapshot_capable();
  }

 private:
  hinet::ProcessPtr inner_;
  Tracer& tracer_;
};

class TracedChannel final : public hinet::ChannelModel {
 public:
  TracedChannel(std::unique_ptr<hinet::ChannelModel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void begin_round(hinet::Round r, const hinet::Graph& g,
                   std::span<const hinet::Packet> packets) override {
    const Span span(tracer_[Layer::kChannel]);
    inner_->begin_round(r, g, packets);
  }
  bool deliver(hinet::Round r, const hinet::Packet& pkt,
               hinet::NodeId receiver) override {
    ++tracer_.deliver_calls;
    const Span span(tracer_[Layer::kChannel]);
    const bool kept = inner_->deliver(r, pkt, receiver);
    if (kept) ++tracer_.delivered;
    return kept;
  }
  void save_state(hinet::ByteWriter& w) const override {
    inner_->save_state(w);
  }
  void restore_state(hinet::ByteReader& r) override {
    inner_->restore_state(r);
  }

 private:
  std::unique_ptr<hinet::ChannelModel> inner_;
  Tracer& tracer_;
};

/// Validates the spec as the engine will see it untraced, then wraps every
/// part in its decorator.  Validation must come first: the spec-level
/// horizon checks dynamic_cast the network and hierarchy, and a wrapper
/// hides their concrete types.  `network_layer` is kFaultMask when the
/// spec's network is a FaultyNetwork.
hinet::SimulationSpec wrap_spec(hinet::SimulationSpec spec, Tracer& tracer,
                                Layer network_layer = Layer::kTopology);

/// Fills the engine's per-layer figures from the tracer, normalised per
/// item, and checks that no streamed trace rewound.  `run_ms` and
/// `run_allocs` cover the simulation over the same traced work (the
/// engine's own share is what the layers do not account for); `items` is
/// the number of items (rounds, replicates or jobs) it comprised.
void fill_engine_layers(const Tracer& tracer, double run_ms,
                        std::uint64_t run_allocs, double items,
                        WorkloadResult& res);

}  // namespace perfbench
