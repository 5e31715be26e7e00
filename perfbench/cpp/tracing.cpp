#include "tracing.hpp"

#include <algorithm>

namespace perfbench {

TracedNetwork::TracedNetwork(std::unique_ptr<hinet::DynamicNetwork> inner,
                             Tracer& tracer, Layer layer, bool outermost)
    : inner_(std::move(inner)),
      tracer_(tracer),
      layer_(layer),
      outermost_(outermost) {}

TracedNetwork::~TracedNetwork() {
  if (const auto* stream =
          dynamic_cast<const hinet::StreamingNetwork*>(inner_.get())) {
    tracer_.rewinds += stream->rewinds();
  }
}

hinet::SimulationSpec wrap_spec(hinet::SimulationSpec spec, Tracer& tracer,
                                Layer network_layer) {
  hinet::validate_simulation_spec(spec);
  spec.network = std::make_unique<TracedNetwork>(
      std::move(spec.network), tracer, network_layer, /*outermost=*/true);
  if (spec.hierarchy) {
    spec.hierarchy =
        std::make_unique<TracedHierarchy>(std::move(spec.hierarchy), tracer);
  }
  if (spec.channel) {
    spec.channel =
        std::make_unique<TracedChannel>(std::move(spec.channel), tracer);
  }
  for (hinet::ProcessPtr& p : spec.processes) {
    p = std::make_unique<TracedProcess>(std::move(p), tracer);
  }
  return spec;
}

void fill_engine_layers(const Tracer& t, double run_ms,
                        std::uint64_t run_allocs, double items,
                        WorkloadResult& res) {
  res.check(t.rewinds == 0, "streamed traces never replay from round 0");
  LayerReport& out = res.layers;
  const auto ms = [](const LayerTotals& l) {
    return static_cast<double>(l.ns) / 1e6;
  };
  const LayerTotals& topo = t[Layer::kTopology];
  const LayerTotals& hier = t[Layer::kHierarchy];
  const LayerTotals& mask = t[Layer::kFaultMask];
  const double synthesis = ms(topo) + ms(hier);
  // The fault mask span encloses its base network's graph_at, which is
  // traced as topology synthesis.
  const bool masked = mask.calls != 0;
  const double fault = masked ? ms(mask) - ms(topo) : 0.0;
  const double send = ms(t[Layer::kSend]);
  const double receive = ms(t[Layer::kReceive]);
  const double channel = ms(t[Layer::kChannel]);
  const double engine = run_ms - (synthesis + fault + send + receive + channel);

  const std::uint64_t synthesis_allocs = topo.allocs + hier.allocs;
  const std::uint64_t fault_allocs = masked ? mask.allocs - topo.allocs : 0;
  const std::uint64_t child_allocs =
      synthesis_allocs + fault_allocs + t[Layer::kSend].allocs +
      t[Layer::kReceive].allocs + t[Layer::kChannel].allocs;
  const double rounds = t.rounds == 0 ? 1.0 : static_cast<double>(t.rounds);
  const auto per_round = [&](std::uint64_t allocs) {
    return static_cast<double>(allocs) / rounds;
  };

  out.synthesis_ms = synthesis / items;
  out.synthesis_share = run_ms > 0 ? synthesis / run_ms : 0.0;
  out.synthesis_allocs = per_round(synthesis_allocs);
  out.synthesis_rewinds = static_cast<double>(t.rewinds);
  out.send_ms = send / items;
  out.send_packets = static_cast<double>(t.packets) / items;
  out.send_allocs = per_round(t[Layer::kSend].allocs);
  out.receive_ms = receive / items;
  out.receive_views = static_cast<double>(t.inbox_views) / items;
  out.receive_allocs = per_round(t[Layer::kReceive].allocs);
  out.engine_ms = engine / items;
  out.engine_allocs =
      run_allocs >= child_allocs ? per_round(run_allocs - child_allocs) : 0.0;
  out.fault_ms = fault / items;
  out.channel_ms = channel / items;
  out.channel_calls = static_cast<double>(t.deliver_calls) / items;
  out.channel_kept_ratio =
      t.deliver_calls == 0 ? 0.0
                           : static_cast<double>(t.delivered) /
                                 static_cast<double>(t.deliver_calls);
}

}  // namespace perfbench
