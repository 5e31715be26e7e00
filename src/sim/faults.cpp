#include "sim/faults.hpp"

#include <algorithm>

#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace hinet {

bool FaultPlan::active_at(Round r) const {
  if (any_down(crashes, r)) return true;
  for (const PartitionEvent& p : partitions) {
    if (p.active_at(r)) return true;
  }
  for (const LinkBurst& b : bursts) {
    if (b.active_at(r)) return true;
  }
  return false;
}

bool FaultPlan::node_down(NodeId v, Round r) const {
  for (const CrashEvent& c : crashes) {
    if (c.node == v && c.down_at(r)) return true;
  }
  return false;
}

void FaultPlan::validate(std::size_t node_count) const {
  for (const CrashEvent& c : crashes) {
    HINET_REQUIRE(c.node < node_count, "crash node out of range");
    HINET_REQUIRE(c.recovery > c.round, "recovery must be after the crash");
  }
  for (const PartitionEvent& p : partitions) {
    HINET_REQUIRE(p.heal > p.start, "partition must heal after it starts");
    HINET_REQUIRE(!p.group.empty(), "partition group must be non-empty");
    for (NodeId v : p.group) {
      HINET_REQUIRE(v < node_count, "partition node out of range");
    }
  }
  for (const LinkBurst& b : bursts) {
    HINET_REQUIRE(b.length >= 1, "link burst needs length >= 1");
    for (const Edge& e : b.links) {
      HINET_REQUIRE(e.u < node_count && e.v < node_count,
                    "burst link endpoint out of range");
    }
  }
}

FaultPlan random_churn_plan(std::size_t node_count, std::size_t crash_count,
                            std::size_t horizon, std::size_t downtime,
                            std::uint64_t seed) {
  HINET_REQUIRE(crash_count <= node_count, "cannot crash more nodes than exist");
  HINET_REQUIRE(horizon >= 1, "horizon must be >= 1");
  HINET_REQUIRE(downtime >= 1, "downtime must be >= 1");
  Rng rng(seed);
  FaultPlan plan;
  const auto victims = rng.sample(node_count, crash_count);
  plan.crashes.reserve(crash_count);
  for (std::size_t v : victims) {
    CrashEvent c;
    c.node = static_cast<NodeId>(v);
    c.round = rng.below(horizon);
    c.recovery = downtime == kNoRecovery ? kNoRecovery : c.round + downtime;
    plan.crashes.push_back(c);
  }
  // Sort by crash round so plans read chronologically in logs and JSON.
  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              return a.round != b.round ? a.round < b.round : a.node < b.node;
            });
  return plan;
}

FaultyNetwork::FaultyNetwork(std::unique_ptr<DynamicNetwork> base,
                             FaultPlan plan)
    : owned_(std::move(base)), base_(owned_.get()), plan_(std::move(plan)) {
  HINET_REQUIRE(base_ != nullptr, "FaultyNetwork needs a base network");
  plan_.validate(base_->node_count());
}

FaultyNetwork::FaultyNetwork(DynamicNetwork& base, FaultPlan plan)
    : base_(&base), plan_(std::move(plan)) {
  plan_.validate(base_->node_count());
}

const Graph& FaultyNetwork::graph_at(Round r) {
  // Fault-free rounds (in particular: every round of an empty plan) forward
  // the base graph by reference — the decorator is zero-cost when unused.
  if (!plan_.active_at(r)) return base_->graph_at(r);
  const CachedRound& slot = cache_[r % cache_.size()];
  if (slot.valid && slot.round == r) return slot.graph;
  return rebuild(r);
}

const Graph& FaultyNetwork::rebuild(Round r) {
  const Graph& base = base_->graph_at(r);
  const std::size_t n = base.node_count();
  down_.assign(n, 0);
  for (const CrashEvent& c : plan_.crashes) {
    if (c.down_at(r)) down_[c.node] = 1;
  }
  // An edge crosses a partition when exactly one endpoint is in its group.
  std::size_t partitions = 0;
  for (const PartitionEvent& p : plan_.partitions) {
    if (!p.active_at(r)) continue;
    if (inside_.size() == partitions) inside_.emplace_back();
    inside_[partitions].assign(n, 0);
    for (NodeId v : p.group) inside_[partitions][v] = 1;
    ++partitions;
  }
  cut_links_.clear();
  for (const LinkBurst& b : plan_.bursts) {
    if (!b.active_at(r)) continue;
    for (const Edge& e : b.links) {
      cut_links_.push_back({std::min(e.u, e.v), std::max(e.u, e.v)});
    }
  }
  std::sort(cut_links_.begin(), cut_links_.end());

  const auto keep = [&](NodeId u, NodeId v) {
    if (down_[u] != 0 || down_[v] != 0) return false;
    for (std::size_t i = 0; i < partitions; ++i) {
      if (inside_[i][u] != inside_[i][v]) return false;
    }
    return cut_links_.empty() ||
           !std::binary_search(cut_links_.begin(), cut_links_.end(),
                               Edge{std::min(u, v), std::max(u, v)});
  };
  CachedRound& slot = cache_[r % cache_.size()];
  GraphBuilder::filter_into(base, keep, slot.graph);
  slot.round = r;
  slot.valid = true;
  return slot.graph;
}

void FaultyNetwork::save_trace_state(ByteWriter& w) const {
  // The decorator itself is stateless (the plan is construction data);
  // forward the capability to the base when it has one.
  const auto* src = dynamic_cast<const TraceStateSource*>(base_);
  w.u8(src != nullptr ? 1 : 0);
  if (src != nullptr) src->save_trace_state(w);
}

void FaultyNetwork::restore_trace_state(ByteReader& r) {
  const bool has_base = r.u8() != 0;
  auto* src = dynamic_cast<TraceStateSource*>(base_);
  if (has_base != (src != nullptr)) {
    throw IoError(
        "fault decorator state corrupt or mismatched: base network "
        "checkpoint capability differs from the snapshot's");
  }
  if (src != nullptr) src->restore_trace_state(r);
  for (CachedRound& slot : cache_) slot.valid = false;
}

}  // namespace hinet
