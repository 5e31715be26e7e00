#include "core/hinet_generator.hpp"

#include <algorithm>
#include <bit>

#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace hinet {

std::size_t hinet_min_nodes(std::size_t heads, int hop_l) {
  HINET_REQUIRE(heads >= 1, "need at least one head");
  HINET_REQUIRE(hop_l >= 1, "L must be >= 1");
  const std::size_t relays =
      heads >= 1 ? (heads - 1) * static_cast<std::size_t>(hop_l - 1) : 0;
  return heads + relays;
}

namespace {

void validate_config(const HiNetConfig& cfg) {
  HINET_REQUIRE(cfg.nodes >= 1, "need nodes");
  HINET_REQUIRE(cfg.heads >= 1, "need at least one head");
  HINET_REQUIRE(cfg.phase_length >= 1, "T must be >= 1");
  HINET_REQUIRE(cfg.phases >= 1, "need at least one phase");
  HINET_REQUIRE(cfg.hop_l >= 1, "L must be >= 1");
  HINET_REQUIRE(cfg.nodes >= hinet_min_nodes(cfg.heads, cfg.hop_l),
                "node budget too small for heads + backbone relays");
  HINET_REQUIRE(
      cfg.reaffiliation_prob >= 0.0 && cfg.reaffiliation_prob <= 1.0,
      "reaffiliation_prob outside [0,1]");
  HINET_REQUIRE(cfg.head_churn_prob >= 0.0 && cfg.head_churn_prob <= 1.0,
                "head_churn_prob outside [0,1]");
  HINET_REQUIRE(
      cfg.backbone_rewire_prob >= 0.0 && cfg.backbone_rewire_prob <= 1.0,
      "backbone_rewire_prob outside [0,1]");
}

/// The backbone layout: heads threaded on a chain with L-1 relay gateways
/// between consecutive heads.  Persisted across phases unless a rewire is
/// requested, so (1, L) traces can model a quasi-stable relay structure.
struct BackboneLayout {
  std::vector<NodeId> chain;     ///< heads in chain order
  std::vector<NodeId> gateways;  ///< relay nodes, chain order
};

void add_churn_edges(GraphBuilder& g, std::size_t count, Rng& rng) {
  const std::size_t n = g.node_count();
  if (n < 2) return;
  for (std::size_t e = 0; e < count; ++e) {
    const auto a = static_cast<NodeId>(rng.below(n));
    const auto b = static_cast<NodeId>(rng.below(n));
    if (a != b) g.add_edge(a, b);
  }
}

void save_rng(ByteWriter& w, const Rng& rng) {
  for (std::uint64_t word : rng.state()) w.u64(word);
}

void load_rng(ByteReader& r, Rng& rng) {
  std::array<std::uint64_t, 4> s{};
  for (std::uint64_t& word : s) word = r.u64();
  rng.set_state(s);
}

void save_node_vec(ByteWriter& w, const std::vector<NodeId>& v) {
  w.u64(v.size());
  for (NodeId x : v) w.u32(x);
}

std::vector<NodeId> load_node_vec(ByteReader& r) {
  const std::uint64_t count = r.u64();
  // Validate before allocating (same contract as ByteReader::vec_u64): a
  // corrupt count must be a typed error, not a multi-GiB zero-fill.
  if (count > r.remaining() / 4) {
    throw IoError("HiNet generator state corrupt: node vector exceeds payload");
  }
  std::vector<NodeId> v(count);
  for (NodeId& x : v) x = r.u32();
  return v;
}

void save_view(ByteWriter& w, const HierarchyView& view) {
  const std::size_t n = view.node_count();
  w.u64(n);
  for (NodeId v = 0; v < n; ++v) {
    w.u8(static_cast<std::uint8_t>(view.role(v)));
    w.u32(view.cluster_of(v));
  }
}

HierarchyView load_view(ByteReader& r) {
  const std::uint64_t n = r.u64();
  // Each node stores a u8 role + u32 cluster, so a count past remaining()/5
  // cannot be honest — check before the two vector(n) allocations.
  if (n > r.remaining() / 5) {
    throw IoError("hierarchy view state corrupt: node count exceeds payload");
  }
  std::vector<NodeRole> roles(n);
  std::vector<ClusterId> clusters(n);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(NodeRole::kMember)) {
      throw IoError("hierarchy view state corrupt: unknown role");
    }
    roles[v] = static_cast<NodeRole>(raw);
    clusters[v] = r.u32();
  }
  // Rebuild through the public mutators (heads first: set_member checks
  // that the target is already a head).
  HierarchyView view(n);
  for (NodeId v = 0; v < n; ++v) {
    if (roles[v] == NodeRole::kHead) view.set_head(v);
  }
  for (NodeId v = 0; v < n; ++v) {
    switch (roles[v]) {
      case NodeRole::kHead:
        break;
      case NodeRole::kGateway:
        if (clusters[v] == kNoCluster) {
          view.set_unaffiliated_gateway(v);
        } else {
          view.set_member(v, clusters[v], /*gateway=*/true);
        }
        break;
      case NodeRole::kMember:
        if (clusters[v] != kNoCluster) view.set_member(v, clusters[v]);
        break;
    }
  }
  return view;
}

/// The phase-granular generator state machine: everything the eager trace
/// builder did per phase, factored out so the materialized and streaming
/// paths run the identical draw sequence.  After reset() (or construction)
/// the driver holds phase 0's plan; advance() moves to the next phase.
///
/// A driver built with freeze_graph false is the planning-only driver of
/// hinet_trace_stats: it makes every draw and plans every view exactly as
/// the live driver does, but never counts degrees or freezes a stable
/// graph, so it cannot realize rounds.
class PhaseDriver {
 public:
  PhaseDriver(const HiNetConfig& cfg, bool freeze_graph)
      : cfg_(cfg), freeze_graph_(freeze_graph) {
    validate_config(cfg);
    path_pos_.resize(cfg.nodes);
    degree_.resize(cfg.nodes);
    reset();
  }

  void reset() {
    Rng rng(cfg_.seed);
    layout_rng_ = rng.fork();
    churn_rng_ = rng.fork();
    head_rng_ = rng.fork();

    // Initial head set: random distinct nodes.
    head_set_.clear();
    for (std::size_t idx : head_rng_.sample(cfg_.nodes, cfg_.heads)) {
      head_set_.push_back(static_cast<NodeId>(idx));
    }
    std::sort(head_set_.begin(), head_set_.end());

    // Every node starts unaffiliated: phase 0 has no previous heads.
    view_ = HierarchyView(cfg_.nodes);
    ever_head_.assign(cfg_.nodes, 0);
    for (NodeId h : head_set_) ever_head_[h] = 1;

    stats_ = HiNetTraceStats{};
    phase_ = 0;
    plan_current(/*first=*/true);
  }

  /// Plans the next phase (head churn, backbone rewire, affiliation).
  void advance() {
    ++phase_;
    HINET_REQUIRE(phase_ < cfg_.phases, "advance() past the last phase");
    plan_current(/*first=*/false);
  }

  std::size_t phase() const { return phase_; }
  const HierarchyView& view() const { return view_; }

  /// One realized round, written into out's storage: the phase's stable
  /// graph plus ephemeral churn edges.
  void realize_round(Graph& out) {
    HINET_REQUIRE(freeze_graph_, "a planning-only driver realizes no rounds");
    churn_.reset(cfg_.nodes);
    add_churn_edges(churn_, cfg_.churn_edges, churn_rng_);
    churn_.build_onto(stable_, out);
  }

  /// Phase-level statistics accumulated so far; theta is finalized from
  /// the ever-head set on read.  Per-round member statistics are the
  /// caller's (they are plan metadata times phase_length, no draws).
  HiNetTraceStats stats() const {
    HiNetTraceStats s = stats_;
    s.theta = static_cast<std::size_t>(
        std::count(ever_head_.begin(), ever_head_.end(), char(1)));
    return s;
  }

  void save_state(ByteWriter& w) const {
    save_rng(w, layout_rng_);
    save_rng(w, churn_rng_);
    save_rng(w, head_rng_);
    w.u64(phase_);
    save_node_vec(w, head_set_);
    // The format stores the affiliations twice, as the previous phase's
    // and the current plan's; both are the view's clusters.
    save_node_vec(w, affiliations());
    save_node_vec(w, layout_.chain);
    save_node_vec(w, layout_.gateways);
    save_node_vec(w, affiliations());
    save_graph(w, stable_);
    save_view(w, view_);
  }

  void load_state(ByteReader& r) {
    load_rng(r, layout_rng_);
    load_rng(r, churn_rng_);
    load_rng(r, head_rng_);
    phase_ = r.u64();
    if (phase_ >= cfg_.phases) {
      throw IoError("HiNet generator state corrupt: phase out of range");
    }
    head_set_ = load_node_vec(r);
    const std::vector<ClusterId> prev_head_of = load_node_vec(r);
    layout_.chain = load_node_vec(r);
    layout_.gateways = load_node_vec(r);
    const std::vector<ClusterId> head_of = load_node_vec(r);
    stable_ = load_graph(r, cfg_.nodes);
    view_ = load_view(r);
    if (view_.node_count() != cfg_.nodes ||
        stable_.node_count() != cfg_.nodes) {
      throw IoError("HiNet generator state corrupt: node count mismatch");
    }
    // The view is the one record of affiliation (the next phase reads each
    // member's previous head from it), so both stored copies must match it.
    if (prev_head_of != head_of || head_of != affiliations()) {
      throw IoError(
          "HiNet generator state corrupt: affiliations disagree with the "
          "view");
    }
    // Every stored node id is used as an index downstream (head churn's
    // is_head scratch, backbone planning, affiliation targets), so an
    // out-of-range id from a corrupt payload must be a typed error here,
    // not UB later.
    if (head_set_.size() != cfg_.heads) {
      throw IoError("HiNet generator state corrupt: head set size mismatch");
    }
    const auto check_ids = [&](const std::vector<NodeId>& ids) {
      for (const NodeId x : ids) {
        if (x >= cfg_.nodes) {
          throw IoError("HiNet generator state corrupt: node id out of range");
        }
      }
    };
    check_ids(head_set_);
    check_ids(layout_.chain);
    check_ids(layout_.gateways);
    // plan_phase walks (chain - 1) * (L - 1) relays off the gateway list,
    // so the layout's sizes must be exactly what plan_backbone produces.
    if (layout_.chain.size() != cfg_.heads ||
        layout_.gateways.size() !=
            (cfg_.heads - 1) * (static_cast<std::size_t>(cfg_.hop_l) - 1)) {
      throw IoError("HiNet generator state corrupt: backbone layout size");
    }
    for (std::size_t i = 1; i < head_set_.size(); ++i) {
      if (head_set_[i - 1] >= head_set_[i]) {
        throw IoError("HiNet generator state corrupt: head set not sorted");
      }
    }
    // plan_phase freezes the backbone as one simple path, so no node may
    // sit on it twice.
    std::vector<char> on_path(cfg_.nodes, 0);
    for (const auto* ids : {&layout_.chain, &layout_.gateways}) {
      for (const NodeId x : *ids) {
        if (on_path[x] != 0) {
          throw IoError(
              "HiNet generator state corrupt: backbone repeats a node");
        }
        on_path[x] = 1;
      }
    }
    // The restored layout has not been laid out in this driver's scratch.
    backbone_laid_ = false;
    // Restored mid-run state carries no statistics: stats are a whole-
    // trace property, precomputed by hinet_trace_stats and unaffected by
    // where a checkpoint cut the run.
    ever_head_.assign(cfg_.nodes, 0);
    stats_ = HiNetTraceStats{};
  }

 private:
  void plan_current(bool first) {
    // Head churn at phase boundaries (never in ∞-stable mode).
    bool heads_changed = false;
    if (!first && !cfg_.stable_heads && cfg_.head_churn_prob > 0.0) {
      bool marked = false;  // is_head_ mirrors head_set_ once set
      for (NodeId& h : head_set_) {
        if (!head_rng_.bernoulli(cfg_.head_churn_prob)) continue;
        // Swap head role with a random non-head node.
        if (!marked) {
          backbone_laid_ = false;  // is_head_ becomes this loop's scratch
          is_head_.assign(cfg_.nodes, 0);
          for (NodeId x : head_set_) is_head_[x] = 1;
          marked = true;
        }
        NodeId replacement = h;
        for (int attempt = 0; attempt < 64; ++attempt) {
          const auto cand = static_cast<NodeId>(head_rng_.below(cfg_.nodes));
          if (!is_head_[cand]) {
            replacement = cand;
            break;
          }
        }
        if (replacement != h) {
          is_head_[h] = 0;
          is_head_[replacement] = 1;
          h = replacement;
          ever_head_[replacement] = 1;
          heads_changed = true;
        }
      }
      if (heads_changed) {
        std::sort(head_set_.begin(), head_set_.end());
        ++stats_.head_changes;
      }
    }

    if (first || heads_changed ||
        layout_rng_.bernoulli(cfg_.backbone_rewire_prob)) {
      plan_backbone();
    }
    plan_phase();
  }

  /// Lays the backbone out afresh from the head set: shuffled chain order,
  /// then (L-1) relays per chain link drawn from the shuffled non-heads.
  void plan_backbone() {
    const std::size_t n = cfg_.nodes;
    const auto l = static_cast<std::size_t>(cfg_.hop_l);
    layout_.chain = head_set_;
    layout_rng_.shuffle(layout_.chain);
    backbone_laid_ = false;

    is_head_.assign(n, 0);
    for (NodeId h : layout_.chain) is_head_[h] = 1;
    pool_.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (!is_head_[v]) pool_.push_back(v);
    }
    const std::size_t relay_count =
        layout_.chain.empty() ? 0 : (layout_.chain.size() - 1) * (l - 1);
    HINET_REQUIRE(pool_.size() >= relay_count,
                  "not enough nodes for the backbone relays");
    layout_rng_.shuffle(pool_);
    layout_.gateways.assign(pool_.begin(),
                            pool_.begin() +
                                static_cast<std::ptrdiff_t>(relay_count));
  }

  /// Lays out one phase from the backbone layout: thread the backbone
  /// path, affiliate every non-backbone node with a head (keeping its
  /// previous head when possible — the re-affiliation coin decides churn),
  /// and freeze the stable graph once.
  ///
  /// The member loop writes every off-path node each phase, and
  /// lay_backbone writes every path node whenever the backbone changes, so
  /// nothing is reset first.  The view doubles as the record of the
  /// previous phase's affiliations: the member loop reads a node's old head
  /// from the view just before it overwrites it.  A phase that keeps last
  /// phase's backbone (no rewire, no head change) skips lay_backbone: the
  /// path, the heads and relays in the view and the relays' degrees all
  /// still stand, and only the heads' member counts restart.
  ///
  /// The stable graph is a tree of known shape — one simple backbone path
  /// plus exactly one member→head edge per other node — so the walks that
  /// lay it out also count every row's degree, and one ascending pass over
  /// the nodes writes the CSR in row order: node x is appended to each of
  /// its neighbours' rows (a member's head, a backbone node's ≤ 2 path
  /// neighbours), and a member's own row is its head alone.  Every row
  /// comes out sorted with no edge list and no sort.  That pass also checks
  /// the phase's hierarchy against the graph it writes, node by node: what
  /// HierarchyView::validate would check, at O(1) per node.
  void plan_phase() {
    const std::size_t n = cfg_.nodes;
    const std::vector<NodeId>& chain = layout_.chain;
    if (!backbone_laid_) {
      lay_backbone();
    } else if (freeze_graph_) {
      for (NodeId h : chain) degree_[h] = path_degree(path_pos_[h]);
    }

    // Members: everyone not a head or relay, in ascending order, found a
    // word of the path bitmap at a time (a per-node "on the path?" branch
    // mispredicts on a quarter of the nodes).
    for (std::size_t w = 0; w < on_path_.size(); ++w) {
      std::uint64_t off_path = ~on_path_[w];
      if ((w + 1) * 64 > n) off_path &= (std::uint64_t{1} << (n % 64)) - 1;
      for (; off_path != 0; off_path &= off_path - 1) {
        const auto v = static_cast<NodeId>(
            64 * w + static_cast<std::size_t>(std::countr_zero(off_path)));
        const ClusterId prev = view_.cluster_of(v);  // last phase's head
        ClusterId target = kNoCluster;
        const bool prev_valid = prev != kNoCluster && is_head_[prev];
        if (prev_valid && !layout_rng_.bernoulli(cfg_.reaffiliation_prob)) {
          target = prev;
        } else {
          target = layout_rng_.pick(chain);
          if (prev_valid && target != prev) ++stats_.reaffiliation_events;
          // Forced moves (previous head vanished) also count: the member
          // must re-affiliate regardless of the coin.
          if (!prev_valid && prev != kNoCluster) ++stats_.reaffiliation_events;
        }
        view_.set_member(v, target);
        if (freeze_graph_) {
          degree_[v] = 1;
          ++degree_[target];
        }
      }
    }
    if (!freeze_graph_) return;

    const std::size_t path_len = path_.size();
    GraphBuilder::fill_rows(
        degree_,
        [&](auto append) {
          for (NodeId x = 0; x < n; ++x) {
            const ClusterId h = view_.cluster_of(x);
            if (!on_path(x)) {
              // A member's head is a head of this phase, and the edge to it
              // is the one entry of the member's row.
              HINET_ENSURE(h < n && is_head_[h] && degree_[x] == 1,
                           "member not affiliated with a head of this phase");
              append(x, h);
              append(h, x);
              continue;
            }
            // A head is its own cluster; an affiliated relay's head is one
            // of its path neighbours, so the path edge is its head edge.
            const std::uint32_t p = path_pos_[x];
            const bool left = p > 0 && path_[p - 1] == h;
            const bool right = p + 1 < path_len && path_[p + 1] == h;
            HINET_ENSURE(is_head_[x] ? h == x
                                     : h == kNoCluster ||
                                           ((left || right) && is_head_[h]),
                         "backbone node not affiliated with itself or an "
                         "adjacent head");
            if (p > 0) append(path_[p - 1], x);
            if (p + 1 < path_len) append(path_[p + 1], x);
          }
        },
        stable_);
  }

  /// Threads the backbone path through layout_: chain heads with L-1
  /// relays between neighbours, written into the view, is_head_, the path
  /// bitmap and positions, and (as path degrees) degree_.
  void lay_backbone() {
    const std::size_t n = cfg_.nodes;
    const auto l = static_cast<std::size_t>(cfg_.hop_l);
    const std::vector<NodeId>& chain = layout_.chain;

    is_head_.assign(n, 0);
    for (NodeId h : chain) {
      view_.set_head(h);
      is_head_[h] = 1;
    }
    on_path_.assign((n + 63) / 64, 0);
    path_.clear();
    const std::size_t path_len = chain.size() + (chain.size() - 1) * (l - 1);
    const auto place = [&](NodeId x) {
      const std::size_t p = path_.size();
      path_.push_back(x);
      path_pos_[x] = static_cast<std::uint32_t>(p);
      on_path_[x / 64] |= std::uint64_t{1} << (x % 64);
      degree_[x] = (p > 0 ? 1u : 0u) + (p + 1 < path_len ? 1u : 0u);
    };
    for (std::size_t i = 0, relay_cursor = 0; i < chain.size(); ++i) {
      place(chain[i]);
      if (i + 1 == chain.size()) break;
      for (std::size_t hop = 1; hop < l; ++hop) {
        const NodeId relay = layout_.gateways[relay_cursor++];
        // Affiliate the relay with whichever chain head it is adjacent to;
        // middle relays of an L>3 backbone touch no head and stay
        // unaffiliated (the "at most one cluster" case).
        if (hop == 1) {
          view_.set_member(relay, chain[i], /*gateway=*/true);
        } else if (hop == l - 1) {
          view_.set_member(relay, chain[i + 1], /*gateway=*/true);
        } else {
          view_.set_unaffiliated_gateway(relay);
        }
        place(relay);
      }
    }
    backbone_laid_ = true;
  }

  bool on_path(NodeId x) const { return (on_path_[x / 64] >> (x % 64)) & 1u; }

  /// The path degree of the node at path position p: its ≤ 2 neighbours.
  std::uint32_t path_degree(std::uint32_t p) const {
    return (p > 0 ? 1u : 0u) + (p + 1 < path_.size() ? 1u : 0u);
  }

  /// Each node's cluster in the current view, as the saved state stores it.
  std::vector<ClusterId> affiliations() const {
    std::vector<ClusterId> out(view_.node_count());
    for (NodeId v = 0; v < out.size(); ++v) out[v] = view_.cluster_of(v);
    return out;
  }

  HiNetConfig cfg_;
  bool freeze_graph_;
  Rng layout_rng_;
  Rng churn_rng_;
  Rng head_rng_;
  std::vector<NodeId> head_set_;
  std::vector<char> ever_head_;
  BackboneLayout layout_;
  Graph stable_;        ///< the phase's backbone + member edges
  HierarchyView view_;  ///< the phase's hierarchy (also the affiliation record)
  std::size_t phase_ = 0;
  HiNetTraceStats stats_;

  // Buffers reused from phase to phase and round to round, so steady-state
  // synthesis allocates nothing proportional to n.  When backbone_laid_ is
  // set, is_head_, path_, path_pos_, on_path_ and the path nodes' view
  // entries and degrees describe layout_ (lay_backbone wrote them).
  bool backbone_laid_ = false;
  std::vector<char> is_head_;
  std::vector<NodeId> pool_;
  std::vector<NodeId> path_;             ///< the backbone path, end to end
  std::vector<std::uint64_t> on_path_;   ///< bit x: x is on path_
  std::vector<std::uint32_t> path_pos_;  ///< index in path_ (path nodes only)
  std::vector<std::uint32_t> degree_;   ///< stable-graph row lengths
  GraphBuilder churn_;  ///< the round's ephemeral edges
};

HiNetTraceStats finalize_stats(const HiNetConfig& cfg, HiNetTraceStats stats,
                               double member_round_sum) {
  const auto total_rounds = static_cast<double>(cfg.phases * cfg.phase_length);
  stats.mean_members = member_round_sum / total_rounds;
  stats.mean_reaffiliations =
      stats.mean_members > 0.0
          ? static_cast<double>(stats.reaffiliation_events) /
                stats.mean_members
          : 0.0;
  return stats;
}

/// Shared state of a streaming HiNet trace: the phase driver plus a ring
/// of realized {graph, view} rounds.  The topology and hierarchy adapters
/// below hold one core between them, so the engine's per-round
/// graph_at/hierarchy_at pair costs one synthesis, not two.
class HiNetStreamCore {
 public:
  HiNetStreamCore(const HiNetConfig& cfg, std::size_t window)
      : cfg_(cfg),
        driver_(cfg, /*freeze_graph=*/true),
        horizon_(cfg.phases * cfg.phase_length) {
    HINET_REQUIRE(window >= 1, "ring window must hold at least one round");
    ring_.resize(std::min(window, horizon_));
  }

  std::size_t node_count() const { return cfg_.nodes; }
  std::size_t horizon() const { return horizon_; }
  std::size_t rewinds() const { return rewinds_; }

  const Graph& graph_at(Round r) { return slot_at(r).graph; }
  const HierarchyView& view_at(Round r) { return slot_at(r).view; }

  void save_state(ByteWriter& w) const {
    w.u64(frontier_);
    ByteWriter dw;
    driver_.save_state(dw);
    w.blob(dw.buffer());
  }

  void load_state(ByteReader& r) {
    const std::uint64_t stored_frontier = r.u64();
    if (stored_frontier > horizon_) {
      throw IoError(
          "HiNet stream state corrupt: frontier is past the horizon");
    }
    ByteReader dr(r.blob(), "HiNet generator state");
    driver_.load_state(dr);
    dr.expect_done();
    frontier_ = stored_frontier;
    resident_begin_ = stored_frontier;
    for (Slot& s : ring_) s = Slot{};
  }

 private:
  struct Slot {
    Graph graph;
    HierarchyView view;
  };

  Slot& slot_at(Round r) {
    if (r >= horizon_) r = horizon_ - 1;  // repeat-final-round convention
    const std::size_t w = ring_.size();
    if (r < frontier_) {
      if (r >= resident_begin_ && r + w >= frontier_) return ring_[r % w];
      ++rewinds_;
      driver_.reset();
      frontier_ = 0;
      resident_begin_ = 0;
    }
    while (frontier_ <= r) {
      const std::size_t phase = frontier_ / cfg_.phase_length;
      while (driver_.phase() < phase) driver_.advance();
      Slot& slot = ring_[frontier_ % w];
      driver_.realize_round(slot.graph);
      slot.view = driver_.view();
      ++frontier_;
    }
    return ring_[r % w];
  }

  HiNetConfig cfg_;
  PhaseDriver driver_;
  std::size_t horizon_;
  Round frontier_ = 0;
  Round resident_begin_ = 0;
  std::size_t rewinds_ = 0;
  std::vector<Slot> ring_;
};

class HiNetStreamTopology final : public DynamicNetwork,
                                  public TraceStateSource {
 public:
  explicit HiNetStreamTopology(std::shared_ptr<HiNetStreamCore> core)
      : core_(std::move(core)) {}

  std::size_t node_count() const override { return core_->node_count(); }
  const Graph& graph_at(Round r) override { return core_->graph_at(r); }

  void save_trace_state(ByteWriter& w) const override {
    core_->save_state(w);
  }
  void restore_trace_state(ByteReader& r) override { core_->load_state(r); }

 private:
  std::shared_ptr<HiNetStreamCore> core_;
};

class HiNetStreamHierarchy final : public HierarchyProvider {
 public:
  explicit HiNetStreamHierarchy(std::shared_ptr<HiNetStreamCore> core)
      : core_(std::move(core)) {}

  std::size_t node_count() const override { return core_->node_count(); }
  const HierarchyView& hierarchy_at(Round r) override {
    return core_->view_at(r);
  }

 private:
  std::shared_ptr<HiNetStreamCore> core_;
};

}  // namespace

HiNetTraceStats hinet_trace_stats(const HiNetConfig& cfg) {
  PhaseDriver driver(cfg, /*freeze_graph=*/false);
  double member_round_sum = 0.0;
  for (std::size_t phase = 0;; ++phase) {
    member_round_sum += static_cast<double>(driver.view().member_count()) *
                        static_cast<double>(cfg.phase_length);
    if (phase + 1 >= cfg.phases) break;
    driver.advance();
  }
  return finalize_stats(cfg, driver.stats(), member_round_sum);
}

HiNetStream make_hinet_stream(const HiNetConfig& cfg, std::size_t window) {
  HiNetStream out;
  // The dry planning pass replays exactly the layout/head draws the live
  // stream will make (the churn stream is an independent fork), so the
  // stats are those of the realized trace.
  out.stats = hinet_trace_stats(cfg);
  out.rounds = cfg.phases * cfg.phase_length;
  auto core = std::make_shared<HiNetStreamCore>(cfg, window);
  out.topology = std::make_unique<HiNetStreamTopology>(core);
  out.hierarchy = std::make_unique<HiNetStreamHierarchy>(std::move(core));
  return out;
}

HiNetTrace make_hinet_trace(const HiNetConfig& cfg) {
  PhaseDriver driver(cfg, /*freeze_graph=*/true);

  std::vector<Graph> graphs;
  std::vector<HierarchyView> views;
  graphs.reserve(cfg.phases * cfg.phase_length);
  views.reserve(cfg.phases * cfg.phase_length);

  double member_round_sum = 0.0;
  for (std::size_t phase = 0;; ++phase) {
    for (std::size_t r = 0; r < cfg.phase_length; ++r) {
      driver.realize_round(graphs.emplace_back());
      views.push_back(driver.view());
      member_round_sum += static_cast<double>(driver.view().member_count());
    }
    if (phase + 1 >= cfg.phases) break;
    driver.advance();
  }

  const HiNetTraceStats stats =
      finalize_stats(cfg, driver.stats(), member_round_sum);

  // No whole-trace re-validation here: every phase's view was already
  // checked against its stable graph, node by node, by the pass that froze
  // that graph (PhaseDriver::plan_phase: each member's head is a head and
  // its row's one entry, each backbone node is its own head or sits next
  // to its head on the path — what HierarchyView::validate checks at hop
  // limit 1).  Each round's view IS its phase's checked view, and each
  // round's graph is the stable graph plus churn edges — add_churn_edges
  // only ever ADDS edges, and the check at hop limit 1 is pure edge
  // existence, which is monotone under edge addition.  Re-running
  // Ctvg::validate() per round was the single largest cost of trace
  // generation and could never fire.  The full validate still checks
  // hierarchies that come from elsewhere (Ctvg::validate, which trace_tool
  // runs on loaded traces; cluster maintenance) and, in the tests, every
  // synthesized round.
  Ctvg ctvg(GraphSequence(std::move(graphs)),
            HierarchySequence(std::move(views)));
  return HiNetTrace{std::move(ctvg), stats};
}

}  // namespace hinet
