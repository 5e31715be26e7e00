// The randomised (T, L)-HiNet configs shared by the synthesis suites.
//
// random_hinet_config(i) is a pure function of i, so every suite that
// walks indices 0..kRandomHiNetConfigs-1 covers the same 24 configs, and
// the digests recorded against them stay comparable across suites.
#pragma once

#include <sstream>
#include <string>

#include "core/hinet_generator.hpp"
#include "util/rng.hpp"

namespace hinet {

inline constexpr std::size_t kRandomHiNetConfigs = 24;

inline HiNetConfig random_hinet_config(std::size_t index) {
  Rng rng(0x5eed0000u + index);
  HiNetConfig cfg;
  cfg.heads = 1 + rng.below(8);
  cfg.hop_l = 1 + static_cast<int>(rng.below(4));
  cfg.nodes = hinet_min_nodes(cfg.heads, cfg.hop_l) + rng.below(40);
  cfg.phase_length = 1 + rng.below(4);
  cfg.phases = 1 + rng.below(6);
  cfg.churn_edges = rng.below(7);
  const double probs[] = {0.0, 0.1, 0.5, 1.0};
  cfg.reaffiliation_prob = probs[rng.below(4)];
  cfg.head_churn_prob = probs[rng.below(4)];
  cfg.backbone_rewire_prob = probs[rng.below(4)];
  cfg.stable_heads = rng.bernoulli(0.25);
  cfg.seed = rng();
  return cfg;
}

inline std::string describe(const HiNetConfig& cfg) {
  std::ostringstream os;
  os << "n=" << cfg.nodes << " heads=" << cfg.heads << " L=" << cfg.hop_l
     << " T=" << cfg.phase_length << " phases=" << cfg.phases
     << " churn=" << cfg.churn_edges << " reaff=" << cfg.reaffiliation_prob
     << " head_churn=" << cfg.head_churn_prob
     << " rewire=" << cfg.backbone_rewire_prob
     << " stable_heads=" << cfg.stable_heads;
  return os.str();
}

}  // namespace hinet
