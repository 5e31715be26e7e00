// Output values recorded for the full-size workloads, per seed.
//
// The table in expected.cpp was produced by `hinet_perfbench --record`
// from the library as it stood when the benchmark was defined; results
// are a pure function of (inputs, seed), so any later build must
// reproduce them exactly.  Seeds outside the table are still checked, but
// only against the benchmark's own reference computations.
#pragma once

#include <cstdint>

namespace perfbench {

/// What flood_stream must produce: Σ tokens sent and Σ tokens delivered.
struct FloodTotals {
  std::uint64_t tokens_sent = 0;
  std::uint64_t delivered = 0;
  friend bool operator==(const FloodTotals&, const FloodTotals&) = default;
};

struct ExpectedSeed {
  std::uint64_t seed = 0;
  FloodTotals flood;
  std::uint64_t alg1_digest = 0;   ///< AggregateResult::stats_digest
  std::uint64_t fault_digest = 0;  ///< AggregateResult::stats_digest
};

/// The recorded values for `seed`, or nullptr when it was not recorded.
const ExpectedSeed* expected_for_seed(std::uint64_t seed);

}  // namespace perfbench
