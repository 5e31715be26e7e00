#include "expected.hpp"

#include <iterator>

namespace perfbench {
namespace {

// {seed, {flood tokens_sent, flood delivered}, alg1 digest, fault digest}
constexpr ExpectedSeed kExpected[] = {
#include "expected_values.inc"
};

}  // namespace

const ExpectedSeed* expected_for_seed(std::uint64_t seed) {
  for (const ExpectedSeed& e : kExpected) {
    if (e.seed == seed) return &e;
  }
  return nullptr;
}

}  // namespace perfbench
