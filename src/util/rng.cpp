#include "util/rng.hpp"

namespace hinet {

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  HINET_REQUIRE(lo <= hi, "uniform_int() with inverted range");
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform_real(double lo, double hi) {
  HINET_REQUIRE(lo <= hi, "uniform_real() with inverted range");
  return lo + (hi - lo) * uniform01();
}

std::vector<std::size_t> Rng::sample(std::size_t population,
                                     std::size_t count) {
  HINET_REQUIRE(count <= population, "sample() larger than population");
  // Partial Fisher-Yates over an index vector.  For the network sizes used
  // here (<= a few thousand nodes) the O(population) setup is negligible.
  std::vector<std::size_t> idx(population);
  for (std::size_t i = 0; i < population; ++i) idx[i] = i;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + below(population - i);
    using std::swap;
    swap(idx[i], idx[j]);
  }
  idx.resize(count);
  return idx;
}

Rng Rng::fork() {
  Rng child(0);
  SplitMix64 sm((*this)());
  // Re-derive all four state words through SplitMix so the child stream is
  // decorrelated from the parent's future output.
  child.s_[0] = sm.next();
  child.s_[1] = sm.next();
  child.s_[2] = sm.next();
  child.s_[3] = sm.next();
  return child;
}

}  // namespace hinet
