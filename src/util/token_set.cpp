#include "util/token_set.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

namespace hinet {

namespace {

std::uint32_t checked_universe(std::size_t universe) {
  HINET_REQUIRE(universe <= std::numeric_limits<std::uint32_t>::max(),
                "token universe exceeds 2^32 - 1");
  return static_cast<std::uint32_t>(universe);
}

}  // namespace

TokenSet::TokenSet(std::size_t universe)
    : universe_(checked_universe(universe)) {
  if (!is_inline()) heap_ = new std::uint64_t[word_count()]();
}

TokenSet::TokenSet(std::size_t universe,
                   std::initializer_list<TokenId> tokens)
    : TokenSet(universe) {
  for (TokenId t : tokens) insert(t);
}

TokenSet::TokenSet(const TokenSet& other)
    : universe_(other.universe_), count_(other.count_) {
  if (other.is_inline()) {
    copy_inline(other);
  } else {
    heap_ = new std::uint64_t[word_count()];
    std::copy_n(other.heap_, word_count(), heap_);
  }
}

TokenSet& TokenSet::operator=(const TokenSet& other) {
  if (this == &other) return *this;
  if (other.is_inline()) {
    release();
    copy_inline(other);
  } else if (!is_inline() && word_count() == other.word_count()) {
    std::copy_n(other.heap_, word_count(), heap_);
  } else {
    // Allocate before releasing, so a failed allocation leaves *this intact.
    std::uint64_t* fresh = new std::uint64_t[other.word_count()];
    std::copy_n(other.heap_, other.word_count(), fresh);
    release();
    heap_ = fresh;
  }
  universe_ = other.universe_;
  count_ = other.count_;
  return *this;
}

void TokenSet::check_token(TokenId t) const {
  HINET_REQUIRE(t < universe_, "token id outside universe");
}

// detlint: hot-path-begin — membership tests and the word-wise set ops below
// run inside every algorithm's transmit/receive; they must stay allocation
// free (fixed word arrays, popcount loops).
bool TokenSet::contains(TokenId t) const {
  check_token(t);
  return (data()[t / kBits] >> (t % kBits)) & 1ULL;
}

bool TokenSet::insert(TokenId t) {
  check_token(t);
  std::uint64_t& w = data()[t / kBits];
  const std::uint64_t mask = 1ULL << (t % kBits);
  const bool added = (w & mask) == 0;
  w |= mask;
  count_ += added ? 1u : 0u;
  return added;
}

bool TokenSet::erase(TokenId t) {
  check_token(t);
  std::uint64_t& w = data()[t / kBits];
  const std::uint64_t mask = 1ULL << (t % kBits);
  const bool present = (w & mask) != 0;
  w &= ~mask;
  count_ -= present ? 1u : 0u;
  return present;
}

void TokenSet::clear() {
  std::fill_n(data(), word_count(), 0);
  count_ = 0;
}

std::size_t TokenSet::unite(const TokenSet& other) {
  HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in unite");
  std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  std::size_t added = 0;
  for (std::size_t i = 0; i < word_count(); ++i) {
    const std::uint64_t fresh = o[i] & ~w[i];
    added += static_cast<std::size_t>(std::popcount(fresh));
    w[i] |= o[i];
  }
  count_ += static_cast<std::uint32_t>(added);
  return added;
}

void TokenSet::subtract(const TokenSet& other) {
  HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in subtract");
  std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  std::size_t n = 0;
  for (std::size_t i = 0; i < word_count(); ++i) {
    w[i] &= ~o[i];
    n += static_cast<std::size_t>(std::popcount(w[i]));
  }
  count_ = static_cast<std::uint32_t>(n);
}

void TokenSet::intersect(const TokenSet& other) {
  HINET_REQUIRE(universe_ == other.universe_,
                "universe mismatch in intersect");
  std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  std::size_t n = 0;
  for (std::size_t i = 0; i < word_count(); ++i) {
    w[i] &= o[i];
    n += static_cast<std::size_t>(std::popcount(w[i]));
  }
  count_ = static_cast<std::uint32_t>(n);
}

bool TokenSet::subset_of(const TokenSet& other) const {
  HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in subset_of");
  const std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  for (std::size_t i = 0; i < word_count(); ++i) {
    if (w[i] & ~o[i]) return false;
  }
  return true;
}

std::optional<TokenId> TokenSet::min_diff(const TokenSet& other) const {
  HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in min_diff");
  const std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  for (std::size_t i = 0; i < word_count(); ++i) {
    const std::uint64_t d = w[i] & ~o[i];
    if (d != 0) {
      return static_cast<TokenId>(i * kBits +
                                  static_cast<std::size_t>(std::countr_zero(d)));
    }
  }
  return std::nullopt;
}

std::optional<TokenId> TokenSet::max_diff(const TokenSet& other) const {
  HINET_REQUIRE(universe_ == other.universe_, "universe mismatch in max_diff");
  const std::uint64_t* w = data();
  const std::uint64_t* o = other.data();
  for (std::size_t i = word_count(); i-- > 0;) {
    const std::uint64_t d = w[i] & ~o[i];
    if (d != 0) {
      return static_cast<TokenId>(
          i * kBits + (kBits - 1 -
                       static_cast<std::size_t>(std::countl_zero(d))));
    }
  }
  return std::nullopt;
}

std::optional<TokenId> TokenSet::max_diff(const TokenSet& a,
                                          const TokenSet& b) const {
  HINET_REQUIRE(universe_ == a.universe_ && universe_ == b.universe_,
                "universe mismatch in max_diff");
  const std::uint64_t* w = data();
  const std::uint64_t* wa = a.data();
  const std::uint64_t* wb = b.data();
  for (std::size_t i = word_count(); i-- > 0;) {
    const std::uint64_t d = w[i] & ~(wa[i] | wb[i]);
    if (d != 0) {
      return static_cast<TokenId>(
          i * kBits + (kBits - 1 -
                       static_cast<std::size_t>(std::countl_zero(d))));
    }
  }
  return std::nullopt;
}

std::optional<TokenId> TokenSet::min_element() const {
  const std::uint64_t* w = data();
  for (std::size_t i = 0; i < word_count(); ++i) {
    if (w[i] != 0) {
      return static_cast<TokenId>(
          i * kBits + static_cast<std::size_t>(std::countr_zero(w[i])));
    }
  }
  return std::nullopt;
}

std::optional<TokenId> TokenSet::max_element() const {
  const std::uint64_t* w = data();
  for (std::size_t i = word_count(); i-- > 0;) {
    if (w[i] != 0) {
      return static_cast<TokenId>(
          i * kBits +
          (kBits - 1 - static_cast<std::size_t>(std::countl_zero(w[i]))));
    }
  }
  return std::nullopt;
}
// detlint: hot-path-end

std::vector<TokenId> TokenSet::to_vector() const {
  std::vector<TokenId> out;
  out.reserve(count());
  for (std::size_t i = 0; i < word_count(); ++i) {
    std::uint64_t w = data()[i];
    while (w != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(w));
      out.push_back(static_cast<TokenId>(i * kBits + bit));
      w &= w - 1;
    }
  }
  return out;
}

std::string TokenSet::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (TokenId t : to_vector()) {
    if (!first) os << ',';
    os << t;
    first = false;
  }
  os << '}';
  return os.str();
}

bool operator==(const TokenSet& a, const TokenSet& b) {
  return a.universe_ == b.universe_ &&
         std::equal(a.data(), a.data() + a.word_count(), b.data());
}

TokenSet TokenSet::set_union(const TokenSet& a, const TokenSet& b) {
  HINET_REQUIRE(a.universe_ == b.universe_, "universe mismatch in set_union");
  TokenSet out = a;
  out.unite(b);
  return out;
}

TokenSet TokenSet::from_words(std::size_t universe,
                              std::vector<std::uint64_t> words) {
  TokenSet out(universe);
  HINET_REQUIRE(words.size() == out.word_count(),
                "word count does not match the universe");
  std::uint64_t* w = out.data();
  std::copy(words.begin(), words.end(), w);
  // Mask bits beyond the universe so count()/full() stay truthful.
  const std::size_t tail = universe % kBits;
  if (tail != 0) w[words.size() - 1] &= (1ULL << tail) - 1;
  std::size_t n = 0;
  for (std::uint64_t x : out.words()) {
    n += static_cast<std::size_t>(std::popcount(x));
  }
  out.count_ = static_cast<std::uint32_t>(n);
  return out;
}

}  // namespace hinet
