#include "util/token_set.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <utility>
#include <vector>

#include "sim/packet.hpp"
#include "util/rng.hpp"

namespace hinet {
namespace {

TEST(TokenSet, StartsEmpty) {
  TokenSet s(10);
  EXPECT_EQ(s.universe(), 10u);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.full());
}

TEST(TokenSet, InitializerList) {
  TokenSet s(8, {0, 3, 7});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(1));
}

TEST(TokenSet, InsertReportsNovelty) {
  TokenSet s(4);
  EXPECT_TRUE(s.insert(2));
  EXPECT_FALSE(s.insert(2));
  EXPECT_EQ(s.count(), 1u);
}

TEST(TokenSet, EraseReportsPresence) {
  TokenSet s(4, {1});
  EXPECT_TRUE(s.erase(1));
  EXPECT_FALSE(s.erase(1));
  EXPECT_TRUE(s.empty());
}

TEST(TokenSet, OutOfUniverseThrows) {
  TokenSet s(4);
  EXPECT_THROW(s.insert(4), PreconditionError);
  EXPECT_THROW(s.contains(100), PreconditionError);
}

TEST(TokenSet, FullDetection) {
  TokenSet s(3, {0, 1, 2});
  EXPECT_TRUE(s.full());
  s.erase(1);
  EXPECT_FALSE(s.full());
}

TEST(TokenSet, ClearEmpties) {
  TokenSet s(70, {0, 69});
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(TokenSet, UniteCountsNewTokens) {
  TokenSet a(8, {0, 1});
  TokenSet b(8, {1, 2, 3});
  EXPECT_EQ(a.unite(b), 2u);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.unite(b), 0u);
}

TEST(TokenSet, UniteUniverseMismatchThrows) {
  TokenSet a(8);
  TokenSet b(9);
  EXPECT_THROW(a.unite(b), PreconditionError);
}

TEST(TokenSet, SubtractAndIntersect) {
  TokenSet a(8, {0, 1, 2, 3});
  TokenSet b(8, {2, 3, 4});
  TokenSet c = a;
  c.subtract(b);
  EXPECT_EQ(c, TokenSet(8, {0, 1}));
  TokenSet d = a;
  d.intersect(b);
  EXPECT_EQ(d, TokenSet(8, {2, 3}));
}

TEST(TokenSet, SubsetOf) {
  TokenSet a(8, {1, 2});
  TokenSet b(8, {0, 1, 2, 5});
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(a.subset_of(a));
  EXPECT_TRUE(TokenSet(8).subset_of(a));
}

TEST(TokenSet, MinDiffImplementsHeadRule) {
  // Algorithm 1 head rule: t <- min(TA \ TS).
  TokenSet ta(8, {1, 4, 6});
  TokenSet ts(8, {1});
  EXPECT_EQ(ta.min_diff(ts), std::optional<TokenId>(4));
  ts.insert(4);
  EXPECT_EQ(ta.min_diff(ts), std::optional<TokenId>(6));
  ts.insert(6);
  EXPECT_EQ(ta.min_diff(ts), std::nullopt);
}

TEST(TokenSet, MaxDiffImplementsMemberRule) {
  // Algorithm 1 member rule: t <- max(TA \ (TS ∪ TR)).
  TokenSet ta(8, {0, 3, 5});
  TokenSet ts(8, {5});
  TokenSet tr(8, {0});
  EXPECT_EQ(ta.max_diff(ts, tr), std::optional<TokenId>(3));
  tr.insert(3);
  EXPECT_EQ(ta.max_diff(ts, tr), std::nullopt);
}

TEST(TokenSet, MaxDiffSingleArgument) {
  TokenSet ta(8, {0, 3, 5});
  TokenSet ts(8, {5});
  EXPECT_EQ(ta.max_diff(ts), std::optional<TokenId>(3));
}

TEST(TokenSet, MinMaxElements) {
  TokenSet s(130, {5, 64, 129});
  EXPECT_EQ(s.min_element(), std::optional<TokenId>(5));
  EXPECT_EQ(s.max_element(), std::optional<TokenId>(129));
  EXPECT_EQ(TokenSet(4).min_element(), std::nullopt);
  EXPECT_EQ(TokenSet(4).max_element(), std::nullopt);
}

TEST(TokenSet, CrossWordBoundaries) {
  TokenSet s(200);
  for (TokenId t : {63u, 64u, 127u, 128u, 199u}) s.insert(t);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_TRUE(s.contains(63));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(199));
  TokenSet empty(200);
  EXPECT_EQ(s.min_diff(empty), std::optional<TokenId>(63));
  EXPECT_EQ(s.max_diff(empty), std::optional<TokenId>(199));
}

TEST(TokenSet, ToVectorSortedAscending) {
  TokenSet s(100, {99, 0, 50});
  const auto v = s.to_vector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 0u);
  EXPECT_EQ(v[1], 50u);
  EXPECT_EQ(v[2], 99u);
}

TEST(TokenSet, ToStringFormat) {
  EXPECT_EQ(TokenSet(8, {0, 3, 7}).to_string(), "{0,3,7}");
  EXPECT_EQ(TokenSet(8).to_string(), "{}");
}

TEST(TokenSet, SetUnionValueSemantics) {
  TokenSet a(8, {0});
  TokenSet b(8, {7});
  const TokenSet u = TokenSet::set_union(a, b);
  EXPECT_EQ(u, TokenSet(8, {0, 7}));
  EXPECT_EQ(a, TokenSet(8, {0}));  // inputs untouched
}

TEST(TokenSet, EqualityRequiresSameUniverse) {
  EXPECT_FALSE(TokenSet(8) == TokenSet(9));
  EXPECT_TRUE(TokenSet(8) == TokenSet(8));
}

TEST(TokenSet, ZeroUniverseIsDegenerateButSafe) {
  TokenSet s(0);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.full());  // vacuous
  EXPECT_EQ(s.min_element(), std::nullopt);
}

// Property sweep: set-algebra identities over random sets.
class TokenSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TokenSetProperty, AlgebraIdentities) {
  Rng rng(GetParam());
  const std::size_t universe = 1 + rng.below(300);
  auto random_set = [&] {
    TokenSet s(universe);
    const std::size_t fill = rng.below(universe + 1);
    for (std::size_t i = 0; i < fill; ++i) {
      s.insert(static_cast<TokenId>(rng.below(universe)));
    }
    return s;
  };
  const TokenSet a = random_set();
  const TokenSet b = random_set();

  // |A ∪ B| = |A| + |B \ A|
  TokenSet u = a;
  const std::size_t added = u.unite(b);
  TokenSet b_minus_a = b;
  b_minus_a.subtract(a);
  EXPECT_EQ(added, b_minus_a.count());
  EXPECT_EQ(u.count(), a.count() + b_minus_a.count());

  // A \ B and A ∩ B partition A.
  TokenSet diff = a;
  diff.subtract(b);
  TokenSet inter = a;
  inter.intersect(b);
  EXPECT_EQ(diff.count() + inter.count(), a.count());

  // min/max of difference agree with the vector view.
  TokenSet empty(universe);
  const auto vec = a.to_vector();
  if (vec.empty()) {
    EXPECT_EQ(a.min_diff(empty), std::nullopt);
  } else {
    EXPECT_EQ(a.min_diff(empty), std::optional<TokenId>(vec.front()));
    EXPECT_EQ(a.max_diff(empty), std::optional<TokenId>(vec.back()));
  }

  // subset relations.
  EXPECT_TRUE(inter.subset_of(a));
  EXPECT_TRUE(inter.subset_of(b));
  EXPECT_TRUE(a.subset_of(u));
}

TEST_P(TokenSetProperty, CachedCountMatchesRecomputedPopcount) {
  // count()/full()/empty() are served from a cached cardinality; this
  // drives arbitrary interleavings of every mutator and checks the cache
  // against a popcount recomputed from the raw words after each step.
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 3);
  const std::size_t universe = 1 + rng.below(130);

  const auto recount = [](const TokenSet& s) {
    std::size_t n = 0;
    for (std::uint64_t w : s.words()) {
      n += static_cast<std::size_t>(std::popcount(w));
    }
    return n;
  };
  const auto check = [&](const TokenSet& s) {
    const std::size_t truth = recount(s);
    ASSERT_EQ(s.count(), truth);
    ASSERT_EQ(s.empty(), truth == 0);
    ASSERT_EQ(s.full(), truth == s.universe());
  };

  const auto random_set = [&] {
    TokenSet s(universe);
    const std::size_t fill = rng.below(universe + 1);
    for (std::size_t i = 0; i < fill; ++i) {
      s.insert(static_cast<TokenId>(rng.below(universe)));
    }
    return s;
  };

  TokenSet s = random_set();
  check(s);
  for (int step = 0; step < 300; ++step) {
    switch (rng.below(7)) {
      case 0:
        s.insert(static_cast<TokenId>(rng.below(universe)));
        break;
      case 1:
        s.erase(static_cast<TokenId>(rng.below(universe)));
        break;
      case 2:
        s.clear();
        break;
      case 3:
        s.unite(random_set());
        break;
      case 4:
        s.subtract(random_set());
        break;
      case 5:
        s.intersect(random_set());
        break;
      case 6: {
        std::vector<std::uint64_t> words((universe + 63) / 64);
        for (auto& w : words) w = rng();
        s = TokenSet::from_words(universe, std::move(words));
        break;
      }
    }
    check(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenSetProperty,
                         ::testing::Range<std::uint64_t>(0, 24));

// Storage boundary: universes up to TokenSet::kInlineTokens keep their
// words inline, larger ones on the heap.  Every property below must hold
// identically on both sides of the boundary and across it.
static_assert(TokenSet::kInlineTokens == 256);
static_assert(sizeof(TokenSet) <= 40, "a TokenSet must stay 40 bytes");
static_assert(sizeof(Packet) <= 64, "a Packet must fit one cache line");

constexpr std::size_t kBoundaryUniverses[] = {0,   1,   63,  64,  65,
                                              255, 256, 257, 1000};

/// A random set over `universe` together with its std::vector<bool> model.
std::pair<TokenSet, std::vector<bool>> random_modeled_set(std::size_t universe,
                                                          Rng& rng) {
  TokenSet s(universe);
  std::vector<bool> model(universe, false);
  if (universe == 0) return {s, model};
  const std::size_t fill = rng.below(universe + 1);
  for (std::size_t i = 0; i < fill; ++i) {
    const auto t = static_cast<TokenId>(rng.below(universe));
    s.insert(t);
    model[t] = true;
  }
  return {s, model};
}

void expect_matches_model(const TokenSet& s, const std::vector<bool>& model) {
  ASSERT_EQ(s.universe(), model.size());
  std::size_t present = 0;
  for (std::size_t t = 0; t < model.size(); ++t) {
    ASSERT_EQ(s.contains(static_cast<TokenId>(t)), model[t]) << "token " << t;
    if (model[t]) ++present;
  }
  EXPECT_EQ(s.count(), present);
  EXPECT_EQ(s.full(), present == model.size());
  EXPECT_EQ(s.words().size(), (model.size() + 63) / 64);
}

/// The moved-from state: the empty set over universe 0, still usable.
void expect_moved_from(TokenSet& s) {
  EXPECT_EQ(s, TokenSet());
  EXPECT_EQ(s.universe(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.words().empty());
  EXPECT_THROW(s.contains(0), PreconditionError);
  EXPECT_THROW(s.insert(0), PreconditionError);
  s = TokenSet(3, {2});
  EXPECT_EQ(s, TokenSet(3, {2}));
}

class TokenSetStorage : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TokenSetStorage, SetAlgebraMatchesVectorBoolModel) {
  const std::size_t universe = GetParam();
  Rng rng(universe + 1);
  auto [s, model] = random_modeled_set(universe, rng);
  expect_matches_model(s, model);
  for (int step = 0; step < 40; ++step) {
    auto [other, other_model] = random_modeled_set(universe, rng);
    switch (step % 3) {
      case 0: {
        std::size_t fresh = 0;
        for (std::size_t t = 0; t < universe; ++t) {
          if (other_model[t] && !model[t]) ++fresh;
          model[t] = model[t] || other_model[t];
        }
        EXPECT_EQ(s.unite(other), fresh);
        break;
      }
      case 1:
        s.subtract(other);
        for (std::size_t t = 0; t < universe; ++t) {
          model[t] = model[t] && !other_model[t];
        }
        break;
      case 2:
        s.intersect(other);
        for (std::size_t t = 0; t < universe; ++t) {
          model[t] = model[t] && other_model[t];
        }
        break;
    }
    expect_matches_model(s, model);
  }
}

TEST_P(TokenSetStorage, CopyAndMoveAcrossTheBoundary) {
  const std::size_t universe = GetParam();
  Rng rng(universe + 7);
  const auto [source, model] = random_modeled_set(universe, rng);

  const TokenSet copied(source);
  expect_matches_model(copied, model);
  EXPECT_EQ(copied, source);

  for (std::size_t target_universe : kBoundaryUniverses) {
    SCOPED_TRACE(target_universe);
    // Copy-assignment over a set of every other storage kind.
    TokenSet assigned = random_modeled_set(target_universe, rng).first;
    assigned = source;
    expect_matches_model(assigned, model);
    expect_matches_model(source, model);  // the source is untouched

    // Move-assignment over a set of every other storage kind.
    TokenSet donor = source;
    TokenSet moved_to = random_modeled_set(target_universe, rng).first;
    moved_to = std::move(donor);
    expect_matches_model(moved_to, model);
    expect_moved_from(donor);  // NOLINT(bugprone-use-after-move)
  }

  TokenSet donor = source;
  TokenSet constructed(std::move(donor));
  expect_matches_model(constructed, model);
  expect_moved_from(donor);  // NOLINT(bugprone-use-after-move)
}

TEST_P(TokenSetStorage, SelfAssignmentKeepsTheSet) {
  const std::size_t universe = GetParam();
  Rng rng(universe + 13);
  auto [s, model] = random_modeled_set(universe, rng);
  TokenSet& alias = s;
  s = alias;
  expect_matches_model(s, model);
  s = std::move(alias);
  expect_matches_model(s, model);
}

TEST_P(TokenSetStorage, WordsRoundTripThroughFromWords) {
  const std::size_t universe = GetParam();
  Rng rng(universe + 21);
  const auto [s, model] = random_modeled_set(universe, rng);
  const auto words = s.words();
  const TokenSet back =
      TokenSet::from_words(universe, {words.begin(), words.end()});
  EXPECT_EQ(back, s);
  expect_matches_model(back, model);
}

INSTANTIATE_TEST_SUITE_P(Universes, TokenSetStorage,
                         ::testing::ValuesIn(kBoundaryUniverses));

}  // namespace
}  // namespace hinet
