// TokenSet: a fixed-universe dynamic bitset specialised for the k-token
// dissemination problem.
//
// The paper's algorithms manipulate three per-node sets (TA, TS, TR) over a
// universe of k comparable token ids.  All hot-path operations the
// pseudocode needs — membership, union, set difference, and min/max of a
// difference — are O(k/64) word operations here.  The cardinality is
// cached and maintained by every mutator, so count()/empty()/full() are
// O(1) — the engine's incremental completion tracking polls full() once
// per node per round.
//
// Storage: a universe of at most kInlineTokens (256) ids keeps its words
// inside the object, so copying such a set — as every full-set broadcast
// does once per packet per round — is a fixed 40-byte copy with no heap
// traffic.  Larger universes keep their words in one heap buffer.  The
// choice is a function of the universe alone, and words() / from_words()
// and the snapshot bytes are the same for both.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace hinet {

/// Identifier of a token.  Tokens are drawn from the universe [0, k).
using TokenId = std::uint32_t;

/// A set over the universe [0, k).  Moving from a set leaves the source
/// as the empty set over universe 0 (equal to TokenSet()) in either
/// storage: it may be assigned to, compared, queried and destroyed, and
/// every token id is outside its universe.
class TokenSet {
 public:
  /// Largest universe whose words are stored inline (no heap buffer).
  static constexpr std::size_t kInlineTokens = 256;

  /// Creates an empty set over a universe of `universe` token ids.
  explicit TokenSet(std::size_t universe = 0);

  /// Creates a set containing exactly the given tokens.
  TokenSet(std::size_t universe, std::initializer_list<TokenId> tokens);

  TokenSet(const TokenSet& other);
  TokenSet& operator=(const TokenSet& other);

  TokenSet(TokenSet&& other) noexcept
      : universe_(other.universe_), count_(other.count_) {
    if (other.is_inline()) {
      copy_inline(other);
    } else {
      heap_ = other.heap_;
    }
    other.reset_to_empty();
  }

  TokenSet& operator=(TokenSet&& other) noexcept {
    if (this != &other) {
      release();
      universe_ = other.universe_;
      count_ = other.count_;
      if (other.is_inline()) {
        copy_inline(other);
      } else {
        heap_ = other.heap_;
      }
      other.reset_to_empty();
    }
    return *this;
  }

  ~TokenSet() { release(); }

  /// The universe size k this set was created with.
  std::size_t universe() const { return universe_; }

  /// Number of tokens currently in the set.  O(1): the cardinality is
  /// cached and kept in sync by every mutating operation.
  std::size_t count() const { return count_; }

  bool empty() const { return count_ == 0; }

  /// True when the set contains every token of the universe.
  bool full() const { return count_ == universe_; }

  bool contains(TokenId t) const;

  /// Inserts a token; returns true if it was newly added.
  bool insert(TokenId t);

  /// Removes a token; returns true if it was present.
  bool erase(TokenId t);

  /// Removes all tokens (the pseudocode's "TS <- Ø").
  void clear();

  /// In-place union: *this <- *this ∪ other.  Returns the number of tokens
  /// newly added, which the metrics layer uses to detect progress.
  std::size_t unite(const TokenSet& other);

  /// In-place difference: *this <- *this \ other.
  void subtract(const TokenSet& other);

  /// In-place intersection.
  void intersect(const TokenSet& other);

  /// True when every token of *this is in `other`.
  bool subset_of(const TokenSet& other) const;

  /// Smallest token in *this \ other, or nullopt when the difference is
  /// empty.  Implements Algorithm 1's head rule "t <- min(TA \ TS)".
  std::optional<TokenId> min_diff(const TokenSet& other) const;

  /// Largest token in *this \ other.  Implements the member rule
  /// "t <- max(TA \ (TS ∪ TR))" (the union is passed pre-computed or via
  /// the two-argument overload below).
  std::optional<TokenId> max_diff(const TokenSet& other) const;

  /// Largest token in *this \ (a ∪ b) without materialising the union.
  std::optional<TokenId> max_diff(const TokenSet& a, const TokenSet& b) const;

  /// Smallest token present, or nullopt if empty.
  std::optional<TokenId> min_element() const;

  /// Largest token present, or nullopt if empty.
  std::optional<TokenId> max_element() const;

  /// All tokens in increasing order (for reporting / tests; not hot path).
  std::vector<TokenId> to_vector() const;

  /// Compact textual form, e.g. "{0,3,7}" (for logs and test failures).
  std::string to_string() const;

  friend bool operator==(const TokenSet& a, const TokenSet& b);
  friend bool operator!=(const TokenSet& a, const TokenSet& b) {
    return !(a == b);
  }

  /// Union as a value (used when the pseudocode unions TS ∪ TR).
  static TokenSet set_union(const TokenSet& a, const TokenSet& b);

  /// Raw 64-bit words of the membership bitmap (low bit of word 0 is
  /// token 0).  Network coding reinterprets a TokenSet as a GF(2)
  /// coefficient vector through this view.
  std::span<const std::uint64_t> words() const {
    return {data(), word_count()};
  }

  /// Builds a set directly from a word vector; bits beyond the universe
  /// are masked off.  `words.size()` must match the universe's word count.
  static TokenSet from_words(std::size_t universe,
                             std::vector<std::uint64_t> words);

 private:
  static constexpr std::size_t kBits = 64;
  static constexpr std::size_t kInlineWords = kInlineTokens / kBits;

  bool is_inline() const { return universe_ <= kInlineTokens; }
  std::size_t word_count() const { return (universe_ + kBits - 1) / kBits; }
  std::uint64_t* data() { return is_inline() ? inline_ : heap_; }
  const std::uint64_t* data() const { return is_inline() ? inline_ : heap_; }
  void check_token(TokenId t) const;

  /// Copies all kInlineWords words, whatever the universe: a fixed-size
  /// copy is cheaper than a loop bounded by word_count().
  void copy_inline(const TokenSet& other) {
    for (std::size_t i = 0; i < kInlineWords; ++i) {
      inline_[i] = other.inline_[i];
    }
  }

  /// Frees the heap buffer, if any; the storage is then unspecified until
  /// the caller re-establishes it.
  void release() {
    if (!is_inline()) delete[] heap_;
  }

  /// Makes *this the empty set over universe 0 (the moved-from state).
  /// The heap buffer, if any, must already be released or handed on.
  void reset_to_empty() {
    universe_ = 0;
    count_ = 0;
    for (std::size_t i = 0; i < kInlineWords; ++i) inline_[i] = 0;
  }

  std::uint32_t universe_ = 0;
  std::uint32_t count_ = 0;  ///< cached popcount of the words
  union {
    std::uint64_t inline_[kInlineWords] = {};  ///< universe <= kInlineTokens
    std::uint64_t* heap_;                      ///< universe > kInlineTokens
  };
};

}  // namespace hinet
