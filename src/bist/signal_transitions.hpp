// Patterns of signal transitions (dissertation §5.1, ref [90]).
//
// A state-transition's *pattern of signal-transitions* (PST) is the set of
// lines that switch during it, each tagged with its direction. Bounding
// on-chip generation by "the cycle's PST must be a subset of some PST seen
// during functional operation" is strictly stronger than the switching-
// activity bound: it limits the count AND restricts the switching to signal
// transitions that actually occur functionally, so slow paths that are never
// exercised functionally cannot be sensitized either (the over-testing mode
// SWA alone cannot exclude).
//
// Representation: a bitset of 2 bits per line (rising / falling), plus a
// 64-bit folded signature for O(1) superset prefiltering.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace fbt {

/// The PST of one clock cycle.
class TransitionPattern {
 public:
  explicit TransitionPattern(std::size_t num_lines)
      : words_((2 * num_lines + 63) / 64, 0) {}

  /// Marks line `line` as switching in direction `rising`.
  void mark(NodeId line, bool rising) {
    const std::size_t bit = 2 * line + (rising ? 0 : 1);
    words_[bit / 64] |= 1ULL << (bit % 64);
    signature_ |= 1ULL << (bit % 64);
    ++count_;
  }

  /// True when this pattern is a subset of `other`.
  bool subset_of(const TransitionPattern& other) const {
    if (count_ > other.count_) return false;
    if ((signature_ & ~other.signature_) != 0) return false;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if ((words_[w] & ~other.words_[w]) != 0) return false;
    }
    return true;
  }

  std::size_t switching_lines() const { return count_; }
  std::uint64_t signature() const { return signature_; }
  bool operator==(const TransitionPattern& other) const {
    return words_ == other.words_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t signature_ = 0;  ///< fold of set bit positions mod 64
  std::size_t count_ = 0;
};

/// Builds the PST between two settled line-value vectors.
TransitionPattern make_transition_pattern(
    const std::vector<std::uint8_t>& prev_values,
    const std::vector<std::uint8_t>& values);

/// Collection of the PSTs observed during functional operation. Deduplicated
/// and capped; the subset query is prefiltered by popcount and signature.
class TransitionPatternStore {
 public:
  explicit TransitionPatternStore(std::size_t max_patterns = 4096)
      : cap_(max_patterns) {}

  /// Records a functional PST. Duplicates and patterns subsumed by an
  /// existing superset are dropped; returns whether it was stored.
  bool record(TransitionPattern pattern);

  /// True when `pattern` is a subset of some recorded pattern (the §5.1
  /// admissibility condition for an on-chip state-transition).
  bool admits(const TransitionPattern& pattern) const;

  std::size_t size() const { return patterns_.size(); }
  bool saturated() const { return patterns_.size() >= cap_; }
  /// The stored patterns, in the order they were recorded.
  const std::vector<TransitionPattern>& patterns() const { return patterns_; }

 private:
  std::size_t cap_;
  std::vector<TransitionPattern> patterns_;
};

}  // namespace fbt
