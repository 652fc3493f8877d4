//===-- support/DenseBitset.h - Fixed-universe bitset -----------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dynamic bitset over a fixed universe `[0, Size)`, used for label sets
/// in the cubic baseline analysis.  Supports the operations the worklist
/// solver needs: insert with change detection, union with change detection,
/// iteration over set bits, and popcount.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_DENSEBITSET_H
#define STCFA_SUPPORT_DENSEBITSET_H

#include "support/SimdOps.h"

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace stcfa {

/// Bitset over a fixed universe of dense indices.
class DenseBitset {
public:
  DenseBitset() = default;
  explicit DenseBitset(uint32_t Universe)
      : Words((Universe + 63) / 64, 0), Universe(Universe) {}

  /// Number of representable elements.
  uint32_t universe() const { return Universe; }

  /// Inserts \p I; returns true iff it was not already present.
  bool insert(uint32_t I) {
    assert(I < Universe && "bit out of range");
    uint64_t Mask = uint64_t(1) << (I % 64);
    uint64_t &W = Words[I / 64];
    if (W & Mask)
      return false;
    W |= Mask;
    ++Count;
    return true;
  }

  /// True iff \p I is present.
  bool contains(uint32_t I) const {
    assert(I < Universe && "bit out of range");
    return (Words[I / 64] >> (I % 64)) & 1;
  }

  /// Bulk-unions \p N raw 64-bit words into this set.  Source bits at or
  /// beyond the universe are masked off, so OR-ing from a buffer wider
  /// than the universe can never plant ghost bits in the tail word.  Runs
  /// on the dispatched SIMD path (see support/SimdOps.h).
  void orWords(const uint64_t *Src, size_t N) {
    simd::orWords(Words.data(), Src, N < Words.size() ? N : Words.size());
    if (uint32_t Rem = Universe % 64; Rem != 0 && !Words.empty())
      Words.back() &= (uint64_t(1) << Rem) - 1;
    Count = popcount();
  }

  /// Population count recomputed from the words (always equal to
  /// `count()`, which is maintained incrementally).
  uint32_t popcount() const {
    return static_cast<uint32_t>(
        simd::popcountWords(Words.data(), Words.size()));
  }

  /// Unions \p Other into this set; returns the number of new elements.
  uint32_t unionWith(const DenseBitset &Other) {
    assert(Universe == Other.Universe && "universe mismatch");
    uint32_t Added = 0;
    for (size_t W = 0, E = Words.size(); W != E; ++W) {
      uint64_t New = Other.Words[W] & ~Words[W];
      if (!New)
        continue;
      Added += static_cast<uint32_t>(std::popcount(New));
      Words[W] |= New;
    }
    Count += Added;
    return Added;
  }

  /// Number of elements present.
  uint32_t count() const { return Count; }

  bool empty() const { return Count == 0; }

  /// Invokes \p Fn for each set bit in increasing order.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t W = 0, E = Words.size(); W != E; ++W) {
      uint64_t Bits = Words[W];
      while (Bits) {
        uint32_t Bit = static_cast<uint32_t>(std::countr_zero(Bits));
        Fn(static_cast<uint32_t>(W * 64 + Bit));
        Bits &= Bits - 1;
      }
    }
  }

  /// The backing `⌈universe/64⌉` words; bits past the universe are zero.
  std::span<const uint64_t> words() const { return Words; }

  friend bool operator==(const DenseBitset &A, const DenseBitset &B) {
    return A.Universe == B.Universe && A.Words == B.Words;
  }

  /// True iff this set contains every element of \p Other.
  bool containsAll(const DenseBitset &Other) const {
    assert(Universe == Other.Universe && "universe mismatch");
    for (size_t W = 0, E = Words.size(); W != E; ++W)
      if (Other.Words[W] & ~Words[W])
        return false;
    return true;
  }

private:
  std::vector<uint64_t> Words;
  uint32_t Universe = 0;
  uint32_t Count = 0;
};

} // namespace stcfa

#endif // STCFA_SUPPORT_DENSEBITSET_H
