//===-- support/Hashing.h - Hash utilities and u64 hash set -----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash combining plus a compact open-addressing set of non-zero 64-bit
/// keys.  The subtransitive graph stores each edge out of a hub node as a
/// packed `(source << 32) | target` key, so deduplicating an edge between
/// two high-degree nodes is one probe instead of a list scan.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_HASHING_H
#define STCFA_SUPPORT_HASHING_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stcfa {

/// Mixes \p X with an avalanching finalizer (splitmix64 style).
inline uint64_t hashU64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Combines two hash values.
inline uint64_t hashCombine(uint64_t A, uint64_t B) {
  return hashU64(A ^ (B + 0x9e3779b97f4a7c15ULL + (A << 6) + (A >> 2)));
}

/// Deterministic hash over a byte range; used for snapshot section
/// checksums and content-addressed cache keys, where a process- and
/// platform-stable hash matters and cryptographic strength does not.
///
/// The bulk loop runs four independent xor-multiply lanes over 32-byte
/// strides, so the multiplies pipeline instead of serializing — snapshot
/// loads checksum every mapped byte, which puts this on the warm-start
/// critical path (docs/SNAPSHOT.md); the byte-serial FNV-1a it replaced
/// capped validation near 1 GB/s.  The tail and sub-32-byte inputs use
/// plain FNV-1a.  Little-endian word loads are part of the format
/// contract, like the header's endianness tag.
inline uint64_t hashBytes(const void *Data, size_t Size,
                          uint64_t Seed = 0xcbf29ce484222325ULL) {
  const auto *P = static_cast<const unsigned char *>(Data);
  constexpr uint64_t M = 0x9e3779b97f4a7c15ULL;
  uint64_t H0 = Seed, H1 = Seed ^ 0xff51afd7ed558ccdULL,
           H2 = Seed ^ 0xc4ceb9fe1a85ec53ULL,
           H3 = Seed ^ 0x2545f4914f6cdd1dULL;
  size_t I = 0;
  for (; I + 32 <= Size; I += 32) {
    uint64_t W0, W1, W2, W3;
    __builtin_memcpy(&W0, P + I, 8);
    __builtin_memcpy(&W1, P + I + 8, 8);
    __builtin_memcpy(&W2, P + I + 16, 8);
    __builtin_memcpy(&W3, P + I + 24, 8);
    H0 = (H0 ^ W0) * M;
    H1 = (H1 ^ W1) * M;
    H2 = (H2 ^ W2) * M;
    H3 = (H3 ^ W3) * M;
  }
  uint64_t H = hashCombine(hashCombine(H0, H1), hashCombine(H2, H3));
  for (; I != Size; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return hashU64(H);
}

/// Open-addressing hash set of *non-zero* 64-bit keys.
///
/// Key 0 is reserved as the empty-slot marker and ~0 as the deletion
/// tombstone; callers must bias their keys so that neither occurs (edge
/// keys add 1 to each endpoint and stay far below 2^63).  Erasure exists
/// for the delta layer's edge retraction; probe chains skip tombstones,
/// rebuilds drop them, and the load-factor check counts them so a
/// churn-heavy table still resizes.
class U64Set {
public:
  U64Set() : Slots(InitialCapacity, 0) {}

  /// Inserts \p Key; returns true iff it was not already present.
  bool insert(uint64_t Key) {
    assert(Key != 0 && Key != Tombstone && "key 0 / ~0 are reserved");
    if ((Used + 1) * 4 >= Slots.size() * 3)
      grow();
    size_t Mask = Slots.size() - 1;
    size_t I = static_cast<size_t>(hashU64(Key)) & Mask;
    size_t Reuse = SIZE_MAX;
    while (Slots[I] != 0) {
      if (Slots[I] == Key)
        return false;
      if (Slots[I] == Tombstone && Reuse == SIZE_MAX)
        Reuse = I;
      I = (I + 1) & Mask;
    }
    if (Reuse != SIZE_MAX) {
      Slots[Reuse] = Key; // reclaim the tombstone; Used already counts it
    } else {
      Slots[I] = Key;
      ++Used;
    }
    ++Count;
    return true;
  }

  /// True iff \p Key is present.
  bool contains(uint64_t Key) const {
    assert(Key != 0 && Key != Tombstone && "key 0 / ~0 are reserved");
    size_t Mask = Slots.size() - 1;
    size_t I = static_cast<size_t>(hashU64(Key)) & Mask;
    while (Slots[I] != 0) {
      if (Slots[I] == Key)
        return true;
      I = (I + 1) & Mask;
    }
    return false;
  }

  /// Removes \p Key; returns true iff it was present.  The slot becomes a
  /// tombstone so longer probe chains stay intact.
  bool erase(uint64_t Key) {
    assert(Key != 0 && Key != Tombstone && "key 0 / ~0 are reserved");
    size_t Mask = Slots.size() - 1;
    size_t I = static_cast<size_t>(hashU64(Key)) & Mask;
    while (Slots[I] != 0) {
      if (Slots[I] == Key) {
        Slots[I] = Tombstone;
        --Count;
        return true;
      }
      I = (I + 1) & Mask;
    }
    return false;
  }

  /// Number of stored keys.
  size_t size() const { return Count; }

private:
  static constexpr size_t InitialCapacity = 64;
  static constexpr uint64_t Tombstone = ~0ULL;

  void grow() {
    std::vector<uint64_t> Old = std::move(Slots);
    Slots.assign(Old.size() * 2, 0);
    size_t Mask = Slots.size() - 1;
    for (uint64_t Key : Old) {
      if (Key == 0 || Key == Tombstone)
        continue;
      size_t I = static_cast<size_t>(hashU64(Key)) & Mask;
      while (Slots[I] != 0)
        I = (I + 1) & Mask;
      Slots[I] = Key;
    }
    Used = Count;
  }

  std::vector<uint64_t> Slots;
  size_t Count = 0; // live keys
  size_t Used = 0;  // live keys + tombstones (load-factor accounting)
};

/// Open-addressing hash map from *non-zero* 64-bit keys to 32-bit values.
/// Same conventions as `U64Set`; used for the graph's shared nodes
/// (summaries, label carriers) and the delta layer's edge refcounts.
class U64Map {
public:
  U64Map() : Keys(InitialCapacity, 0), Values(InitialCapacity, 0) {}

  /// Returns the slot for \p Key, inserting \p Fallback if absent.
  /// The reference stays valid until the next insertion.
  uint32_t &lookupOrInsert(uint64_t Key, uint32_t Fallback) {
    assert(Key != 0 && "key 0 is reserved");
    if ((Count + 1) * 4 >= Keys.size() * 3)
      grow();
    size_t Mask = Keys.size() - 1;
    size_t I = static_cast<size_t>(hashU64(Key)) & Mask;
    while (Keys[I] != 0) {
      if (Keys[I] == Key)
        return Values[I];
      I = (I + 1) & Mask;
    }
    Keys[I] = Key;
    Values[I] = Fallback;
    ++Count;
    return Values[I];
  }

  /// Returns the value for \p Key or \p Default when absent.
  uint32_t lookup(uint64_t Key, uint32_t Default) const {
    assert(Key != 0 && "key 0 is reserved");
    size_t Mask = Keys.size() - 1;
    size_t I = static_cast<size_t>(hashU64(Key)) & Mask;
    while (Keys[I] != 0) {
      if (Keys[I] == Key)
        return Values[I];
      I = (I + 1) & Mask;
    }
    return Default;
  }

  size_t size() const { return Count; }

private:
  static constexpr size_t InitialCapacity = 64;

  void grow() {
    std::vector<uint64_t> OldKeys = std::move(Keys);
    std::vector<uint32_t> OldValues = std::move(Values);
    Keys.assign(OldKeys.size() * 2, 0);
    Values.assign(OldValues.size() * 2, 0);
    size_t Mask = Keys.size() - 1;
    for (size_t S = 0; S != OldKeys.size(); ++S) {
      if (OldKeys[S] == 0)
        continue;
      size_t I = static_cast<size_t>(hashU64(OldKeys[S])) & Mask;
      while (Keys[I] != 0)
        I = (I + 1) & Mask;
      Keys[I] = OldKeys[S];
      Values[I] = OldValues[S];
    }
  }

  std::vector<uint64_t> Keys;
  std::vector<uint32_t> Values;
  size_t Count = 0;
};

} // namespace stcfa

#endif // STCFA_SUPPORT_HASHING_H
