//===-- tests/simd_ops_test.cpp - SIMD/scalar seam differentials ----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The row-OR/popcount dispatch seam (support/SimdOps.h): every path the
// machine supports must be bit-exact with the scalar reference loop, on
// every width — especially the awkward tails that are not multiples of
// the 256-/512-bit vector width.  These tests drive the per-path entry
// points directly, so they exercise the vector code even when the whole
// suite runs under STCFA_FORCE_SCALAR=1 (which only pins the *dispatched*
// path).
//
//===----------------------------------------------------------------------===//

#include "support/DenseBitset.h"
#include "support/SimdOps.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace stcfa;

namespace {

/// Deterministic xorshift word stream.
class WordRng {
public:
  explicit WordRng(uint64_t Seed) : State(Seed ? Seed : 0x9e3779b97f4a7c15ULL) {}
  uint64_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  }

private:
  uint64_t State;
};

std::vector<uint64_t> randomWords(size_t N, uint64_t Seed) {
  WordRng R(Seed);
  std::vector<uint64_t> W(N);
  for (uint64_t &X : W)
    X = R.next();
  return W;
}

std::vector<simd::Path> supportedPaths() {
  std::vector<simd::Path> Paths = {simd::Path::Scalar};
  if (simd::pathSupported(simd::Path::Avx2))
    Paths.push_back(simd::Path::Avx2);
  if (simd::pathSupported(simd::Path::Avx512))
    Paths.push_back(simd::Path::Avx512);
  return Paths;
}

/// The widths that historically break vector kernels: 0, sub-vector,
/// exact multiples of the 4-word (AVX2) and 8-word (AVX-512) strides,
/// and every off-by-one around them.
const size_t AwkwardWidths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,  11, 12,
                                13, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63,
                                64, 65, 100, 127, 128, 129, 255, 256, 257};

TEST(SimdOps, ActivePathIsSupported) {
  EXPECT_TRUE(simd::pathSupported(simd::activePath()));
  EXPECT_STREQ(simd::pathName(simd::activePath()), simd::activePathName());
}

TEST(SimdOps, PathNames) {
  EXPECT_STREQ(simd::pathName(simd::Path::Scalar), "scalar");
  EXPECT_STREQ(simd::pathName(simd::Path::Avx2), "avx2");
  EXPECT_STREQ(simd::pathName(simd::Path::Avx512), "avx512");
}

TEST(SimdOps, OrWordsMatchesScalarOnAllWidthsAndPaths) {
  for (simd::Path P : supportedPaths()) {
    for (size_t W : AwkwardWidths) {
      std::vector<uint64_t> Src = randomWords(W, 1000 + W);
      std::vector<uint64_t> Ref = randomWords(W, 2000 + W);
      std::vector<uint64_t> Got = Ref; // same starting contents
      simd::orWordsScalar(W ? Ref.data() : nullptr, W ? Src.data() : nullptr,
                          W);
      simd::orWordsPath(P, W ? Got.data() : nullptr,
                        W ? Src.data() : nullptr, W);
      ASSERT_EQ(Ref, Got) << "path " << simd::pathName(P) << " width " << W;
    }
  }
}

TEST(SimdOps, PopcountMatchesScalarOnAllWidthsAndPaths) {
  for (simd::Path P : supportedPaths()) {
    for (size_t W : AwkwardWidths) {
      std::vector<uint64_t> Src = randomWords(W, 3000 + W);
      uint64_t Ref =
          simd::popcountWordsScalar(W ? Src.data() : nullptr, W);
      uint64_t Got =
          simd::popcountWordsPath(P, W ? Src.data() : nullptr, W);
      ASSERT_EQ(Ref, Got) << "path " << simd::pathName(P) << " width " << W;
    }
  }
}

TEST(SimdOps, PopcountExtremes) {
  for (simd::Path P : supportedPaths()) {
    std::vector<uint64_t> Zeros(37, 0);
    std::vector<uint64_t> Ones(37, ~uint64_t(0));
    EXPECT_EQ(simd::popcountWordsPath(P, Zeros.data(), Zeros.size()), 0u);
    EXPECT_EQ(simd::popcountWordsPath(P, Ones.data(), Ones.size()),
              37u * 64u);
  }
}

TEST(SimdOps, OrWordsDoesNotTouchBeyondWidth) {
  // A canary word just past the row: no path may write through it.
  for (simd::Path P : supportedPaths()) {
    for (size_t W : AwkwardWidths) {
      std::vector<uint64_t> Src = randomWords(W + 1, 4000 + W);
      std::vector<uint64_t> Dst = randomWords(W + 1, 5000 + W);
      const uint64_t SrcCanary = Src[W], DstCanary = Dst[W];
      simd::orWordsPath(P, Dst.data(), Src.data(), W);
      EXPECT_EQ(Src[W], SrcCanary) << "path " << simd::pathName(P);
      EXPECT_EQ(Dst[W], DstCanary) << "path " << simd::pathName(P);
    }
  }
}

TEST(SimdOps, DispatchedCallsMatchScalar) {
  // Whatever activePath() resolved to (native or forced scalar), the
  // public entry points must agree with the reference loop.
  for (size_t W : AwkwardWidths) {
    std::vector<uint64_t> Src = randomWords(W, 6000 + W);
    std::vector<uint64_t> Ref = randomWords(W, 7000 + W);
    std::vector<uint64_t> Got = Ref;
    simd::orWordsScalar(W ? Ref.data() : nullptr, W ? Src.data() : nullptr,
                        W);
    simd::orWords(W ? Got.data() : nullptr, W ? Src.data() : nullptr, W);
    ASSERT_EQ(Ref, Got) << "width " << W;
    ASSERT_EQ(simd::popcountWords(W ? Src.data() : nullptr, W),
              simd::popcountWordsScalar(W ? Src.data() : nullptr, W));
  }
}

TEST(SimdOps, DenseBitsetOrWordsMasksPaddedTail) {
  // DenseBitset::orWords runs on the dispatched path and must still mask
  // ghost bits when OR-ing from a buffer padded past the universe — the
  // kernel's cache-line-padded rows are exactly that.
  for (uint32_t Universe : {1u, 63u, 64u, 65u, 130u, 200u, 513u}) {
    size_t UniverseWords = (Universe + 63) / 64;
    size_t PaddedWords = (UniverseWords + 7) & ~size_t(7);
    std::vector<uint64_t> Padded(PaddedWords, ~uint64_t(0)); // all ghost bits
    DenseBitset B(Universe);
    B.insert(0);
    B.orWords(Padded.data(), Padded.size());
    EXPECT_EQ(B.count(), Universe) << "universe " << Universe;
    EXPECT_EQ(B.popcount(), Universe) << "universe " << Universe;
    uint32_t Seen = 0;
    B.forEach([&](uint32_t I) {
      EXPECT_LT(I, Universe);
      ++Seen;
    });
    EXPECT_EQ(Seen, Universe);
  }
}

TEST(SimdOps, DenseBitsetUnionAgreesWithInsertLoop) {
  // Random cross-check of the dispatched popcount against incremental
  // count maintenance.
  WordRng R(42);
  for (int Round = 0; Round != 20; ++Round) {
    uint32_t Universe = 1 + static_cast<uint32_t>(R.next() % 700);
    DenseBitset A(Universe), B(Universe);
    for (uint32_t I = 0; I != Universe; ++I) {
      if (R.next() & 1)
        A.insert(I);
      if (R.next() & 2)
        B.insert(I);
    }
    DenseBitset U = A;
    U.unionWith(B);
    DenseBitset O = A;
    O.orWords(B.words().data(), B.words().size());
    EXPECT_TRUE(U == O);
    EXPECT_EQ(O.count(), O.popcount());
  }
}

} // namespace
