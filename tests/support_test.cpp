//===-- tests/support_test.cpp - Support library unit tests ---------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Deadline.h"
#include "support/DenseBitset.h"
#include "support/Diagnostics.h"
#include "support/Hashing.h"
#include "support/Ids.h"
#include "support/Status.h"
#include "support/StringInterner.h"
#include "support/TablePrinter.h"

#include "gtest/gtest.h"

using namespace stcfa;

namespace {

//===----------------------------------------------------------------------===//
// Ids
//===----------------------------------------------------------------------===//

TEST(Ids, DefaultIsInvalid) {
  ExprId E;
  EXPECT_FALSE(E.isValid());
  EXPECT_EQ(E, ExprId::invalid());
}

TEST(Ids, IndexRoundTrip) {
  ExprId E(7);
  EXPECT_TRUE(E.isValid());
  EXPECT_EQ(E.index(), 7u);
}

TEST(Ids, DistinctTagsAreDistinctTypes) {
  // Compile-time property; just exercise comparison within one space.
  EXPECT_NE(VarId(1), VarId(2));
  EXPECT_LT(VarId(1), VarId(2));
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(StringInterner, InternIsIdempotent) {
  StringInterner SI;
  Symbol A = SI.intern("hello");
  Symbol B = SI.intern("hello");
  Symbol C = SI.intern("world");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(SI.text(A), "hello");
  EXPECT_EQ(SI.text(C), "world");
  EXPECT_EQ(SI.size(), 2u);
}

TEST(StringInterner, SurvivesRehashing) {
  StringInterner SI;
  std::vector<Symbol> Syms;
  for (int I = 0; I != 1000; ++I)
    Syms.push_back(SI.intern("sym" + std::to_string(I)));
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(SI.text(Syms[I]), "sym" + std::to_string(I));
}

//===----------------------------------------------------------------------===//
// DenseBitset
//===----------------------------------------------------------------------===//

TEST(DenseBitset, InsertContainsCount) {
  DenseBitset S(130);
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(0));
  EXPECT_TRUE(S.insert(64));
  EXPECT_TRUE(S.insert(129));
  EXPECT_FALSE(S.insert(64));
  EXPECT_EQ(S.count(), 3u);
  EXPECT_TRUE(S.contains(129));
  EXPECT_FALSE(S.contains(1));
}

TEST(DenseBitset, UnionWithReportsAdditions) {
  DenseBitset A(100), B(100);
  A.insert(1);
  B.insert(1);
  B.insert(2);
  B.insert(99);
  EXPECT_EQ(A.unionWith(B), 2u);
  EXPECT_EQ(A.unionWith(B), 0u);
  EXPECT_EQ(A.count(), 3u);
}

TEST(DenseBitset, ForEachIsOrdered) {
  DenseBitset S(256);
  for (uint32_t I : {7u, 250u, 0u, 63u, 64u})
    S.insert(I);
  std::vector<uint32_t> Seen;
  S.forEach([&](uint32_t I) { Seen.push_back(I); });
  EXPECT_EQ(Seen, (std::vector<uint32_t>{0, 7, 63, 64, 250}));
}

TEST(DenseBitset, OrWordsBulkUnion) {
  DenseBitset A(130), B(130);
  A.insert(1);
  A.insert(64);
  B.insert(64);
  B.insert(65);
  B.insert(129);
  A.orWords(B.words().data(), B.words().size());
  EXPECT_EQ(A.count(), 4u);
  EXPECT_TRUE(A.contains(1));
  EXPECT_TRUE(A.contains(64));
  EXPECT_TRUE(A.contains(65));
  EXPECT_TRUE(A.contains(129));
  EXPECT_EQ(A.count(), A.popcount());
}

TEST(DenseBitset, OrWordsMasksTailWord) {
  // Universe 130 occupies 3 words with only 2 valid bits in the last;
  // a source buffer with garbage beyond bit 129 (e.g. a row wider than
  // the universe) must not plant ghost bits.
  DenseBitset A(130);
  const uint64_t Src[3] = {1, 0, ~uint64_t(0)};
  A.orWords(Src, 3);
  EXPECT_EQ(A.count(), 3u); // bits 0, 128, 129 only
  EXPECT_TRUE(A.contains(0));
  EXPECT_TRUE(A.contains(128));
  EXPECT_TRUE(A.contains(129));
  EXPECT_EQ(A.count(), A.popcount());

  // Equality against a conventionally-built set proves no ghost bits
  // survived in the tail word's representation.
  DenseBitset B(130);
  B.insert(0);
  B.insert(128);
  B.insert(129);
  EXPECT_TRUE(A == B);
}

TEST(DenseBitset, OrWordsShortSourceAndPopcount) {
  // A source shorter than the destination ORs only its prefix.
  DenseBitset A(200);
  const uint64_t Src[1] = {uint64_t(1) << 63};
  A.orWords(Src, 1);
  EXPECT_EQ(A.count(), 1u);
  EXPECT_TRUE(A.contains(63));

  // An exact-multiple universe has no tail to mask: the last word keeps
  // every bit.
  DenseBitset C(128);
  const uint64_t Full[2] = {~uint64_t(0), ~uint64_t(0)};
  C.orWords(Full, 2);
  EXPECT_EQ(C.count(), 128u);
  EXPECT_EQ(C.popcount(), 128u);
}

TEST(DenseBitset, ContainsAllAndEquality) {
  DenseBitset A(64), B(64);
  A.insert(3);
  A.insert(9);
  B.insert(3);
  EXPECT_TRUE(A.containsAll(B));
  EXPECT_FALSE(B.containsAll(A));
  B.insert(9);
  EXPECT_TRUE(A == B);
}

//===----------------------------------------------------------------------===//
// U64Set / U64Map
//===----------------------------------------------------------------------===//

TEST(U64Set, InsertAndGrow) {
  U64Set S;
  for (uint64_t I = 1; I <= 5000; ++I)
    EXPECT_TRUE(S.insert(I * 2654435761u));
  for (uint64_t I = 1; I <= 5000; ++I)
    EXPECT_FALSE(S.insert(I * 2654435761u));
  EXPECT_EQ(S.size(), 5000u);
  EXPECT_TRUE(S.contains(2654435761u));
  EXPECT_FALSE(S.contains(12345));
}

TEST(U64Map, LookupOrInsert) {
  U64Map M;
  for (uint64_t I = 1; I <= 3000; ++I) {
    uint32_t &Slot = M.lookupOrInsert(I, ~0u);
    EXPECT_EQ(Slot, ~0u);
    Slot = static_cast<uint32_t>(I * 3);
  }
  for (uint64_t I = 1; I <= 3000; ++I) {
    EXPECT_EQ(M.lookup(I, 0), I * 3);
    EXPECT_EQ(M.lookupOrInsert(I, ~0u), I * 3);
  }
  EXPECT_EQ(M.lookup(999999, 42u), 42u);
  EXPECT_EQ(M.size(), 3000u);
}

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinter, AlignsColumns) {
  TablePrinter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "23456"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("long-name"), std::string::npos);
  // Every line has the same length (header, separator, rows).
  size_t FirstLine = Out.find('\n');
  std::string Header = Out.substr(0, FirstLine);
  size_t Pos = FirstLine + 1;
  while (Pos < Out.size()) {
    size_t Next = Out.find('\n', Pos);
    EXPECT_EQ(Next - Pos, Header.size()) << Out;
    Pos = Next + 1;
  }
}

TEST(TablePrinter, NumberFormatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(uint64_t(42)), "42");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, RendersLineAndColumn) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.error({3, 14}, "something went wrong");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.render(), "3:14: something went wrong\n");
}

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

TEST(Hashing, AvalancheSmoke) {
  // Nearby keys hash far apart (weak but useful sanity check).
  EXPECT_NE(hashU64(1), hashU64(2));
  EXPECT_NE(hashU64(1) >> 32, hashU64(2) >> 32);
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

//===----------------------------------------------------------------------===//
// Status
//===----------------------------------------------------------------------===//

TEST(Status, DefaultAndFactoriesCarryTheirCode) {
  EXPECT_TRUE(Status().isOk());
  EXPECT_TRUE(Status::ok().isOk());
  EXPECT_EQ(Status::cancelled("stop"), StatusCode::Cancelled);
  EXPECT_EQ(Status::deadlineExceeded("late"), StatusCode::DeadlineExceeded);
  EXPECT_EQ(Status::resourceExhausted("budget"),
            StatusCode::ResourceExhausted);
  EXPECT_EQ(Status::outOfMemory("alloc"), StatusCode::OutOfMemory);
  EXPECT_EQ(Status::failedPrecondition("order"),
            StatusCode::FailedPrecondition);
  EXPECT_EQ(Status::invalidArgument("flag"), StatusCode::InvalidArgument);
}

TEST(Status, ToStringNamesTheCodeAndKeepsTheMessage) {
  Status S = Status::deadlineExceeded("close ran out of time");
  EXPECT_FALSE(S.isOk());
  EXPECT_FALSE(static_cast<bool>(S));
  EXPECT_EQ(S.message(), "close ran out of time");
  EXPECT_NE(S.toString().find("deadline-exceeded"), std::string::npos);
  EXPECT_NE(S.toString().find("close ran out of time"), std::string::npos);
}

TEST(Status, CodeNamesAreStableStrings) {
  EXPECT_STREQ(statusCodeName(StatusCode::Ok), "ok");
  EXPECT_STREQ(statusCodeName(StatusCode::ResourceExhausted),
               "resource-exhausted");
  EXPECT_STREQ(statusCodeName(StatusCode::FailedPrecondition),
               "failed-precondition");
}

//===----------------------------------------------------------------------===//
// Deadline and CancellationToken
//===----------------------------------------------------------------------===//

TEST(Deadline, InfiniteNeverExpires) {
  Deadline D = Deadline::infinite();
  EXPECT_TRUE(D.isInfinite());
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remainingMillis(), 1000000);
}

TEST(Deadline, ZeroBudgetExpiresImmediately) {
  Deadline D = Deadline::afterMillis(0);
  EXPECT_FALSE(D.isInfinite());
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.remainingMillis(), 0);
}

TEST(Deadline, GenerousBudgetIsNotYetExpired) {
  Deadline D = Deadline::afterMillis(60000);
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remainingMillis(), 0);
}

TEST(CancellationToken, DefaultIsUnarmedAndNeverCancelled) {
  CancellationToken T;
  EXPECT_FALSE(T.armed());
  EXPECT_FALSE(T.cancelled());
  T.requestCancel(); // no-op on an unarmed token
  EXPECT_FALSE(T.cancelled());
}

TEST(CancellationToken, CancelPropagatesAcrossCopies) {
  CancellationToken T = CancellationToken::create();
  EXPECT_TRUE(T.armed());
  CancellationToken Copy = T;
  EXPECT_FALSE(Copy.cancelled());
  T.requestCancel();
  EXPECT_TRUE(T.cancelled());
  EXPECT_TRUE(Copy.cancelled());
}

} // namespace
