//===-- tests/delta_fuzz_test.cpp - Edit-sequence differential fuzzer -----===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The edit-sequence differential fuzzer proving the delta layer's
/// exactness claim at scale: 120 seeded shape programs each take a
/// 12-step random edit script (replace / insert / delete / replace-body
/// / rename), and after *every* step the session's published view must
/// be bit-identical to a from-scratch parse -> close -> freeze of the
/// session's current source, and the view installed as a serve epoch
/// must lint and slice (backward and forward, from every expression)
/// exactly as an epoch loaded fresh from that source
/// (`tests/DeltaTestUtil.h`).  Every ~5th step
/// verifies through `labelsOfBatch` with the kernel threshold forced to
/// zero, so under `STCFA_FORCE_SCALAR=1` (the ci.sh scalar lane) the
/// kernel's forced-scalar twin is differentially tested too.
///
/// Edit scripts are generated from the session's own introspection
/// (`numDefs`/`defName`), with replacement and insertion fragments
/// referencing only definitions *earlier* than the target position —
/// the same top-to-bottom scoping a fresh parse enforces.  Deleting a
/// still-referenced definition is an expected structured rejection and
/// counts as a no-op step; any other rejection fails the test.
///
/// Failures report the (program-seed, edit-seed, step) triple plus the
/// full current source, so any divergence reproduces from the log alone.
///
//===----------------------------------------------------------------------===//

#include "delta/DeltaSession.h"
#include "testgen/ShapeGen.h"

#include "DeltaTestUtil.h"
#include "TestUtil.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace stcfa;

namespace {

/// xorshift64: tiny, seedable, and stable across platforms — failing
/// triples must reproduce bit-for-bit everywhere.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed ? Seed : 0x9e3779b97f4a7c15ull) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  /// Uniform in [0, N); N must be nonzero.
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }
};

/// True when definition \p I's current value is a lambda (`let f = fn
/// ...;`).  Shape programs also contain application- and int-valued
/// definitions (`let a1 = fs w1;`, `let r1 = a1 0;`); applying those in
/// a generated fragment would make the program ill-typed, and ill-typed
/// application cycles can push the untyped closure into exponential
/// territory — a from-scratch rebuild of such a program diverges too,
/// so the differential oracle cannot use it.  Generated chains therefore
/// apply only fn-valued names.
bool fnValued(const DeltaSession &Sess, uint32_t I) {
  const std::string &T = Sess.defText(I);
  const size_t Eq = T.find('=');
  if (Eq == std::string::npos)
    return false;
  const size_t P = T.find_first_not_of(" \t\n", Eq + 1);
  return P != std::string::npos && T.compare(P, 2, "fn") == 0;
}

/// A random application chain over the fn-valued definitions among
/// `Defs[0..Limit)`, the names legal at the edit's position: \p Var
/// alone when none qualify, else one of `P (v)`, `P1 (P2 (v))`,
/// `P1 (P2 (P3 (v)))`.
std::string randomChain(Rng &R, const DeltaSession &Sess, uint32_t Limit,
                        const std::string &Var) {
  std::vector<uint32_t> Fns;
  for (uint32_t I = 0; I != Limit; ++I)
    if (fnValued(Sess, I))
      Fns.push_back(I);
  if (Fns.empty())
    return Var;
  std::string E = Var;
  const uint32_t Depth = 1 + R.below(3);
  for (uint32_t I = 0; I != Depth; ++I)
    E = Sess.defName(Fns[R.below(static_cast<uint32_t>(Fns.size()))]) + " (" +
        E + ")";
  return E;
}

/// One random edit against the session's current shape.  \p Fresh is a
/// per-step unique identifier for inserts and renames, so scripts never
/// trip the shadowed-name rebuild path by accident (that path has its
/// own unit test) and renames never collide.
EditRequest randomEdit(Rng &R, const DeltaSession &Sess,
                       const std::string &Fresh) {
  const uint32_t N = Sess.numDefs();
  EditRequest Req;
  // Weights: replace-heavy (the headline path), structural edits and
  // renames sprinkled through, deletes rare (most are rejected as
  // still-referenced in chain-shaped programs anyway).
  const uint32_t Roll = R.below(100);
  if (Roll < 40 && N != 0) {
    Req.Kind = EditRequest::Op::Replace;
    const uint32_t I = R.below(N);
    Req.Name = Sess.defName(I);
    const std::string Init = "fn x => " + randomChain(R, Sess, I, "x");
    // Self-recursive replacements exercise the letrec fragment path.
    if (R.below(4) == 0)
      Req.Text = "letrec " + Req.Name + " = fn x => " + Req.Name + " (" +
                 randomChain(R, Sess, I, "x") + ");";
    else
      Req.Text = "let " + Req.Name + " = " + Init + ";";
  } else if (Roll < 60) {
    Req.Kind = EditRequest::Op::Insert;
    // Insert before a random definition (or append), referencing only
    // definitions earlier than that position.
    const uint32_t P = R.below(N + 1);
    if (P < N)
      Req.Before = Sess.defName(P);
    Req.Text =
        "let " + Fresh + " = fn x => " + randomChain(R, Sess, P, "x") + ";";
  } else if (Roll < 75 && N != 0) {
    Req.Kind = EditRequest::Op::ReplaceBody;
    Req.Text = randomChain(R, Sess, N, "0");
  } else if (Roll < 90 && N != 0) {
    Req.Kind = EditRequest::Op::Rename;
    Req.Name = Sess.defName(R.below(N));
    Req.NewName = Fresh;
  } else if (N > 1) {
    Req.Kind = EditRequest::Op::Delete;
    Req.Name = Sess.defName(R.below(N));
  } else {
    Req.Kind = EditRequest::Op::ReplaceBody;
    Req.Text = randomChain(R, Sess, N, "0");
  }
  return Req;
}

constexpr int EditsPerProgram = 12;

/// Runs one (program-seed, edit-seed) script: build the session from a
/// seeded shape program, apply `EditsPerProgram` random edits, and
/// differentially verify the published view after every step.
void runScript(CondShape Shape, uint64_t ProgSeed) {
  ShapeSpec Spec;
  Spec.Shape = Shape;
  Spec.N = 3 + static_cast<int>(ProgSeed % 6);
  Spec.Seed = ProgSeed;
  const std::string Program = makeShapeProgram(Spec);

  // Derive the edit seed from the program seed so the pair prints as a
  // reproducible triple but the two streams stay decorrelated.
  const uint64_t EditSeed = ProgSeed * 0x9e3779b97f4a7c15ull + 0xc0ffee;
  const std::string TagBase = std::string(shapeName(Shape)) +
                              " prog-seed=" + std::to_string(ProgSeed) +
                              " edit-seed=" + std::to_string(EditSeed);

  DeltaSession::Options O;
  Status CS = Status::ok();
  std::unique_ptr<DeltaSession> Sess = DeltaSession::create(Program, O, CS);
  ASSERT_TRUE(Sess != nullptr) << TagBase << ": " << CS.toString();
  ASSERT_TRUE(Sess->incremental())
      << TagBase << ": shape program left the exactness envelope";
  EXPECT_EQ("", compareDeltaToFreshRebuild(*Sess, TagBase + " step=init"));
  EXPECT_EQ("", compareDeltaEpochToFreshLoad(*Sess, TagBase + " step=init"));

  Rng R(EditSeed);
  for (int Step = 0; Step != EditsPerProgram; ++Step) {
    const std::string Tag = TagBase + " step=" + std::to_string(Step);
    const std::string Fresh = "zz" + std::to_string(ProgSeed % 1000) + "_" +
                              std::to_string(Step);
    const EditRequest Req = randomEdit(R, *Sess, Fresh);
    // Seed-hunting aid: STCFA_DELTA_FUZZ_TRACE=1 narrates every step so a
    // hang or blow-up pins to a (prog-seed, edit-seed, step) triple.
    if (std::getenv("STCFA_DELTA_FUZZ_TRACE"))
      std::fprintf(stderr, "%s op=%d name=%s text=%s\n", Tag.c_str(),
                   static_cast<int>(Req.Kind), Req.Name.c_str(),
                   Req.Text.c_str());

    const bool WasIncremental = Sess->incremental();
    const std::string SourceBefore = Sess->currentSource();
    ApplyResult Res;
    Status S = Sess->apply(Req, Res);
    if (!S.isOk()) {
      // A rejected edit must be a structured error that leaves the
      // session untouched.  On the incremental path the only rejection
      // a generated script can produce is deleting a still-referenced
      // definition; in text-only mode any splice the re-parse refuses
      // (e.g. deleting a referenced definition surfaces as an unbound
      // name) is legal.
      ASSERT_EQ(S.code(), StatusCode::InvalidArgument) << Tag << ": "
                                                       << S.toString();
      if (WasIncremental) {
        ASSERT_EQ(Req.Kind, EditRequest::Op::Delete)
            << Tag << ": unexpected rejection: " << S.toString();
        ASSERT_NE(S.message().find("referenced"), std::string::npos)
            << Tag << ": " << S.toString();
      } else {
        ASSERT_EQ(Req.Kind, EditRequest::Op::Delete)
            << Tag << ": unexpected text-only rejection: " << S.toString();
      }
      EXPECT_EQ(SourceBefore, Sess->currentSource())
          << Tag << ": rejected edit changed the source";
      if (Sess->incremental()) {
        EXPECT_EQ("", compareDeltaToFreshRebuild(*Sess, Tag + " (no-op)"));
        EXPECT_EQ("", compareDeltaEpochToFreshLoad(*Sess, Tag + " (no-op)"));
      }
      continue;
    }

    if (Res.NeedsFullPipeline || !Sess->incremental()) {
      // The edit pushed the program out of the exactness envelope (a
      // well-typed deep chain can legitimately engage the depth
      // widening) and the session degraded to text-splicing — the
      // documented ladder.  Its remaining contract: the spliced source
      // must be a valid program for the caller's full pipeline.
      DiagnosticEngine Diags;
      ASSERT_TRUE(parseProgram(Sess->currentSource(), Diags) != nullptr)
          << Tag << ": spliced source does not parse:\n"
          << Diags.render() << "\n--- source ---\n"
          << Sess->currentSource();
      continue;
    }

    // Every ~5th step goes through the batched kernel path, so the
    // forced-scalar CI lane differentially tests the scalar twin.
    const bool UseBatch = (Step % 5) == 4;
    EXPECT_EQ("", compareDeltaToFreshRebuild(*Sess, Tag, UseBatch));
    EXPECT_EQ("", compareDeltaEpochToFreshLoad(*Sess, Tag));
    if (::testing::Test::HasFailure())
      return; // first divergence is the reproducer; don't bury it
  }
}

constexpr uint64_t SeedsPerShape = 30; // 4 shapes x 30 = 120 programs

TEST(DeltaFuzz, WideShapes) {
  for (uint64_t S = 1; S <= SeedsPerShape; ++S) {
    runScript(CondShape::Wide, S);
    if (::testing::Test::HasFailure())
      return;
  }
}

TEST(DeltaFuzz, DeepChains) {
  for (uint64_t S = 1; S <= SeedsPerShape; ++S) {
    runScript(CondShape::Deep, S);
    if (::testing::Test::HasFailure())
      return;
  }
}

TEST(DeltaFuzz, Diamonds) {
  for (uint64_t S = 1; S <= SeedsPerShape; ++S) {
    runScript(CondShape::Diamond, S);
    if (::testing::Test::HasFailure())
      return;
  }
}

TEST(DeltaFuzz, SkewedShapes) {
  for (uint64_t S = 1; S <= SeedsPerShape; ++S) {
    runScript(CondShape::Skewed, S);
    if (::testing::Test::HasFailure())
      return;
  }
}

} // namespace
