//===-- tests/delta_test.cpp - Incremental edit-delta unit tests ----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Oracle tests for `DeltaSession`: every edit's published view must
/// answer bit-identically to a from-scratch rebuild of the session's
/// current source.  The shapes are chosen to exercise the dirty-cone
/// machinery where it can go wrong — a diamond (retraction reconverges
/// through a join), a deep chain (the cone is a long path), a skewed
/// join-then-chain, a deleted SCC (`letrec` self-loop), and the empty
/// delta (replacing a definition with its own text).
///
//===----------------------------------------------------------------------===//

#include "delta/DeltaSession.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "testgen/ShapeGen.h"

#include "DeltaTestUtil.h"
#include "TestUtil.h"

#include <string>
#include <vector>

using namespace stcfa;

namespace {

std::unique_ptr<DeltaSession> makeSession(const std::string &Src) {
  DeltaSession::Options O;
  Status S = Status::ok();
  std::unique_ptr<DeltaSession> Sess = DeltaSession::create(Src, O, S);
  EXPECT_TRUE(Sess != nullptr) << S.toString();
  return Sess;
}

std::string compareToFreshRebuild(DeltaSession &Sess, const std::string &Tag) {
  return compareDeltaToFreshRebuild(Sess, Tag);
}

EditRequest replaceEdit(const std::string &Name, const std::string &Text) {
  EditRequest R;
  R.Kind = EditRequest::Op::Replace;
  R.Name = Name;
  R.Text = Text;
  return R;
}

std::string shapeProgram(const char *Spec) {
  ShapeSpec S;
  EXPECT_TRUE(parseShapeSpec(Spec, S)) << Spec;
  return makeShapeProgram(S);
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

TEST(DeltaSession, CreateMatchesFreshParse) {
  const std::string Src = shapeProgram("deep:6");
  auto Sess = makeSession(Src);
  ASSERT_TRUE(Sess);
  EXPECT_TRUE(Sess->incremental());
  EXPECT_EQ(Sess->numDefs(), 7u); // the wrapper chain f0..f6

  std::unique_ptr<Module> M = parseOrDie(Src);
  ASSERT_TRUE(M);
  EXPECT_EQ(Sess->numExprs(), M->numExprs());
  EXPECT_EQ(Sess->numLabels(), M->numLabels());

  EXPECT_EQ(compareToFreshRebuild(*Sess, "create(deep:6)"), "");
}

TEST(DeltaSession, PureBodyProgramHasNoDefs) {
  // `let ... in ...` is one body expression, not a `;` item.
  auto Sess = makeSession("let f = fn x => x in f (fn y => y)");
  ASSERT_TRUE(Sess);
  EXPECT_TRUE(Sess->incremental());
  EXPECT_EQ(Sess->numDefs(), 0u);
  EXPECT_EQ(compareToFreshRebuild(*Sess, "pure-body"), "");
}

TEST(DeltaSession, ViewIsCanonicallyNumbered) {
  auto Sess = makeSession(shapeProgram("diamond:3"));
  ASSERT_TRUE(Sess);
  // Grow garbage in the shadow arena first (a replace orphans the old
  // subtree, a letrec replace moves the binder before the init's
  // binders), so the view has shadow ids to leave out.
  ApplyResult Res;
  ASSERT_TRUE(
      Sess->apply(replaceEdit("l2", "letrec l2 = fn x => l2 (m0 x);"), Res)
          .isOk());
  ASSERT_TRUE(
      Sess->apply(replaceEdit("m0", "let m0 = fn y => fn z => y;"), Res)
          .isOk());
  DeltaView V;
  ASSERT_TRUE(Sess->freezeView(V).isOk());
  std::unique_ptr<Module> M = parseOrDie(Sess->currentSource());
  ASSERT_TRUE(M);
  const FrozenGraph &F = *V.Frozen;
  EXPECT_EQ(V.NumExprs, M->numExprs());
  EXPECT_EQ(V.NumLabels, M->numLabels());
  EXPECT_EQ(F.numExprs(), M->numExprs());
  EXPECT_EQ(F.numVars(), M->numVars());
  EXPECT_EQ(F.numLabels(), M->numLabels());
  // The canonical root is the last expression a fresh parse creates.
  EXPECT_EQ(M->root().index(), V.NumExprs - 1);
  // Every canonical occurrence and binder has its own node, and each
  // abstraction's node carries exactly its canonical label.
  for (uint32_t E = 0; E != M->numExprs(); ++E)
    EXPECT_NE(F.nodeOfExpr(ExprId(E)), FrozenGraph::None) << "expr " << E;
  for (uint32_t X = 0; X != M->numVars(); ++X)
    EXPECT_NE(F.nodeOfVar(VarId(X)), FrozenGraph::None) << "binder " << X;
  for (uint32_t L = 0; L != M->numLabels(); ++L) {
    uint32_t Lam = F.nodeOfExpr(M->lamOfLabel(LabelId(L)));
    EXPECT_EQ(F.labelRoots(LabelId(L)).first, Lam) << "label " << L;
    EXPECT_EQ(F.labelAt(Lam), L) << "label " << L;
  }
  // Garbage shadow labels freeze as "no label": every labelled node
  // carries a canonical label.
  for (uint32_t N = 0; N != F.numNodes(); ++N) {
    if (F.labelAt(N) != FrozenGraph::None) {
      EXPECT_LT(F.labelAt(N), M->numLabels()) << "node " << N;
    }
  }
  EXPECT_EQ(compareToFreshRebuild(*Sess, "canonical-view"), "");
  EXPECT_EQ(compareDeltaEpochToFreshLoad(*Sess, "canonical-view"), "");
}

//===----------------------------------------------------------------------===//
// Replace
//===----------------------------------------------------------------------===//

TEST(DeltaSession, ReplaceInDiamondIsExact) {
  auto Sess = makeSession(shapeProgram("diamond:3"));
  ASSERT_TRUE(Sess);
  // Reroute one diamond branch: l2 now skips its block's entry.
  ApplyResult Res;
  Status S = Sess->apply(replaceEdit("l2", "let l2 = fn x => m0 x;"), Res);
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_EQ(Res.M, ApplyResult::Mode::Delta);
  EXPECT_FALSE(Res.NeedsFullPipeline);
  EXPECT_EQ(compareToFreshRebuild(*Sess, "replace(diamond:3,l2)"), "");
}

TEST(DeltaSession, ReplaceInDeepChainIsExact) {
  auto Sess = makeSession(shapeProgram("deep:8"));
  ASSERT_TRUE(Sess);
  // Snip the middle of the chain: f4 short-circuits to f0.
  ApplyResult Res;
  Status S = Sess->apply(replaceEdit("f4", "let f4 = fn x => f0 x;"), Res);
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_EQ(Res.M, ApplyResult::Mode::Delta);
  EXPECT_EQ(compareToFreshRebuild(*Sess, "replace(deep:8,f4)"), "");
}

TEST(DeltaSession, ReplaceInSkewedShapeIsExact) {
  auto Sess = makeSession(shapeProgram("skewed:4"));
  ASSERT_TRUE(Sess);
  ApplyResult Res;
  Status S = Sess->apply(replaceEdit("d2", "let d2 = fn x => d0 (d1 x);"),
                         Res);
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_EQ(compareToFreshRebuild(*Sess, "replace(skewed:4,d2)"), "");
}

TEST(DeltaSession, EmptyDeltaKeepsAnswers) {
  auto Sess = makeSession(shapeProgram("deep:5"));
  ASSERT_TRUE(Sess);
  // Replacing a definition with its own text re-parses the subtree but
  // must not change a single answer.
  ApplyResult Res;
  Status S = Sess->apply(replaceEdit("f2", "let f2 = fn x => f1 x;"), Res);
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_EQ(Res.M, ApplyResult::Mode::Delta);
  EXPECT_EQ(compareToFreshRebuild(*Sess, "empty-delta(deep:5,f2)"), "");
}

TEST(DeltaSession, ReplaceCannotChangeTheName) {
  auto Sess = makeSession(shapeProgram("deep:3"));
  ASSERT_TRUE(Sess);
  ApplyResult Res;
  Status S = Sess->apply(replaceEdit("f1", "let other = fn x => f0 x;"), Res);
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
  // The rejection left the session untouched.
  EXPECT_EQ(compareToFreshRebuild(*Sess, "bad-replace(deep:3)"), "");
}

TEST(DeltaSession, ReplaceUnknownNameIsRejected) {
  auto Sess = makeSession(shapeProgram("deep:3"));
  ASSERT_TRUE(Sess);
  ApplyResult Res;
  Status S = Sess->apply(replaceEdit("nope", "let nope = fn x => x;"), Res);
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Insert / delete
//===----------------------------------------------------------------------===//

TEST(DeltaSession, InsertAppendAndReplaceBody) {
  auto Sess = makeSession(shapeProgram("deep:4"));
  ASSERT_TRUE(Sess);
  EditRequest Ins;
  Ins.Kind = EditRequest::Op::Insert;
  Ins.Text = "let extra = fn x => f3 (f1 x);";
  ApplyResult Res;
  ASSERT_TRUE(Sess->apply(Ins, Res).isOk());
  EXPECT_EQ(compareToFreshRebuild(*Sess, "insert(deep:4)"), "");

  EditRequest Body;
  Body.Kind = EditRequest::Op::ReplaceBody;
  Body.Text = "extra 0";
  ASSERT_TRUE(Sess->apply(Body, Res).isOk());
  EXPECT_EQ(Res.M, ApplyResult::Mode::Delta);
  EXPECT_EQ(compareToFreshRebuild(*Sess, "replace-body(deep:4)"), "");
}

TEST(DeltaSession, InsertBeforeIsExact) {
  auto Sess = makeSession(shapeProgram("deep:4"));
  ASSERT_TRUE(Sess);
  EditRequest Ins;
  Ins.Kind = EditRequest::Op::Insert;
  Ins.Before = "f2"; // may only reference definitions before f2
  Ins.Text = "let mid = fn x => f1 (f0 x);";
  ApplyResult Res;
  Status S = Sess->apply(Ins, Res);
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_EQ(Sess->defName(2), "mid");
  EXPECT_EQ(compareToFreshRebuild(*Sess, "insert-before(deep:4)"), "");
}

TEST(DeltaSession, DeleteStillReferencedIsRejected) {
  auto Sess = makeSession(shapeProgram("deep:4"));
  ASSERT_TRUE(Sess);
  EditRequest Del;
  Del.Kind = EditRequest::Op::Delete;
  Del.Name = "f1"; // f2 references it
  ApplyResult Res;
  Status S = Sess->apply(Del, Res);
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
  EXPECT_NE(S.message().find("referenced"), std::string::npos) << S.message();
  EXPECT_EQ(compareToFreshRebuild(*Sess, "delete-referenced(deep:4)"), "");
}

TEST(DeltaSession, DeleteUnreferencedIsExact) {
  auto Sess = makeSession(shapeProgram("deep:4"));
  ASSERT_TRUE(Sess);
  EditRequest Ins;
  Ins.Kind = EditRequest::Op::Insert;
  Ins.Text = "let spare = fn x => f2 x;";
  ApplyResult Res;
  ASSERT_TRUE(Sess->apply(Ins, Res).isOk());

  EditRequest Del;
  Del.Kind = EditRequest::Op::Delete;
  Del.Name = "spare";
  Status S = Sess->apply(Del, Res);
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_EQ(Res.M, ApplyResult::Mode::Delta);
  EXPECT_EQ(compareToFreshRebuild(*Sess, "delete(deep:4,spare)"), "");
}

TEST(DeltaSession, DeleteDisconnectsAnScc) {
  // The deleted definition is a `letrec` self-loop — an SCC of its own
  // in the value-flow graph.  Retraction must unhook the whole cycle.
  auto Sess = makeSession("let base = fn x => x;\n"
                          "letrec loop = fn x => loop (base x);\n"
                          "base 0");
  ASSERT_TRUE(Sess);
  ASSERT_TRUE(Sess->incremental());
  EditRequest Del;
  Del.Kind = EditRequest::Op::Delete;
  Del.Name = "loop";
  ApplyResult Res;
  Status S = Sess->apply(Del, Res);
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_GT(Res.DirtyNodes, 0u);
  EXPECT_EQ(compareToFreshRebuild(*Sess, "delete-scc"), "");
}

TEST(DeltaSession, ShadowingInsertFallsBackToRebuild) {
  auto Sess = makeSession(shapeProgram("deep:3"));
  ASSERT_TRUE(Sess);
  // A second `f1` re-binds the name for everything after it; the session
  // must rebuild from source so later references re-resolve lexically.
  EditRequest Ins;
  Ins.Kind = EditRequest::Op::Insert;
  Ins.Text = "let f1 = fn x => f0 x;";
  ApplyResult Res;
  Status S = Sess->apply(Ins, Res);
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_EQ(Res.M, ApplyResult::Mode::FullRebuild);
  EXPECT_EQ(compareToFreshRebuild(*Sess, "shadowing-insert(deep:3)"), "");
}

//===----------------------------------------------------------------------===//
// Rename
//===----------------------------------------------------------------------===//

TEST(DeltaSession, RenameIsMetadataOnly) {
  auto Sess = makeSession(shapeProgram("deep:4"));
  ASSERT_TRUE(Sess);
  EditRequest Ren;
  Ren.Kind = EditRequest::Op::Rename;
  Ren.Name = "f1";
  Ren.NewName = "zz9";
  ApplyResult Res;
  Status S = Sess->apply(Ren, Res);
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_EQ(Res.M, ApplyResult::Mode::Metadata);
  EXPECT_EQ(Res.DirtyNodes, 0u);
  EXPECT_NE(Sess->currentSource().find("zz9"), std::string::npos);
  EXPECT_EQ(Sess->currentSource().find("f1"), std::string::npos);
  EXPECT_EQ(compareToFreshRebuild(*Sess, "rename(deep:4)"), "");
}

TEST(DeltaSession, RenameToExistingNameIsRejected) {
  auto Sess = makeSession(shapeProgram("deep:4"));
  ASSERT_TRUE(Sess);
  EditRequest Ren;
  Ren.Kind = EditRequest::Op::Rename;
  Ren.Name = "f1";
  Ren.NewName = "f2";
  ApplyResult Res;
  EXPECT_EQ(Sess->apply(Ren, Res).code(), StatusCode::InvalidArgument);
}

//===----------------------------------------------------------------------===//
// Envelope fallbacks
//===----------------------------------------------------------------------===//

TEST(DeltaSession, DataProgramsSpliceTextOnly) {
  auto Sess = makeSession("data D = A | B;\n"
                          "let pick = fn x => A;\n"
                          "pick B");
  ASSERT_TRUE(Sess);
  EXPECT_FALSE(Sess->incremental());
  ApplyResult Res;
  Status S = Sess->apply(replaceEdit("pick", "let pick = fn x => B;"), Res);
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_TRUE(Res.NeedsFullPipeline);
  EXPECT_EQ(Res.M, ApplyResult::Mode::FullPipeline);
  EXPECT_NE(Sess->currentSource().find("fn x => B"), std::string::npos);
  // The spliced source is a valid program for the full pipeline.
  DiagnosticEngine Diags;
  EXPECT_TRUE(parseProgram(Sess->currentSource(), Diags) != nullptr)
      << Diags.render();
}

TEST(DeltaSession, TextOnlyRejectsBrokenEdits) {
  auto Sess = makeSession("data D = A;\nlet f = fn x => x;\nf A");
  ASSERT_TRUE(Sess);
  ApplyResult Res;
  Status S =
      Sess->apply(replaceEdit("f", "let f = fn x => undefined_name;"), Res);
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
  // Unchanged: the original text still parses and serves.
  EXPECT_NE(Sess->currentSource().find("fn x => x"), std::string::npos);
}

TEST(DeltaSession, SequencedEditsStayExact) {
  auto Sess = makeSession(shapeProgram("diamond:4"));
  ASSERT_TRUE(Sess);
  ApplyResult Res;
  ASSERT_TRUE(
      Sess->apply(replaceEdit("r2", "let r2 = fn x => m1 (m0 x);"), Res)
          .isOk());
  EditRequest Ins;
  Ins.Kind = EditRequest::Op::Insert;
  Ins.Text = "let tap = fn x => m3 x;";
  ASSERT_TRUE(Sess->apply(Ins, Res).isOk());
  EditRequest Body;
  Body.Kind = EditRequest::Op::ReplaceBody;
  Body.Text = "tap 0";
  ASSERT_TRUE(Sess->apply(Body, Res).isOk());
  EditRequest Ren;
  Ren.Kind = EditRequest::Op::Rename;
  Ren.Name = "l1";
  Ren.NewName = "leftone";
  ASSERT_TRUE(Sess->apply(Ren, Res).isOk());
  EXPECT_EQ(compareToFreshRebuild(*Sess, "sequence(diamond:4)"), "");
  EXPECT_EQ(compareDeltaEpochToFreshLoad(*Sess, "sequence(diamond:4)"), "");
}

//===----------------------------------------------------------------------===//
// Delta epochs
//===----------------------------------------------------------------------===//

TEST(DeltaEpoch, ParsesItsSourceOnceForLintAndSlice) {
  auto Sess = makeSession(shapeProgram("deep:6"));
  ASSERT_TRUE(Sess);
  ApplyResult Res;
  ASSERT_TRUE(
      Sess->apply(replaceEdit("f3", "let f3 = fn x => f2 (f2 x);"), Res)
          .isOk());
  DeltaView V;
  ASSERT_TRUE(Sess->freezeView(V).isOk());
  const uint32_t NumExprs = V.NumExprs;
  serve::Epoch E(2, std::move(V), Sess->currentSource(),
                 QueryEngine::DefaultKernelThreshold);
  EXPECT_STREQ(E.engine(), "delta");

  const bool Traced = tracingCompiledIn();
  setTracingEnabled(Traced);
  clearTraceEvents();
  const uint64_t Before = counter("delta.epoch_parses").value();
  const Deadline D = Deadline::infinite();
  LintResult LR;
  serve::Epoch::SliceReply SR;
  ASSERT_TRUE(E.lint({}, D, LR).isOk());
  ASSERT_TRUE(E.slice(E.root(), SliceDirection::Backward, true, D, SR).isOk());
  ASSERT_TRUE(E.lint({}, D, LR).isOk());
  ASSERT_TRUE(E.slice(ExprId(0), SliceDirection::Forward, false, D, SR).isOk());
  EXPECT_EQ(counter("delta.epoch_parses").value(), Before + 1);
  EXPECT_EQ(E.module().numExprs(), NumExprs);

  std::vector<TraceEventView> Evs = snapshotTraceEvents();
  setTracingEnabled(false);
  clearTraceEvents();
  if (!Traced)
    return;
  const TraceEventView *EpochParse = nullptr;
  int EpochParses = 0;
  for (const TraceEventView &Ev : Evs)
    if (Ev.Name == "serve.epoch_parse") {
      EpochParse = &Ev;
      ++EpochParses;
    }
  ASSERT_EQ(EpochParses, 1);
  ASSERT_EQ(EpochParse->Args.size(), 1u);
  EXPECT_EQ(EpochParse->Args[0].first, "exprs");
  EXPECT_EQ(EpochParse->Args[0].second, NumExprs);
  // The parser's own span nests inside; no inference runs.
  int NestedParses = 0;
  for (const TraceEventView &Ev : Evs) {
    NestedParses += Ev.Name == "parse" && Ev.Parent == EpochParse->Seq;
    EXPECT_NE(Ev.Name, "infer");
  }
  EXPECT_EQ(NestedParses, 1);
}

} // namespace
