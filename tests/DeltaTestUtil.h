//===-- tests/DeltaTestUtil.h - Shared edit-delta test oracle ---*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracles shared by the delta unit tests and the
/// edit-sequence fuzzer.  `compareDeltaToFreshRebuild` publishes the
/// session's view, rebuilds the session's current source from scratch
/// through the ordinary pipeline, and requires identical tables and
/// answers for every canonical expression, binder and label.
/// `compareDeltaEpochToFreshLoad` installs the view as a serve epoch and
/// requires its lint findings and slices to equal a fresh full load's.
/// Any divergence returns a report carrying the caller's tag (program
/// seed / edit seed / step), so a fuzz failure is reproducible from the
/// test log alone.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_TESTS_DELTATESTUTIL_H
#define STCFA_TESTS_DELTATESTUTIL_H

#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "core/SubtransitiveGraph.h"
#include "delta/DeltaSession.h"
#include "parser/Parser.h"
#include "sema/Infer.h"
#include "serve/Epoch.h"

#include <memory>
#include <string>
#include <vector>

namespace stcfa {

/// Publishes \p Sess's view and cross-checks it against a from-scratch
/// pipeline over the session's current source: the canonical counts,
/// which exprs have a graph node, each label's roots, each binder's
/// node, use and label set, then `labelsOf` for all canonical
/// expressions and `occurrencesOf` for all canonical labels.  With
/// \p UseBatch the delta side's rows come from `labelsOfBatch` with the
/// kernel threshold forced to zero, so the word-parallel kernel (or its
/// forced-scalar twin under `STCFA_FORCE_SCALAR=1`) is the code under
/// test instead of the per-query DFS.  Returns "" on agreement, a
/// reproducing report otherwise.
inline std::string compareDeltaToFreshRebuild(DeltaSession &Sess,
                                              const std::string &Tag,
                                              bool UseBatch = false) {
  DeltaView V;
  if (Status S = Sess.freezeView(V); !S.isOk())
    return Tag + ": freezeView failed: " + S.toString();

  const std::string Src = Sess.currentSource();
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Src, Diags);
  if (!M)
    return Tag + ": current source does not parse:\n" + Diags.render() +
           "\n--- source ---\n" + Src;
  DiagnosticEngine InferDiags;
  (void)inferTypes(*M, InferDiags);

  SubtransitiveConfig Config;
  SubtransitiveGraph G(*M, Config);
  G.build();
  if (Status S = G.close(Deadline::infinite()); !S.isOk())
    return Tag + ": oracle close failed: " + S.toString();
  Status FS = Status::ok();
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, FS);
  if (!F)
    return Tag + ": oracle freeze failed: " + FS.toString();
  QueryEngine Fresh(*F);

  const FrozenGraph &DF = *V.Frozen;
  auto shape = [&](const char *What, uint32_t Delta, uint32_t Want) {
    return Tag + ": canonical " + What + " count " + std::to_string(Delta) +
           " != fresh parse " + std::to_string(Want) + "\n--- source ---\n" +
           Src;
  };
  if (V.NumExprs != M->numExprs() || DF.numExprs() != M->numExprs())
    return shape("expr", DF.numExprs(), M->numExprs());
  if (V.NumLabels != M->numLabels() || DF.numLabels() != M->numLabels())
    return shape("label", DF.numLabels(), M->numLabels());
  if (DF.numVars() != M->numVars())
    return shape("binder", DF.numVars(), M->numVars());

  // Node ids differ between the two graphs, so compare the tables by
  // presence: a canonical id has a node (or a label root) in one exactly
  // when it has one in the other, and each abstraction's node carries
  // its own canonical label.
  auto has = [](uint32_t N) { return N != FrozenGraph::None; };
  for (uint32_t E = 0; E != V.NumExprs; ++E)
    if (has(DF.nodeOfExpr(ExprId(E))) != has(F->nodeOfExpr(ExprId(E))))
      return Tag + ": expr " + std::to_string(E) +
             " has a node on one side only\n--- source ---\n" + Src;
  for (uint32_t L = 0; L != V.NumLabels; ++L) {
    auto [DLam, DCarrier] = DF.labelRoots(LabelId(L));
    auto [FLam, FCarrier] = F->labelRoots(LabelId(L));
    if (has(DLam) != has(FLam) || has(DCarrier) != has(FCarrier))
      return Tag + ": label " + std::to_string(L) +
             " roots differ\n--- source ---\n" + Src;
    if (has(DLam) && DF.labelAt(DLam) != L)
      return Tag + ": label " + std::to_string(L) +
             "'s abstraction node carries label " +
             std::to_string(DF.labelAt(DLam)) + "\n--- source ---\n" + Src;
  }

  QueryEngine Delta(DF);
  // Binders: the same node presence, the same "referenced at all" bit
  // (a binder node's predecessors are its occurrences) and the same
  // label set, so a permuted binder order cannot hide.
  for (uint32_t X = 0; X != DF.numVars(); ++X) {
    const uint32_t DN = DF.nodeOfVar(VarId(X)), FN = F->nodeOfVar(VarId(X));
    if (has(DN) != has(FN) ||
        (has(DN) && DF.preds(DN).empty() != F->preds(FN).empty()) ||
        Delta.labelsOfVar(VarId(X)) != Fresh.labelsOfVar(VarId(X)))
      return Tag + ": binder " + std::to_string(X) + " ('" +
             std::string(M->text(M->var(VarId(X)).Name)) +
             "') differs\n--- source ---\n" + Src;
  }
  std::vector<DenseBitset> BatchRows;
  if (UseBatch) {
    Delta.setKernelThreshold(0); // force the kernel path
    std::vector<ExprId> Es;
    Es.reserve(V.NumExprs);
    for (uint32_t E = 0; E != V.NumExprs; ++E)
      Es.push_back(ExprId(E));
    BatchRows = Delta.labelsOfBatch(Es);
  }
  for (uint32_t E = 0; E != V.NumExprs; ++E) {
    DenseBitset DRow =
        UseBatch ? std::move(BatchRows[E]) : Delta.labelsOf(ExprId(E));
    DenseBitset FRow = Fresh.labelsOf(ExprId(E));
    for (uint32_t L = 0; L != V.NumLabels; ++L)
      if (DRow.contains(L) != FRow.contains(L))
        return Tag + ": labelsOf(expr " + std::to_string(E) +
               ") disagrees at label " + std::to_string(L) + " (delta=" +
               (DRow.contains(L) ? "1" : "0") +
               ", batch=" + (UseBatch ? "1" : "0") + ")\n--- source ---\n" +
               Src;
  }
  for (uint32_t L = 0; L != V.NumLabels; ++L) {
    std::vector<ExprId> DOcc = Delta.occurrencesOf(LabelId(L));
    std::vector<ExprId> FOcc = Fresh.occurrencesOf(LabelId(L));
    if (DOcc != FOcc)
      return Tag + ": occurrencesOf(label " + std::to_string(L) +
             ") disagrees (delta has " + std::to_string(DOcc.size()) +
             ", fresh has " + std::to_string(FOcc.size()) +
             ")\n--- source ---\n" + Src;
  }
  return "";
}

/// One line per lint finding, `pass|severity|line|col|message` (the
/// fields a serve `lint` reply carries), followed by its notes.
inline std::string lintRowsOf(const LintResult &LR) {
  std::string Out;
  for (const LintPassReport &R : LR.Reports)
    for (const LintDiagnostic &D : R.Findings) {
      Out += D.RuleId + "|" + lintSeverityName(D.Severity) + "|" +
             std::to_string(D.Range.Begin.Line) + "|" +
             std::to_string(D.Range.Begin.Col) + "|" + D.Message + "\n";
      for (const LintNote &N : D.Notes)
        Out += "  note " + std::to_string(N.Range.Begin.Line) + "|" +
               std::to_string(N.Range.Begin.Col) + "|" + N.Message + "\n";
    }
  return Out;
}

/// Installs \p Sess's view as a delta `serve::Epoch` and checks its
/// `lint` findings, and its backward and forward slice members from every
/// canonical expression (with witness chains from the root), against an
/// epoch loaded fresh from the session's current source.  Returns "" on
/// agreement, a reproducing report otherwise.
inline std::string compareDeltaEpochToFreshLoad(DeltaSession &Sess,
                                                const std::string &Tag) {
  DeltaView V;
  if (Status S = Sess.freezeView(V); !S.isOk())
    return Tag + ": freezeView failed: " + S.toString();
  const std::string Src = Sess.currentSource();
  serve::Epoch Delta(2, std::move(V), Src,
                     QueryEngine::DefaultKernelThreshold);

  serve::LivePipeline P;
  if (Status S = P.run(Src, HybridOptions{}); !S.isOk())
    return Tag + ": fresh load failed: " + S.toString();
  serve::Epoch Fresh(1, std::move(P.M), std::move(P.H));
  if (Delta.numExprs() != Fresh.numExprs() || Delta.root() != Fresh.root())
    return Tag + ": epoch shapes differ\n--- source ---\n" + Src;

  const Deadline D = Deadline::infinite();
  LintResult DL, FL;
  if (Status S = Delta.lint({}, D, DL); !S.isOk())
    return Tag + ": delta lint failed: " + S.toString();
  if (Status S = Fresh.lint({}, D, FL); !S.isOk())
    return Tag + ": fresh lint failed: " + S.toString();
  if (lintRowsOf(DL) != lintRowsOf(FL))
    return Tag + ": lint findings differ\n--- delta ---\n" + lintRowsOf(DL) +
           "--- fresh ---\n" + lintRowsOf(FL) + "--- source ---\n" + Src;

  auto Chains = [](const serve::Epoch::SliceReply &R) {
    std::vector<std::string> Out;
    for (size_t I = 0; I != R.Witnesses.size(); ++I)
      Out.push_back(Slicer(*R.Deps).renderWitness(R.Witnesses[I]));
    return Out;
  };
  for (SliceDirection Dir : {SliceDirection::Backward, SliceDirection::Forward})
    for (uint32_t E = 0; E != Fresh.numExprs(); ++E) {
      const bool Witness = ExprId(E) == Fresh.root();
      serve::Epoch::SliceReply DS, FS;
      if (Status S = Delta.slice(ExprId(E), Dir, Witness, D, DS); !S.isOk())
        return Tag + ": delta slice failed: " + S.toString();
      if (Status S = Fresh.slice(ExprId(E), Dir, Witness, D, FS); !S.isOk())
        return Tag + ": fresh slice failed: " + S.toString();
      if (DS.Members != FS.Members || Chains(DS) != Chains(FS) ||
          DS.Partial != FS.Partial)
        return Tag + ": " +
               (Dir == SliceDirection::Forward ? "forward" : "backward") +
               " slice from expr " + std::to_string(E) +
               " differs (delta has " + std::to_string(DS.Members.size()) +
               " members, fresh has " + std::to_string(FS.Members.size()) +
               ")\n--- source ---\n" + Src;
    }
  return "";
}

} // namespace stcfa

#endif // STCFA_TESTS_DELTATESTUTIL_H
