//===-- apps/EffectsAnalysis.h - Linear-time effects analysis ---*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 8's linear-time effects analysis: find every expression whose
/// evaluation may cause a side effect, *without* materialising label sets.
///
/// The paper's formulation (for the pure calculus plus side-effecting
/// primitives):
///
///   (a) an application `(e1 e2)` is red if `e1`, `e2`, or `ran(e1)` is
///       red;
///   (b) a node `ran(e)` is red if it has an edge to a red node.
///
/// We generalise structurally to the full language: every expression is
/// red when an evaluated child is red (a lambda does *not* inherit its
/// body's redness — building a closure is pure), and redness travels
/// backwards through `ran`-chains of the subtransitive graph so that a
/// call site inherits the redness of every function body that can reach
/// its operator position.  One worklist pass, O(nodes + edges).
///
/// `EffectsAnalysisRef` recomputes the same property from full standard
/// CFA label sets (the quadratic pipeline the paper contrasts against);
/// the test suite checks both agree.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_APPS_EFFECTSANALYSIS_H
#define STCFA_APPS_EFFECTSANALYSIS_H

#include "core/FrozenGraph.h"

namespace stcfa {

class StandardCFA;

/// Linear-time effects analysis over the frozen subtransitive graph.
class EffectsAnalysis {
public:
  /// Every graph lookup (occurrence nodes, ran ports, ops, adjacency) is
  /// served from \p F's flat tables, so fresh, delta and mmap-backed
  /// snapshots all work.  \p M must be the module \p F was frozen from
  /// (content-hash-verified by callers that load a snapshot).
  EffectsAnalysis(const Module &M, const FrozenGraph &F);

  /// Runs the propagation; call once.
  void run() { (void)run(Deadline::infinite()); }

  /// Governed run: polls \p D and \p Token every few thousand worklist
  /// pops.  On `DeadlineExceeded`/`Cancelled` the marks are an
  /// *under*-approximation (some effectful occurrences may be missed);
  /// callers must surface the partial-result flag.
  Status run(const Deadline &D, const CancellationToken &Token = {});

  /// The status of the last `run` (`Ok` for a completed fixpoint).
  const Status &runStatus() const { return RunStatus; }

  /// May evaluating \p E cause a side effect?
  bool isEffectful(ExprId E) const { return RedExpr[E.index()]; }

  /// Number of side-effecting occurrences found.
  uint32_t numEffectful() const { return NumRed; }

private:
  void markExpr(ExprId E);
  void markNode(uint32_t N);

  const FrozenGraph &F;
  const Module &M;
  std::vector<bool> RedExpr;
  std::vector<bool> RedNode;
  std::vector<ExprId> ExprWorklist;
  std::vector<uint32_t> NodeWorklist;
  uint32_t NumRed = 0;
  Status RunStatus;
  bool HasRun = false;
};

/// Reference implementation: standard CFA label sets plus a syntactic
/// fixpoint (at least quadratic, per the paper).  For testing and for the
/// E4 benchmark baseline.
class EffectsAnalysisRef {
public:
  explicit EffectsAnalysisRef(const Module &M, const StandardCFA &CFA);

  void run();

  bool isEffectful(ExprId E) const { return Red[E.index()]; }
  uint32_t numEffectful() const { return NumRed; }

private:
  const Module &M;
  const StandardCFA &CFA;
  std::vector<bool> Red;
  uint32_t NumRed = 0;
};

} // namespace stcfa

#endif // STCFA_APPS_EFFECTSANALYSIS_H
