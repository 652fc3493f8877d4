//===-- apps/KLimitedCFA.h - Linear-time k-limited CFA ----------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 9: for each node, either the exact set of callable functions
/// when it is small (<= k), or the token "many".  Annotations propagate
/// *against* edge direction (an edge `n1 -> n2` means `L(n1) ⊇ L(n2)`);
/// each node's annotation can change at most k+2 times, so the whole
/// propagation is linear in the graph for fixed k.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_APPS_KLIMITEDCFA_H
#define STCFA_APPS_KLIMITEDCFA_H

#include "core/FrozenGraph.h"

#include <vector>

namespace stcfa {

/// The lattice  ∅ ⊂ {≤K ids} ⊂ Many  over 32-bit ids.
class LimitedSet {
public:
  bool isMany() const { return Many; }
  /// The ids; meaningless when `isMany()`.
  const std::vector<uint32_t> &ids() const { return Ids; }
  uint32_t size() const { return static_cast<uint32_t>(Ids.size()); }

  /// Inserts \p Id, saturating to Many beyond \p K elements; returns true
  /// iff the set changed.
  bool insert(uint32_t Id, uint32_t K);

  /// Merges \p Other in (same saturation rule); returns true iff changed.
  bool mergeFrom(const LimitedSet &Other, uint32_t K);

private:
  std::vector<uint32_t> Ids; // sorted
  bool Many = false;
};

/// Linear-time k-limited CFA over the frozen subtransitive graph.
class KLimitedCFA {
public:
  /// The propagation iterates \p F's CSR adjacency and flat label table.
  /// \p M must be the module \p F was frozen from.
  KLimitedCFA(const Module &M, const FrozenGraph &F, uint32_t K);

  void run();

  uint32_t k() const { return K; }

  /// The annotation of occurrence \p E: its callable functions if few.
  const LimitedSet &ofExpr(ExprId E) const;

  /// The annotation of binder \p V.
  const LimitedSet &ofVar(VarId V) const;

  /// The functions callable from call site \p App (an `AppExpr` id):
  /// the annotation of its operator.
  const LimitedSet &ofCallSite(ExprId App) const;

  /// Number of worklist updates performed (for the linearity bench).
  uint64_t updates() const { return Updates; }

private:
  const FrozenGraph &F;
  const Module &M;
  uint32_t K;
  std::vector<LimitedSet> Ann;
  LimitedSet Empty;
  uint64_t Updates = 0;
  bool HasRun = false;
};

/// Called-once analysis (paper abstract: "identify all functions called
/// from only one call-site").  Call-site markers flow *with* edge
/// direction from each application's operator node; by Proposition 1 they
/// arrive exactly at the abstractions the site can call.  1-limited
/// saturation, one word per node (no site, one site, or many), keeps it
/// linear.
class CalledOnceAnalysis {
public:
  /// Marker propagation iterates \p F's CSR adjacency, and node lookups
  /// come from its flat tables (occurrence map, label roots), so fresh,
  /// delta and mmap-backed snapshots all work.  \p M must be the module
  /// \p F was frozen from.
  CalledOnceAnalysis(const Module &M, const FrozenGraph &F);

  void run() { (void)run(Deadline::infinite()); }

  /// Governed run: polls \p D and \p Token every few thousand marker
  /// merges.  On `DeadlineExceeded`/`Cancelled` the per-label counts are
  /// computed from the partial marker flow — an under-approximation
  /// (`Never`/`Once` may be stale); callers must surface the flag.
  Status run(const Deadline &D, const CancellationToken &Token = {});

  /// The status of the last `run` (`Ok` for a completed propagation).
  const Status &runStatus() const { return RunStatus; }

  /// Result for one abstraction.
  enum class CallCount : uint8_t { Never, Once, Many };

  CallCount countOf(LabelId L) const { return Result[L.index()]; }

  /// For a label called exactly once, the unique call site (`AppExpr` id).
  ExprId uniqueCallSite(LabelId L) const { return Site[L.index()]; }

  /// All labels called from exactly one call site.
  std::vector<LabelId> calledOnce() const;

private:
  const FrozenGraph &F;
  const Module &M;
  std::vector<CallCount> Result;
  std::vector<ExprId> Site;
  Status RunStatus;
  bool HasRun = false;
};

} // namespace stcfa

#endif // STCFA_APPS_KLIMITEDCFA_H
