//===-- lint/LintEngine.h - Governed lint pass manager ----------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pass manager over the frozen subtransitive graph.  Each checker pass
/// answers one program-hygiene question using the linear-time machinery
/// the repo already has — port reachability over the CSR snapshot, the
/// called-once markers of Section 9, the effects analysis of Section 8 —
/// without ever materialising full label sets.
///
/// Registered passes (ids double as rule ids):
///
///   dead-function        warning  abstraction never called from any site
///   unused-binding       warning  binder with no variable occurrence
///   applied-non-function error    call site whose operator may be a
///                                 non-function value
///   called-once          note     abstraction with exactly one call site
///                                 (inlining candidate)
///   impure-in-pure       warning  side-effecting expression in a position
///                                 expected pure (pure-primitive operand,
///                                 branch condition, case scrutinee)
///   escaping-function    note     closure flowing into the program result
///                                 or a mutable reference cell
///
/// The engine fans passes out on a `ThreadPool` (each pass writes its own
/// report slot), shares the expensive wrapped analyses between passes
/// through a `LintContext` (built once under `std::call_once`), and runs
/// under the resource governor: every pass polls the shared
/// `Deadline`/`CancellationToken` and reports a per-pass `Status` plus a
/// `Partial` flag instead of aborting the run.  Spans and counters follow
/// docs/OBSERVABILITY.md (`lint.run`, `lint.pass.<id>`,
/// `lint.findings`, `lint.pass_millis`).
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_LINT_LINTENGINE_H
#define STCFA_LINT_LINTENGINE_H

#include "apps/EffectsAnalysis.h"
#include "apps/KLimitedCFA.h"
#include "core/FrozenGraph.h"
#include "lint/LintDiagnostic.h"
#include "support/Deadline.h"
#include "support/Status.h"

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace stcfa {

class LintContext;

/// Static description of one registered pass.
struct LintPassInfo {
  /// Stable pass/rule id (`--lint=<id>,...`).
  const char *Id;
  /// Trace span name — a string literal, as Trace requires.
  const char *SpanName;
  /// One-line rule description (SARIF `shortDescription`).
  const char *Summary;
  LintSeverity DefaultSeverity;
  /// The checker: appends findings, returns the pass status (`Ok`, or
  /// `DeadlineExceeded`/`Cancelled` with whatever partial findings were
  /// collected).
  Status (*Run)(const LintContext &Ctx, std::vector<LintDiagnostic> &Out);
};

/// Shared state handed to every pass.  Thread-safe: the wrapped analyses
/// are materialised lazily under `std::call_once`, so two passes racing
/// for `calledOnce()` build it exactly once and then share it read-only.
class LintContext {
public:
  /// The passes and wrapped analyses run on \p F's flat tables alone,
  /// so fresh, delta and mmap-backed snapshots all work.  \p M must be
  /// the module \p F was frozen from.
  LintContext(const Module &M, const FrozenGraph &F, const Deadline &D,
              const CancellationToken &Token);
  ~LintContext();

  const Module &module() const { return M; }
  const FrozenGraph &frozen() const { return F; }
  const Deadline &deadline() const { return D; }
  const CancellationToken &token() const { return Token; }

  /// The shared called-once analysis (Section 9 markers), built on first
  /// use under this context's deadline.  \p S receives the analysis run
  /// status — partial marker flow on expiry.
  const CalledOnceAnalysis &calledOnce(Status &S) const;

  /// The shared effects analysis (Section 8), same contract.
  const EffectsAnalysis &effects(Status &S) const;

  /// The occurrence whose graph node is \p N, or invalid when \p N is a
  /// derived port/label/summary node.  Built once (node indices in the
  /// snapshot are canonical, so the map is exact).
  ExprId exprOfNode(uint32_t N) const;

private:
  const FrozenGraph &F;
  const Module &M;
  Deadline D;
  CancellationToken Token;

  mutable std::once_flag CalledOnceFlag, EffectsFlag, NodeMapFlag;
  mutable std::unique_ptr<CalledOnceAnalysis> CalledOnceA;
  mutable std::unique_ptr<EffectsAnalysis> EffectsA;
  mutable Status CalledOnceStatus, EffectsStatus;
  mutable std::vector<ExprId> NodeToExpr;
};

/// What one pass produced.
struct LintPassReport {
  const LintPassInfo *Info = nullptr;
  std::vector<LintDiagnostic> Findings;
  Status PassStatus;
  /// True when the pass ran under an expired deadline or cancellation and
  /// its findings are an under-approximation.
  bool Partial = false;
  double Millis = 0;
};

/// Engine configuration.
struct LintOptions {
  /// Pass ids to run; empty means every registered pass.  Unknown ids are
  /// ignored (the driver validates before calling).
  std::vector<std::string> Passes;
  Deadline D;
  CancellationToken Token;
  /// Fan-out width; passes beyond this queue on the pool.
  unsigned Threads = 1;
};

/// Aggregate result of one engine run.
struct LintResult {
  /// One report per selected pass, in registry order (deterministic).
  std::vector<LintPassReport> Reports;
  uint32_t NumErrors = 0;
  uint32_t NumWarnings = 0;
  uint32_t NumNotes = 0;

  bool anyPartial() const {
    for (const LintPassReport &R : Reports)
      if (R.Partial)
        return true;
    return false;
  }
};

/// The pass manager.
class LintEngine {
public:
  /// Every pass and wrapped analysis runs on \p F's flat tables, so
  /// fresh, delta and mmap-backed snapshots all work.  \p F must be
  /// usable (`F.status().isOk()`) and \p M must be the module it was
  /// frozen from (content-hash-verified by callers that load a snapshot).
  LintEngine(const Module &M, const FrozenGraph &F);

  /// Same as `LintEngine(G.module(), F)`, for callers holding the graph
  /// \p F was frozen from.
  LintEngine(const SubtransitiveGraph &G, const FrozenGraph &F)
      : LintEngine(G.module(), F) {}

  /// All registered passes, in execution order.
  static std::span<const LintPassInfo> passes();

  /// Looks up a pass by id; null when unknown.
  static const LintPassInfo *findPass(std::string_view Id);

  /// Runs the selected passes and collects their reports.
  LintResult run(const LintOptions &Opts = {});

private:
  const Module &M;
  const FrozenGraph &F;
};

} // namespace stcfa

#endif // STCFA_LINT_LINTENGINE_H
