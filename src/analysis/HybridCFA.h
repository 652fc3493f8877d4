//===-- analysis/HybridCFA.h - The Conclusion's hybrid analysis -*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hybrid the paper's Conclusion proposes: "Our algorithm could
/// potentially be combined with the standard cubic-time CFA algorithm to
/// obtain a hybrid algorithm that terminates for arbitrary programs but is
/// linear for bounded-type programs."
///
/// Extended here into a *degradation ladder* under a resource governor:
///
///   1. subtransitive — exact datatype tracking, linear node budget,
///      governed close; succeeds iff the program is in the bounded-type
///      classes and the deadline holds.  Exactly standard-CFA precision.
///   2. standard      — the always-terminating cubic algorithm, run under
///      whatever deadline remains.  Exact, but slower.
///   3. partial       — a bounded partial answer: every queried label set
///      is the *universal* set, a trivially conservative superset of the
///      true answer, returned in O(labels) time.
///
/// Each rung's outcome (status + wall time) lands in a machine-readable
/// `DegradationReport`.  Cancellation never degrades — a cancelled
/// analysis stops with no answer, because the caller asked it to stop.
/// `DegradeMode::Off` pins the ladder to rung 1 (fail instead of
/// degrading); `Standard` (the default, matching the paper's hybrid)
/// stops after rung 2; `Partial` walks all three rungs.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_ANALYSIS_HYBRIDCFA_H
#define STCFA_ANALYSIS_HYBRIDCFA_H

#include "analysis/StandardCFA.h"
#include "core/QueryEngine.h"
#include "core/SubtransitiveGraph.h"
#include "support/Deadline.h"
#include "support/Status.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace stcfa {

/// How far down the ladder the hybrid may degrade.
enum class DegradeMode : uint8_t {
  Off,      ///< Subtransitive or nothing: a failed rung 1 is a hard error.
  Standard, ///< The paper's hybrid: fall back to the cubic algorithm.
  Partial,  ///< Always answer: degrade to the universal-set partial rung.
};

/// Construction-time resource controls for `HybridCFA`.
struct HybridOptions {
  /// Bounds the subtransitive attempt at `BudgetFactor * numExprs` nodes.
  uint32_t BudgetFactor = 8;
  /// Ignored: queries run on the calling thread.  Benchmark-only: kept
  /// for `perfbench/ServeEdit.cpp` and `perfbench/ServeQuery.cpp`.
  unsigned Threads = 1;
  /// Wall-clock deadline over the whole ladder (infinite by default).
  Deadline D;
  /// Cooperative cancellation; a cancelled run serves no answer.
  CancellationToken Token;
  DegradeMode Degrade = DegradeMode::Standard;
  /// Batch size above which the query engine's batched entry points
  /// dispatch to the word-parallel label-set kernel (0 disables it).
  size_t KernelThreshold = QueryEngine::DefaultKernelThreshold;
};

/// Machine-readable record of the degradation ladder: one entry per rung
/// attempted, which rung finally served, and the overall status.
struct DegradationReport {
  struct Attempt {
    /// "subtransitive", "freeze", "standard", or "partial".
    const char *Rung;
    Status S;
    double Millis;
  };
  std::vector<Attempt> Attempts;
  /// The serving rung: "subtransitive", "standard", "partial", or "none".
  const char *Served = "none";
  /// `Ok` when some rung served; the last failure otherwise.
  Status Final;

  /// One-line JSON object (`{"served":...,"final":...,"attempts":[...]}`).
  std::string toJson() const;
};

/// Subtransitive-first CFA with a governed degradation ladder.
class HybridCFA {
public:
  /// Ungoverned construction: infinite deadline, `Standard` degradation —
  /// exactly the paper's hybrid.
  explicit HybridCFA(const Module &M, uint32_t BudgetFactor = 8);

  HybridCFA(const Module &M, const HybridOptions &Opts);

  void run() { (void)solve(); }

  /// Walks the ladder.  `Ok` iff some rung served an answer (degraded
  /// service is still `Ok` — consult `report()` / `engine()` for how
  /// degraded); `Cancelled`/`DeadlineExceeded`/`ResourceExhausted` when
  /// no rung could.
  Status solve();

  /// Which engine produced the results.  `None` means no rung served
  /// (query answers are empty; `report().Final` says why).
  enum class Engine : uint8_t { Subtransitive, Standard, PartialAnswer, None };
  Engine engine() const { return Used; }

  const DegradationReport &report() const { return Report; }

  /// Labels flowing to occurrence \p E (the query engine's point answer
  /// under the subtransitive engine; a table read under the cubic
  /// fallback; the universal set under the partial-answer rung).  Every
  /// rung is a read, safe from any number of threads.
  DenseBitset labelSet(ExprId E) const;
  DenseBitset labelSetOfVar(VarId V) const;

  /// The graph, when the subtransitive engine succeeded (else null).
  const SubtransitiveGraph *graph() const { return Graph.get(); }

  /// The frozen CSR snapshot and its query engine, when the
  /// subtransitive engine succeeded (else null).
  const FrozenGraph *frozen() const { return Frozen.get(); }
  QueryEngine *queryEngine() { return Queries.get(); }

private:
  DenseBitset universalLabels() const;

  const Module &M;
  HybridOptions Opts;
  Engine Used = Engine::None;
  DegradationReport Report;
  std::unique_ptr<SubtransitiveGraph> Graph;
  std::unique_ptr<FrozenGraph> Frozen;
  std::unique_ptr<QueryEngine> Queries;
  std::unique_ptr<StandardCFA> Fallback;
  bool HasRun = false;
};

/// Printable name of a hybrid engine ("subtransitive", "standard",
/// "partial", "none").
const char *engineName(HybridCFA::Engine E);

/// The mode a `--degrade=` value names: "off", "partial", and anything
/// else (callers validate first) `Standard`.
DegradeMode degradeModeNamed(std::string_view Name);

} // namespace stcfa

#endif // STCFA_ANALYSIS_HYBRIDCFA_H
