//===-- apps/CallGraph.h - Call-graph construction --------------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The control-flow graph the paper's introduction motivates: "the
/// control-flow graph of a program plays a central role in compilation".
/// For higher-order programs it must be computed by CFA; this consumer
/// derives it from the subtransitive graph:
///
///   * nodes are abstraction labels plus a synthetic `root` (top-level
///     code),
///   * there is an edge `f -> g` when some application site inside `f`'s
///     body may invoke `g`.
///
/// Callee sets per site come from one batched reachability query over
/// the frozen graph (output-bound cost, like the paper's "all calls from
/// all call sites" view); the derived
/// queries — reachable functions, dead functions, strongly connected
/// (mutually recursive) groups — are then linear in the call graph.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_APPS_CALLGRAPH_H
#define STCFA_APPS_CALLGRAPH_H

#include "ast/Module.h"
#include "core/QueryEngine.h"

#include <vector>

namespace stcfa {

/// Monovariant call graph over abstraction labels.
class CallGraph {
public:
  /// Callee sets come from one (optionally parallel) `labelsOfBatch` on
  /// \p Engine over all call-site operators of \p M, the module the
  /// engine's frozen graph was built from.
  CallGraph(const Module &M, QueryEngine &Engine);

  /// Builds the graph (callee sets via reachability per call site).
  void run();

  /// Caller index space: label indices, plus `rootIndex()` for top-level.
  uint32_t rootIndex() const { return M.numLabels(); }
  uint32_t numCallers() const { return M.numLabels() + 1; }

  /// Labels callable from caller \p Caller (a label index or rootIndex()).
  const DenseBitset &calleesOf(uint32_t Caller) const {
    return Callees[Caller];
  }

  /// Call sites attributed to caller \p Caller.
  const std::vector<ExprId> &sitesOf(uint32_t Caller) const {
    return Sites[Caller];
  }

  /// Functions reachable from top-level code (transitively callable).
  DenseBitset reachableFunctions() const;

  /// Functions that no reachable code can call.
  std::vector<LabelId> deadFunctions() const;

private:
  const Module &M;
  QueryEngine &Engine;
  std::vector<DenseBitset> Callees;
  std::vector<std::vector<ExprId>> Sites;
  bool HasRun = false;
};

} // namespace stcfa

#endif // STCFA_APPS_CALLGRAPH_H
