//===-- core/Reachability.h - Graph-reachability CFA queries ----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow queries as plain graph reachability over the mutable
/// subtransitive graph — the payoff of the paper's factorisation
/// (Section 2's table):
///
///   * `isLabelIn`      — Algorithm 1, O(n) per query
///   * `labelsOf`       — Algorithm 2, O(n) per query
///   * `occurrencesOf`  — reverse reachability, O(n) per query
///
/// Production code answers through `FrozenGraph` + `QueryEngine`; this
/// linked-list walk is the reference those are tested against.  Queries
/// never mutate the graph; run them after `build()` + `close()`.
///
/// Aborted-graph contract: a graph whose close phase was stopped by a
/// budget, deadline, or cancellation (`G.aborted()`) is incomplete, and
/// reachability over it would be unsound (missing flows).  Queries on an
/// aborted graph assert in debug builds and return *empty* answers in
/// release builds, with `status()` reporting `FailedPrecondition` —
/// never a partial, silently-wrong set.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_CORE_REACHABILITY_H
#define STCFA_CORE_REACHABILITY_H

#include "core/SubtransitiveGraph.h"
#include "support/DenseBitset.h"
#include "support/Status.h"

namespace stcfa {

/// Reachability query engine over a closed subtransitive graph.
class Reachability {
public:
  explicit Reachability(const SubtransitiveGraph &G);

  /// Algorithm 1: is the abstraction labelled \p L a possible value of
  /// occurrence \p E?
  bool isLabelIn(ExprId E, LabelId L);

  /// Algorithm 2: all abstraction labels reachable from \p E.
  DenseBitset labelsOf(ExprId E);

  /// All labels reachable from the binder \p V.
  DenseBitset labelsOfVar(VarId V);

  /// All labels reachable from graph node \p N.
  DenseBitset labelsOfNode(NodeId N);

  /// All expression occurrences whose label set contains \p L (reverse
  /// reachability from the abstraction node).
  std::vector<ExprId> occurrencesOf(LabelId L);

  /// Nodes touched by queries so far (machine-independent work measure).
  uint64_t nodesVisited() const { return Visited; }

  /// `Ok` over a usable graph; `FailedPrecondition` when the source
  /// graph is aborted (every query then answers empty).
  const Status &status() const { return QueryStatus; }

private:
  /// True when queries may run; false (with `QueryStatus` set) over an
  /// aborted graph.
  bool usable() const;
  template <typename FnT> void forEachReachable(NodeId Start, FnT Fn);
  /// Advances the query epoch, zeroing all stamps when the 32-bit
  /// counter wraps (a long-lived object answers > 2^32 queries).
  void bumpEpoch();

  const SubtransitiveGraph &G;
  const Module &M;
  /// Epoch-stamped visit marks: O(1) reset between queries.
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 0;
  std::vector<NodeId> Stack;
  uint64_t Visited = 0;
  mutable Status QueryStatus;
};

} // namespace stcfa

#endif // STCFA_CORE_REACHABILITY_H
