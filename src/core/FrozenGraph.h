//===-- core/FrozenGraph.h - Immutable CSR query snapshot -------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A frozen, immutable snapshot of a closed `SubtransitiveGraph`,
/// compacted for query throughput: all CFA queries reduce to plain graph
/// reachability (Propositions 1/2), so the serving hot path is edge
/// iteration, and the intrusive linked-list edge pool of the mutable
/// graph pays one cache miss per edge.  The snapshot stores
///
///   * forward and reverse adjacency as CSR (`uint32_t` offset/target
///     arrays — contiguous, prefetch-friendly);
///   * abstraction labels hoisted into one flat per-node array (no
///     per-node `labelOf` dispatch on the query path);
///   * flat occurrence/binder -> node maps and per-label reverse-search
///     roots;
///   * an SCC condensation, built once on first use and cached across
///     queries.
///
/// Storage seam: every array accessor reads a `std::span` view.  A
/// snapshot frozen from a graph backs those views with its own vectors;
/// an mmap-backed view (`fromTables`, built by the snapshot loader in
/// src/snapshot/) points them straight into a read-only file mapping with
/// zero deserialization.  Either way the snapshot is self-contained: the
/// source graph is read only while freezing, so a fresh, delta or
/// mmap-backed snapshot is the same view, and `QueryEngine`, the
/// label-set kernel, the effects/k-limited/called-once analyses and the
/// lint passes all consume it alone (plus the `Module` for the AST).
///
/// Freeze invariants: freeze only after `close()`, never after
/// `aborted()`.  The governed entry point is the `freeze()` factory,
/// which reports violations (and deadline expiry / injected faults mid
/// compaction) as a `Status`; the legacy constructor still asserts in
/// debug builds, and in release builds a precondition violation yields
/// an *empty, inert* snapshot — every lookup answers "no node", every
/// query is empty, and `status()` carries `FailedPrecondition` — rather
/// than undefined behaviour over a half-closed graph.  Once frozen, the
/// source graph may be mutated or destroyed freely; edges added to it
/// afterwards (the incremental/polyvariant path) are *not* reflected —
/// re-freeze instead.
///
/// Thread safety: after construction every accessor is `const` and
/// lock-free; the cached condensation is materialised under
/// `std::call_once`, so concurrent readers are safe (the daemon's workers
/// query one shared snapshot).
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_CORE_FROZENGRAPH_H
#define STCFA_CORE_FROZENGRAPH_H

#include "core/Condensation.h"
#include "core/SubtransitiveGraph.h"
#include "support/DenseBitset.h"
#include "support/Deadline.h"
#include "support/Status.h"

#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace stcfa {

/// Immutable CSR compaction of a closed subtransitive graph.
class FrozenGraph {
public:
  /// Node/label sentinel: "no such node / no label here".
  static constexpr uint32_t None = ~0u;

  /// The complete flat-table contents of a snapshot, as spans: the seam
  /// between an owned snapshot (spans into its vectors) and an
  /// mmap-backed view (spans into a read-only mapping).  `tables()`
  /// exports them (the snapshot writer's input) and `fromTables` adopts
  /// them (the snapshot loader's output).
  struct Tables {
    uint32_t NumNodes = 0, NumExprs = 0, NumVars = 0, NumLabels = 0;
    std::span<const uint32_t> OutOffsets, OutTargets, InOffsets, InTargets;
    std::span<const uint32_t> LabelAt, NodeOfExpr, NodeOfVar, LabelRoots;
    /// Per-node `ran` port (`RanOf.size() == NumNodes`, entries `None`
    /// where no ran node was materialised).
    std::span<const uint32_t> RanOf;
    std::span<const NodeOp> Ops;
    /// The Tarjan condensation map (`SccOf.size() == NumNodes`).
    std::span<const uint32_t> SccOf;
    uint32_t NumSccs = 0;
  };

  /// A renumbering applied while freezing: entry I of each order is the
  /// source graph's id for the snapshot's id I.  The snapshot's counts
  /// are the orders' sizes, so source exprs, binders and labels no order
  /// names (garbage the delta layer keeps in its arena) are invisible:
  /// such a label freezes as `None`.  Node ids are not renumbered.
  struct IdOrders {
    std::span<const uint32_t> Exprs, Vars, Labels;
  };

  /// Freezes \p G.  Requires `G.closed() && !G.aborted()` (debug
  /// assert); in release builds a violation produces an empty, inert
  /// snapshot with `status()` set instead of UB.
  explicit FrozenGraph(const SubtransitiveGraph &G);

  /// Governed freeze: like the constructor, but a wall-clock deadline
  /// covers the compaction and nothing is asserted — precondition
  /// violations, deadline expiry, and injected faults all land in
  /// `status()` with the snapshot left empty and inert.  \p Orders, when
  /// given, renumbers exprs, binders and labels (see `IdOrders`).
  FrozenGraph(const SubtransitiveGraph &G, const Deadline &D,
              const IdOrders *Orders = nullptr);

  /// Factory for the governed pipeline: returns the snapshot, or null
  /// with \p Out explaining why (`FailedPrecondition` for an unclosed or
  /// aborted graph, `DeadlineExceeded`, or an injected fault's code).
  static std::unique_ptr<FrozenGraph> freeze(const SubtransitiveGraph &G,
                                             Status &Out,
                                             const Deadline &D = {},
                                             const IdOrders *Orders = nullptr);

  /// Wraps externally owned tables — the snapshot loader's mmap — with
  /// zero copying; \p T's storage must outlive the returned snapshot.
  /// The condensation is adopted from `T.SccOf` instead of recomputed.
  static std::unique_ptr<FrozenGraph> fromTables(const Tables &T);

  /// This snapshot's tables as spans (the snapshot writer's input).
  /// Materialises the cached condensation if it has not been forced yet.
  Tables tables() const;

  /// `Ok` for a usable snapshot; the failure reason for an inert one.
  const Status &status() const { return FreezeStatus; }

  uint32_t numNodes() const { return NumNodes; }
  uint64_t numEdges() const { return OutTargets.size(); }
  /// Program-shape counts, captured at freeze time (or from the snapshot
  /// meta section) so query-side consumers never need the `Module`.
  uint32_t numExprs() const { return NumExprs; }
  uint32_t numVars() const { return NumVars; }
  uint32_t numLabels() const { return NumLabels; }

  /// Successors of node \p N (CSR row).
  std::span<const uint32_t> succs(uint32_t N) const {
    return {OutTargets.data() + OutOffsets[N],
            OutTargets.data() + OutOffsets[N + 1]};
  }
  /// Predecessors of node \p N (reverse CSR row).
  std::span<const uint32_t> preds(uint32_t N) const {
    return {InTargets.data() + InOffsets[N],
            InTargets.data() + InOffsets[N + 1]};
  }

  /// Raw CSR arrays, for the tightest query loops (the span accessors
  /// cost two offset loads per row; hot DFS loops hoist these once).
  const uint32_t *outOffsets() const { return OutOffsets.data(); }
  const uint32_t *outTargets() const { return OutTargets.data(); }
  const uint32_t *inOffsets() const { return InOffsets.data(); }
  const uint32_t *inTargets() const { return InTargets.data(); }
  const uint32_t *labelAtArray() const { return LabelAt.data(); }

  /// The abstraction label carried by node \p N, or `None`.
  uint32_t labelAt(uint32_t N) const { return LabelAt[N]; }
  NodeOp op(uint32_t N) const { return Op[N]; }

  /// The canonical node of occurrence \p E, or `None`.
  uint32_t nodeOfExpr(ExprId E) const { return NodeOfExpr[E.index()]; }
  /// The canonical node of binder \p V, or `None`.
  uint32_t nodeOfVar(VarId V) const { return NodeOfVar[V.index()]; }

  /// Reverse-search roots for label \p L: the lambda's expression node
  /// and the polyvariant label-carrier node (either may be `None`).
  std::pair<uint32_t, uint32_t> labelRoots(LabelId L) const {
    return {LabelRoots[2 * L.index()], LabelRoots[2 * L.index() + 1]};
  }

  /// The `ran(N)` port node of \p N, or `None`: a flat array persisted
  /// at freeze time (the effects analysis resolves call sites through it).
  uint32_t ranOf(uint32_t N) const {
    return N < RanOf.size() ? RanOf[N] : None;
  }

  /// Multi-source reachability over the CSR rows, the primitive under
  /// every port query: following successor edges (`Reverse` false) from a
  /// node reaches exactly the producers of the values that may flow to it
  /// (Proposition 1); following predecessor edges (`Reverse` true) from a
  /// producer reaches every node its value may flow to (Proposition 2).
  /// Roots equal to `None` are skipped.  Returns one mark bit per node.
  DenseBitset reachableFrom(std::span<const uint32_t> Roots,
                            bool Reverse = false) const;

  /// Milliseconds spent compacting (reported under `--stats`).
  double freezeMillis() const { return FreezeMs; }

  //===--- cached condensation --------------------------------------------//

  /// The SCC condensation, built on first use (thread-safe) and cached
  /// across queries; an mmap-backed view adopts it from the snapshot
  /// instead of recomputing.
  const Condensation &condensation() const;

private:
  FrozenGraph() = default; // the `fromTables` view path

  Status init(const SubtransitiveGraph &G, const Deadline &D,
              const IdOrders *Orders);
  void resetToInert();

  uint32_t NumNodes = 0, NumExprs = 0, NumVars = 0, NumLabels = 0;
  Status FreezeStatus;

  // Owned backing for the freeze path; empty for an mmap-backed view.
  std::vector<uint32_t> OutOffsetsStore, OutTargetsStore;
  std::vector<uint32_t> InOffsetsStore, InTargetsStore;
  std::vector<uint32_t> LabelAtStore;
  std::vector<NodeOp> OpStore;
  std::vector<uint32_t> NodeOfExprStore, NodeOfVarStore, LabelRootsStore;
  std::vector<uint32_t> RanOfStore;

  // The views every accessor reads: into the stores above, or into a
  // read-only file mapping (`fromTables`).
  std::span<const uint32_t> OutOffsets, OutTargets, InOffsets, InTargets;
  std::span<const uint32_t> LabelAt;
  std::span<const NodeOp> Op;
  std::span<const uint32_t> NodeOfExpr, NodeOfVar, LabelRoots, RanOf;
  double FreezeMs = 0;

  mutable std::once_flag CondOnce;
  mutable std::unique_ptr<Condensation> Cond;
};

} // namespace stcfa

#endif // STCFA_CORE_FROZENGRAPH_H
