//===-- core/Compression.h - Chain-compressed query graph ------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The implementation improvement the paper's Section 10 proposes:
/// "taking advantage of the many nodes that have only one outgoing edge".
///
/// After the close phase, long label-free chains (variable hops,
/// `let`-spines, `ran`-ladders) dominate the graph.  `CompressedGraph`
/// collapses every label-free node with exactly one successor into that
/// successor's representative and rebuilds a condensed adjacency over the
/// kept nodes.  Queries over the compressed graph return exactly the
/// same label sets, with proportionally fewer nodes visited.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_CORE_COMPRESSION_H
#define STCFA_CORE_COMPRESSION_H

#include "core/SubtransitiveGraph.h"
#include "support/DenseBitset.h"

#include <vector>

namespace stcfa {

/// A query-only condensation of a closed subtransitive graph.
class CompressedGraph {
public:
  explicit CompressedGraph(const SubtransitiveGraph &G);

  /// Labels reachable from occurrence \p E (same result as reachability
  /// over the uncompressed graph, fewer nodes visited).
  DenseBitset labelsOf(ExprId E);

  /// Labels reachable from binder \p V.
  DenseBitset labelsOfVar(VarId V);

  /// Nodes kept after compression.
  uint32_t numKeptNodes() const { return NumKept; }
  /// Nodes in the original graph (for the compression-ratio report).
  uint32_t numOriginalNodes() const {
    return static_cast<uint32_t>(Rep.size());
  }
  /// Nodes touched by queries so far.
  uint64_t nodesVisited() const { return Visited; }

private:
  DenseBitset labelsFrom(NodeId Original);

  const Module &M;
  /// original node -> representative kept node.
  std::vector<NodeId> Rep;
  /// kept-node adjacency (indexed by original id of the kept node).
  std::vector<std::vector<NodeId>> Succs;
  std::vector<LabelId> LabelAt;
  std::vector<NodeId> ExprRep;
  std::vector<NodeId> VarRep;
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 0;
  uint32_t NumKept = 0;
  uint64_t Visited = 0;
};

} // namespace stcfa

#endif // STCFA_CORE_COMPRESSION_H
