//===-- poly/Polyvariant.h - Section 7 polyvariant extension ----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7: polyvariance by graph-fragment summarisation.
///
/// For each *closed*, non-recursive, let-bound abstraction, the function
/// is analysed once in isolation: a fragment graph is built over its
/// subtree, every interface path (the `dom`/`ran`/tuple-field positions of
/// the function's type tree — the paper's "critical nodes") is forced
/// demanded, and the fragment is closed.  The summary is the reachability
/// relation among interface paths plus the abstraction labels visible at
/// each path.  Every occurrence of the function then *instantiates* the
/// summary anchored at the occurrence node — the paper's "copying" of the
/// simplified, parameterized graph — with labels attached through
/// closure-inert `Label` nodes, so instances never flow into each other
/// through the shared body.
///
/// Free variables of a candidate are handled as *shared anchors*: the
/// fragment's derived nodes rooted at a free binder are not copied — the
/// summary records flows between interface paths and those shared nodes,
/// and every instantiation reconnects to the very same binder nodes of
/// the main graph.  (This is the paper's remark that the reachability
/// underlying simplification must keep context-visible nodes.)
///
/// Candidates are disqualified (falling back to shared monovariant flow)
/// when they mention datatypes or refs in their type, recurse, exceed the
/// path budget, or have more occurrences than the duplication budget —
/// the paper's global bound that keeps the polyvariant analysis linear.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_POLY_POLYVARIANT_H
#define STCFA_POLY_POLYVARIANT_H

#include "core/SubtransitiveGraph.h"

#include <memory>

namespace stcfa {

/// Tuning knobs for the polyvariant layer.
struct PolyConfig {
  /// Maximum interface paths per summary; larger types fall back.
  uint32_t MaxSummaryPaths = 64;
  /// Maximum occurrences instantiated per candidate (the duplication
  /// budget); functions used more often fall back to monovariant flow.
  uint32_t MaxOccurrences = 32;
};

/// Outcome counters.
struct PolyStats {
  uint32_t Candidates = 0;
  uint32_t Summarized = 0;
  uint32_t Instantiations = 0;
  uint32_t Fallbacks = 0;
};

/// Orchestrates the polyvariant analysis: builds the main graph with
/// candidate def-use flow externalized, instantiates summaries, closes.
/// Query the result by freezing `graph()` into a `FrozenGraph` as usual.
class PolyvariantCFA {
public:
  explicit PolyvariantCFA(const Module &M, SubtransitiveConfig GraphConfig = {},
                          PolyConfig Config = {});

  /// Runs the whole pipeline (summaries, build, instantiation, close).
  void run();

  const SubtransitiveGraph &graph() const { return *Main; }
  const PolyStats &stats() const { return Stats; }

private:
  /// Anchor-to-anchor reachability plus the labels at each anchor.
  struct Summary {
    /// One derivation step (dom, ran, or tuple field).
    struct Step {
      NodeOp Op;
      uint32_t Tag;
    };
    /// An anchor: a step path over the per-instance occurrence node (when
    /// `Shared` is invalid) or over the *shared* binder node of a free
    /// variable (when valid).
    struct Anchor {
      VarId Shared;
      std::vector<Step> Path;
    };
    std::vector<Anchor> Anchors;
    std::vector<std::pair<uint32_t, uint32_t>> Edges;
    std::vector<std::pair<uint32_t, LabelId>> AnchorLabels;
  };

  std::vector<VarId> freeVarsOf(ExprId Lam) const;
  bool enumeratePaths(TypeId Ty, VarId Shared,
                      std::vector<Summary::Step> &Prefix, Summary &S) const;
  bool summarize(ExprId Lam, Summary &S) const;
  NodeId materializePath(SubtransitiveGraph &G, NodeId Anchor,
                         const std::vector<Summary::Step> &Path) const;
  void instantiate(const Summary &S, NodeId Anchor);

  const Module &M;
  SubtransitiveConfig GraphConfig;
  PolyConfig Config;
  PolyStats Stats;
  std::unique_ptr<SubtransitiveGraph> Main;
  bool HasRun = false;
};

} // namespace stcfa

#endif // STCFA_POLY_POLYVARIANT_H
