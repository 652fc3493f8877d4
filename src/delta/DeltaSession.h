//===-- delta/DeltaSession.h - Incremental edit deltas ----------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental update layer behind the daemon's `edit` verb: instead
/// of re-running parse -> close -> freeze over the whole program, an edit
/// of one top-level definition re-parses only that definition's text,
/// diffs its base edges against the old definition's, retracts the
/// removed edges together with the cone of derived consequences they
/// supported, and resumes the demand-driven closure from the retraction
/// frontier.  This exploits exactly the property the paper advertises —
/// the subtransitive closure is "simple, incremental, demand-driven" —
/// so a single-definition edit costs work proportional to the edit's
/// consequences, not to the program.
///
/// ## The shadow module
///
/// The session keeps a *shadow* `Module` that only ever grows: replacing
/// a definition appends the replacement's subtree and leaves the old
/// subtree as unreachable garbage (expression arenas have no free lists,
/// and node ids must stay stable because the graph's nodes reference
/// them).  Clients, however, speak *canonical* ids — the ids a fresh
/// parse of the current source text would assign.  The session keeps
/// each definition's shadow expr, binder and label ids in creation order
/// (fragment re-parses reproduce `parseProgram`'s relative creation
/// order, which the parser documents as a contract); `freezeView`
/// concatenates them into canonical->shadow orders and applies them while
/// freezing, so a published `DeltaView` speaks canonical ids only and the
/// serve layer never translates.  When the shadow arena outgrows the
/// canonical program by `Options::MaxBloat`, the session compacts by
/// rebuilding from source (counted as `delta.compactions`).
///
/// ## Base-edge refcounts and the retraction cone
///
/// Every definition's `addEdge` *attempts* are journaled at build time
/// (`SubtransitiveGraph::setEdgeJournal`) and refcounted across
/// definitions: an edge is physically retracted only when its last
/// owning definition drops it.  A retracted base edge seeds a DRed-style
/// deletion cone: `appendConsequencesForDelta` enumerates the one-step
/// rule conclusions the edge could have produced, each of which is
/// deleted in turn unless a surviving base edge still owns it.  Deleted
/// endpoints' aliases are then re-queued (`requeueAliasesForDelta`) and
/// a governed `close()` re-derives every conclusion the surviving edges
/// still support.  Over-deletion is impossible to observe: re-derivation
/// is a fixpoint of the same rules, and any conservatively *kept* stale
/// edge has a derived source unreachable from every live occurrence, so
/// reachability answers (Propositions 1/2) are unaffected.
///
/// ## Exactness envelope and the fallback ladder
///
/// The fast path is gated to programs where delta answers are provably
/// identical to a from-scratch rebuild:
///
///   * no `data` declarations (type-driven congruence summaries would
///     make node identity depend on global inference; without data
///     types, `CongruenceMode::ByType` is identity-neutral), and
///   * no depth widening (`hasTopNode()`): the `Top` summary's edges are
///     not enumerable through the per-rule cone.
///
/// Outside the envelope — or when the governed re-close aborts (budget,
/// deadline, injected fault) — the session falls back: inside the
/// envelope-by-construction cases it rebuilds its own pipeline from the
/// spliced source (`delta.fallback_full`); for `data` programs it keeps
/// text-splicing only and tells the caller to run the full load pipeline
/// (`ApplyResult::NeedsFullPipeline`).  Either way the answers served
/// are the answers a fresh rebuild would give — a governed abort is
/// never a wrong answer.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_DELTA_DELTASESSION_H
#define STCFA_DELTA_DELTASESSION_H

#include "ast/Module.h"
#include "core/FrozenGraph.h"
#include "core/SubtransitiveGraph.h"
#include "support/Status.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace stcfa {

/// A self-contained, immutable view of one edit epoch, ready to be
/// installed by the serve layer: the frozen snapshot keeps no reference
/// to the session's live graph (queries never race the next edit's graph
/// surgery), and it is already in canonical numbering — its exprs,
/// binders and labels are the ids a fresh parse of the current source
/// assigns, and garbage shadow ids are not in it at all.
struct DeltaView {
  std::unique_ptr<FrozenGraph> Frozen;

  /// Canonical program shape (what a fresh parse would report).
  uint32_t NumExprs = 0;
  uint32_t NumLabels = 0;
};

/// One incremental edit request, addressed by definition name or by the
/// 1-based source line on which the definition's text starts.
struct EditRequest {
  enum class Op : uint8_t {
    Insert,      ///< add a definition (before `Before`, or last)
    Delete,      ///< remove the named definition
    Replace,     ///< swap the named definition's text (same name)
    ReplaceBody, ///< swap the program body expression
    Rename,      ///< rename a definition and all its references
  };
  Op Kind = Op::Replace;
  /// Target definition name (all ops except ReplaceBody/anonymous
  /// Insert); empty when `Line` addresses the target instead.
  std::string Name;
  /// 1-based source line addressing (0 = unused): the definition whose
  /// text begins on this line.
  uint32_t Line = 0;
  /// Insert position: the name of the definition to insert before;
  /// empty = append after the last definition.
  std::string Before;
  /// New definition text (`let f = ...;`) for Insert/Replace, or the
  /// new body expression for ReplaceBody.
  std::string Text;
  /// New identifier for Rename.
  std::string NewName;
};

/// What one `apply` did, for the reply and the metrics.
struct ApplyResult {
  /// How the edit was served.
  enum class Mode : uint8_t {
    Delta,        ///< incremental fast path (retract + re-close)
    Metadata,     ///< rename fast path (no graph change)
    FullRebuild,  ///< session rebuilt its own pipeline from source
    FullPipeline, ///< caller must run the full load pipeline
  };
  Mode M = Mode::Delta;
  /// Graph nodes incident to a retracted edge (`delta.dirty_nodes`).
  uint64_t DirtyNodes = 0;
  /// Edges the governed re-close added back (`delta.reclose_edges`).
  uint64_t RecloseEdges = 0;
  /// True when the caller must rebuild via the full load pipeline and
  /// install the result itself; the session has already spliced its
  /// source text (`currentSource()` is the input to that rebuild).
  bool NeedsFullPipeline = false;
};

/// One live editable program: the authoritative per-definition source
/// texts plus (inside the exactness envelope) the shadow module, the
/// mutable closed graph, and the per-definition edge journals.
///
/// Thread safety: none.  The daemon drives a session from its single
/// reader thread; published `DeltaView`s are immutable and independent.
class DeltaSession {
public:
  struct Options {
    /// Analysis configuration.  A `Config.MaxNodes` of 0 is replaced at
    /// `create` time with a budget derived from the program size, so an
    /// edit that makes the closure diverge (ill-typed application
    /// cycles branch exponentially below the depth widening) aborts
    /// into the fallback ladder instead of running unbounded.
    SubtransitiveConfig Config;
    /// Worker lanes for the published views' query engines.
    unsigned Threads = 1;
    /// Governed re-close budget per edit; 0 = no deadline.
    uint64_t CloseDeadlineMillis = 0;
    /// Shadow-arena growth factor that triggers compaction: rebuild
    /// when `shadow exprs > MaxBloat * canonical exprs`.
    double MaxBloat = 4.0;
  };

  /// Builds a session over \p Source.  Returns null with \p Out set when
  /// the program does not parse (the daemon only creates sessions from
  /// sources that already loaded, so this is defensive).
  static std::unique_ptr<DeltaSession> create(std::string_view Source,
                                              const Options &O, Status &Out);

  ~DeltaSession();

  /// Applies one edit.  On success the session's source text and (on the
  /// fast paths) graph reflect the edit; call `freezeView` to publish.
  /// On failure the session is unchanged — a rejected edit (unknown
  /// name, fragment parse error, deleting a still-referenced
  /// definition) never corrupts the session.
  Status apply(const EditRequest &R, ApplyResult &Res);

  /// Publishes the current state as a self-contained immutable view.  Invalid
  /// after an apply that returned `NeedsFullPipeline` (the session then
  /// has no graph; rebuild via the full pipeline instead).
  Status freezeView(DeltaView &Out);

  /// The current program text: definition texts and the body, joined in
  /// order.  A fresh parse of this is the canonical program.
  std::string currentSource() const;

  /// Canonical program shape (fresh-parse counts).
  uint32_t numExprs() const;
  uint32_t numLabels() const;

  /// Number of top-level definitions currently in the program.
  uint32_t numDefs() const { return static_cast<uint32_t>(Defs.size()); }
  /// The name of definition \p I (textual order).
  const std::string &defName(uint32_t I) const { return Defs[I].Name; }
  /// The authoritative item text of definition \p I, e.g. `let f = ...;`.
  const std::string &defText(uint32_t I) const { return Defs[I].Text; }

  /// True when the session can serve edits incrementally; false for
  /// programs outside the exactness envelope (`data` declarations),
  /// where every apply returns `NeedsFullPipeline`.
  bool incremental() const { return !TextOnly; }

private:
  DeltaSession() = default;

  /// One top-level definition (or, for `Body`, the program body).
  struct DefRecord {
    std::string Text; ///< authoritative item text, e.g. `let f = ...;`
    std::string Name;
    bool IsRec = false;
    VarId Binder = VarId::invalid();
    ExprId Init = ExprId::invalid();  ///< shadow init-subtree root
    ExprId Spine = ExprId::invalid(); ///< shadow spine `LetExpr`
    /// Shadow ids of the init subtree, in creation (= canonical) order.
    std::vector<uint32_t> Exprs;
    std::vector<uint32_t> Labels;
    /// Shadow binders the subtree's parse created, in creation order;
    /// `Binder` itself is not among them (`freezeView` places it).
    std::vector<uint32_t> Vars;
    /// Binders of *other* definitions this subtree references.
    std::vector<uint32_t> ExternalRefs;
    /// Journaled `addEdge` attempts owned by this definition.
    std::vector<std::pair<NodeId, NodeId>> BaseEdges;
  };

  /// The shadow module's expr/label/binder counts before a fragment parse.
  struct IdMarks {
    uint32_t Exprs, Labels, Vars;
  };
  IdMarks marks() const {
    return {M->numExprs(), M->numLabels(), M->numVars()};
  }
  /// Records the ids a fragment parse created since \p From as \p D's.
  void recordIds(DefRecord &D, const IdMarks &From) const;

  // Construction / rebuild.
  Status initFromTexts();
  void destroyShadowState();
  void relinkSpine();
  std::vector<std::pair<Symbol, VarId>> envBefore(size_t DefIndex) const;
  void collectExternalRefs(const DefRecord &D, ExprId SubtreeRoot,
                           std::vector<uint32_t> &Out) const;

  // Edge bookkeeping.
  void addRefs(const std::vector<std::pair<NodeId, NodeId>> &J);
  void dropRefs(const std::vector<std::pair<NodeId, NodeId>> &J,
                std::vector<std::pair<NodeId, NodeId>> &Retracted);
  /// DRed deletion: retracts \p Seeds and their unsupported consequence
  /// cone, re-queues the frontier, and reports dirty-node count.
  uint64_t retractCone(std::vector<std::pair<NodeId, NodeId>> Seeds);

  // Edit steps (fast path); each returns the edit's validity.
  Status editReplace(const EditRequest &R, size_t Idx, ApplyResult &Res);
  Status editInsert(const EditRequest &R, ApplyResult &Res);
  Status editDelete(size_t Idx, ApplyResult &Res);
  Status editReplaceBody(const EditRequest &R, ApplyResult &Res);
  Status editRename(const EditRequest &R, size_t Idx, ApplyResult &Res);
  Status validateRename(const EditRequest &R, size_t Idx) const;

  /// Text-splice path for sessions outside the envelope: validate the
  /// spliced candidate by re-parsing, commit, and request a full reload.
  Status applyTextOnly(const EditRequest &R, size_t Idx, ApplyResult &Res);

  /// Re-journals the spine/body chain edges after a structural edit and
  /// retracts whatever the old chain exclusively supported.
  uint64_t rebuildChain();
  bool shadowBloated() const;
  Status compactRebuild(ApplyResult &Res);

  /// Re-closes after surgery; on a governed abort or widening, rebuilds
  /// from source (`delta.fallback_full`).
  Status recloseOrFallback(ApplyResult &Res);
  /// Full in-session rebuild from the authoritative texts.
  Status rebuildFromTexts(ApplyResult &Res, ApplyResult::Mode Why);

  Status resolveTarget(const EditRequest &R, bool NeedsDef, size_t &Idx) const;

  Options Opts;
  bool TextOnly = false; ///< outside the envelope: splice text only

  std::vector<DefRecord> Defs; ///< textual order
  DefRecord Body;              ///< Name/Binder/Spine unused

  // Shadow pipeline (absent in TextOnly mode).
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  /// Refcounts of journaled base edges, keyed like the graph's edge set.
  U64Map EdgeRefs;
  /// The installed spine/body chain edges (one journal, rebuilt per
  /// structural edit): `spine_k -> spine_{k+1}` and `spine_last -> body`.
  std::vector<std::pair<NodeId, NodeId>> ChainEdges;
};

} // namespace stcfa

#endif // STCFA_DELTA_DELTASESSION_H
