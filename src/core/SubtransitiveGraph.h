//===-- core/SubtransitiveGraph.h - The LC' graph ---------------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution: the subtransitive control-flow graph.
///
/// Nodes are program occurrences, variable binders, and derived nodes
/// `dom(n)` / `ran(n)` (Section 3), constructor/tuple deconstructor nodes
/// `c_j^{-1}(n)` (Section 6), and — our extension for ML-style mutable
/// state — ref-cell nodes `refcell(n)`.  An edge `n1 -> n2` means
/// "anything derivable from n2 is derivable from n1"; the *transitive
/// closure* of this graph yields exactly standard CFA (Propositions 1/2):
/// `l ∈ L(e)` iff the abstraction labelled `l` is reachable from `e`.
///
/// The computation is factored exactly as in the paper:
///
///  * **build phase** (`build()`): one linear pass over the AST adding the
///    basic edges of rules ABS-1/2, APP-1/2 and their record/datatype/ref
///    analogues;
///  * **close phase** (`close()`): the demand-driven rules CLOSE-DOM' and
///    CLOSE-RAN' (and the covariant field / invariant ref-cell analogues)
///    run to fixpoint.  A derived node is *demanded* when it has an
///    incoming edge — the paper's side conditions `n -> dom(n2)` /
///    `n -> ran(n1)`.
///
/// Three closure policies are ablatable (`ClosurePolicy`), and the
/// Section 6 datatype congruences ≈1/≈2 are selectable
/// (`CongruenceMode`).  A depth widening backstop guarantees termination
/// even on inputs outside the bounded-type classes: nodes deeper than
/// `MaxNodeDepth` collapse into a `Top` summary that conservatively
/// reaches every abstraction.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_CORE_SUBTRANSITIVEGRAPH_H
#define STCFA_CORE_SUBTRANSITIVEGRAPH_H

#include "ast/Module.h"
#include "support/Deadline.h"
#include "support/Hashing.h"
#include "support/Status.h"

#include <vector>

namespace stcfa {

/// How aggressively the close phase applies CLOSE-DOM'/CLOSE-RAN'.
enum class ClosurePolicy : uint8_t {
  /// The paper's LC': a rule fires only when the derived node on its
  /// conclusion's *demand side* has an incoming edge.
  PaperExact,
  /// Relaxed demand: a rule fires as soon as the derived node exists.
  /// Sound and still bounded by the type templates; adds a few more edges.
  NodeExists,
  /// The paper's unprimed LC: derived nodes are materialised eagerly along
  /// each node's type template and closure rules fire without any demand
  /// condition.  (Ablation baseline E9.)
  Undemanded,
};

/// The Section 6 datatype congruences.
enum class CongruenceMode : uint8_t {
  /// Exact datatype tracking; termination then relies on the depth
  /// widening for recursive datatypes.
  None,
  /// ≈1: every node whose associated type is datatype T collapses into one
  /// summary node per T.  Linear node count.
  ByType,
  /// ≈2: only *deconstructor* nodes collapse, keyed by (base node, T).
  /// Strictly more precise than ≈1; up to quadratically many classes.
  ByBaseAndType,
};

/// Tuning knobs for graph construction.
struct SubtransitiveConfig {
  ClosurePolicy Policy = ClosurePolicy::PaperExact;
  CongruenceMode Congruence = CongruenceMode::ByType;
  /// Derived-node depth beyond which nodes widen into `Top`.
  uint32_t MaxNodeDepth = 64;
  /// Abort the close phase once this many nodes exist (0 = unlimited).
  /// An aborted graph must not be queried; `HybridCFA` uses this to
  /// detect programs outside the bounded-type classes and fall back to
  /// the standard algorithm (the paper's Conclusion).
  uint64_t MaxNodes = 0;
  /// Abort the close phase once this many edges exist (0 = unlimited).
  /// Catches blowups the node budget misses: congruence summaries keep
  /// the node count linear while edges grow quadratically.
  uint64_t MaxEdges = 0;
};

/// Node discriminator.
enum class NodeOp : uint8_t {
  Expr,    // payload A = ExprId
  Var,     // payload A = VarId (binder)
  Dom,     // payload A = base node
  Ran,     // payload A = base node
  Field,   // payload A = base node, B = field tag
  RefCell, // payload A = base node
  Label,   // payload A = LabelId; closure-inert label carrier (Section 7)
  Summary, // payload A = TypeId; ≈1 class representative
  Summary2,// payload A = root node, B = TypeId; ≈2 class representative
  Top,     // widening: conservatively reaches every abstraction
};

/// Per-phase size statistics (the paper's Table 1/2 node counts).
struct GraphStats {
  uint64_t BuildNodes = 0;
  uint64_t BuildEdges = 0;
  uint64_t CloseNodes = 0;
  uint64_t CloseEdges = 0;
  /// Closure-rule firings attempted (machine-independent work measure).
  uint64_t CloseRuleFirings = 0;
  /// Number of times the depth widening engaged.
  uint64_t Widenings = 0;

  uint64_t totalNodes() const { return BuildNodes + CloseNodes; }
  uint64_t totalEdges() const { return BuildEdges + CloseEdges; }
};

/// The subtransitive control-flow graph for one module.
///
/// Usage:
/// \code
///   SubtransitiveGraph G(M);
///   G.build();   // linear pass
///   G.close();   // demand-driven closure
///   FrozenGraph F(G);
///   QueryEngine Q(F);
///   DenseBitset L = Q.labelsOf(SomeExpr);
/// \endcode
class SubtransitiveGraph {
public:
  explicit SubtransitiveGraph(const Module &M,
                              SubtransitiveConfig Config = {});

  /// Adds the basic edges (one linear pass over the AST).
  void build();

  /// Builds only the subtree rooted at \p FragmentRoot — used by the
  /// polyvariant summariser (Section 7) to analyse a function in
  /// isolation.
  void buildFragment(ExprId FragmentRoot);

  /// Declares binders whose def-use flow is handled externally: `build()`
  /// skips the `occurrence -> binder` and `binder -> initializer` edges
  /// for them (the polyvariant instantiation supplies the flow instead).
  /// Must be called before `build()`.
  void setExternalizedVars(std::vector<bool> Flags);

  /// Marks \p N demanded regardless of incoming edges, so the close phase
  /// saturates every rule around it.  The summariser uses this to force
  /// all interface paths of a fragment.
  void forceDemand(NodeId N) { setDemanded(N); }

  /// Runs the demand-driven closure to fixpoint, governed by the config
  /// budgets (`MaxNodes`/`MaxEdges`), a wall-clock deadline, and a
  /// cooperative cancellation token.  Budgets are checked every
  /// iteration (O(1) compares); the clock, the token, and the registered
  /// fault points are polled once per governor stride so the fixpoint
  /// loop stays tight.  On any governed stop the graph is marked
  /// `aborted()` and the returned status says why
  /// (`ResourceExhausted` / `DeadlineExceeded` / `Cancelled` /
  /// `OutOfMemory` under injection).
  Status close(const Deadline &D, const CancellationToken &Token = {});

  /// Ungoverned closure (legacy entry point): no deadline, no token.
  void close() { (void)close(Deadline::infinite()); }

  /// Why the last `close()` stopped (`Ok` after a clean fixpoint).
  const Status &closeStatus() const { return CloseStatus; }

  /// True when `close()` hit a budget, the deadline, or a cancellation
  /// request and stopped early; the graph is then incomplete and must
  /// not be queried.
  bool aborted() const { return Aborted; }

  /// True once `close()` has run to fixpoint at least once; the freeze
  /// precondition (`FrozenGraph` snapshots only closed graphs).
  bool closed() const { return Closed; }

  /// Incremental use (the paper: "simple, incremental, demand-driven"):
  /// edges may be added after a `close()` — via `addEdge`, the polyvariant
  /// instantiation, or `buildMoreFragment` below — and a further `close()`
  /// extends the fixpoint.  The worklist remembers its cursor, so the
  /// extra cost is proportional to the *new* consequences only.
  ///
  /// Adds the basic build edges for one more subtree (e.g. a newly loaded
  /// definition) into an already-built graph.
  void addFragment(ExprId FragmentRoot) {
    assert(Built && "addFragment() before build()/buildFragment()");
    forEachExprPreorder(M, FragmentRoot,
                        [&](ExprId Id, const Expr *E) { buildExpr(Id, E); });
  }

  //===--- node access -----------------------------------------------------//

  const Module &module() const { return M; }
  const SubtransitiveConfig &config() const { return Config; }
  const GraphStats &stats() const { return Stats; }

  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }

  NodeOp op(NodeId N) const { return Nodes[N.index()].Op; }
  uint32_t payloadA(NodeId N) const { return Nodes[N.index()].A; }
  uint32_t payloadB(NodeId N) const { return Nodes[N.index()].B; }
  /// The type associated with \p N (drives congruences; may be invalid).
  TypeId nodeType(NodeId N) const { return Nodes[N.index()].Type; }

  /// Edges live in one pooled arena; adjacency is an intrusive singly
  /// linked list per node (new edges prepend, so a captured range is a
  /// stable snapshot even while edges are being added).
  struct EdgeRec {
    NodeId From;
    NodeId To;
    uint32_t NextOut;
    uint32_t NextIn;
  };

  /// Iterates the successors (or predecessors) of one node.
  class EdgeRange {
  public:
    class iterator {
    public:
      iterator(const std::vector<EdgeRec> *Pool, uint32_t Index, bool OutDir)
          : Pool(Pool), Index(Index), OutDir(OutDir) {}
      NodeId operator*() const {
        const EdgeRec &E = (*Pool)[Index];
        return OutDir ? E.To : E.From;
      }
      iterator &operator++() {
        const EdgeRec &E = (*Pool)[Index];
        Index = OutDir ? E.NextOut : E.NextIn;
        return *this;
      }
      bool operator!=(const iterator &O) const { return Index != O.Index; }
      bool operator==(const iterator &O) const { return Index == O.Index; }

    private:
      const std::vector<EdgeRec> *Pool;
      uint32_t Index;
      bool OutDir;
    };

    EdgeRange(const std::vector<EdgeRec> *Pool, uint32_t Head, bool OutDir)
        : Pool(Pool), Head(Head), OutDir(OutDir) {}
    iterator begin() const { return iterator(Pool, Head, OutDir); }
    iterator end() const { return iterator(Pool, NoEdge, OutDir); }

  private:
    const std::vector<EdgeRec> *Pool;
    uint32_t Head;
    bool OutDir;
  };

  EdgeRange succs(NodeId N) const {
    return EdgeRange(&Edges, Nodes[N.index()].FirstOut, /*OutDir=*/true);
  }
  EdgeRange preds(NodeId N) const {
    return EdgeRange(&Edges, Nodes[N.index()].FirstIn, /*OutDir=*/false);
  }

  /// Pool entry \p I in creation order (a delta retraction leaves an
  /// invalid `From`/`To` tombstone in place).
  const EdgeRec &edgeAt(uint32_t I) const { return Edges[I]; }

  /// The canonical node of an expression occurrence (may be a congruence
  /// summary under ≈1).
  NodeId exprNode(ExprId E);
  /// The canonical node of a variable binder.
  NodeId varNode(VarId V);
  /// Derived nodes; created (and canonicalized) on demand.
  NodeId domNode(NodeId Base);
  NodeId ranNode(NodeId Base);
  NodeId refCellNode(NodeId Base);
  /// Deconstructor node for field \p Index of constructor \p Con.
  NodeId conFieldNode(ConId Con, uint32_t Index, NodeId Base);
  /// Deconstructor node for tuple field \p Index (0-based).
  NodeId tupleFieldNode(uint32_t Index, NodeId Base);
  /// Closure-inert label carrier (used by the polyvariant instantiation).
  NodeId labelNode(LabelId L);

  /// If \p N carries an abstraction label (a lambda's expression node or a
  /// `Label` node), returns it; otherwise returns an invalid id.
  LabelId labelOf(NodeId N) const;

  /// Adds an edge (public for the polyvariant instantiation, Section 7).
  /// Safe to call before `close()`; new edges participate in the closure.
  void addEdge(NodeId A, NodeId B);

  /// Renders a node for debugging, e.g. `dom(fn@3)`.
  std::string describe(NodeId N) const;

  /// The canonical node of \p E if it exists (queries run post-build and
  /// must not create nodes); invalid otherwise.
  NodeId lookupExprNode(ExprId E) const {
    return E.index() < NodeOfExpr.size() ? NodeOfExpr[E.index()]
                                         : NodeId::invalid();
  }
  NodeId lookupVarNode(VarId V) const {
    return V.index() < NodeOfVar.size() ? NodeOfVar[V.index()]
                                        : NodeId::invalid();
  }

  /// The label-carrier node for \p L if one was created (polyvariant
  /// instantiation); invalid otherwise.
  NodeId lookupLabelNode(LabelId L) const;

  /// Finds an existing derived node without creating it: the canonical
  /// `ran(Base)` / `dom(Base)` / `refcell(Base)` (Tag 0) or field node.
  /// Returns an invalid id if it was never materialised.
  NodeId lookupDerived(NodeOp Op, NodeId Base, uint32_t Tag = 0) const;

  //===--- incremental surgery (src/delta) ---------------------------------//
  //
  // The edit-delta layer retracts a definition's base edges and re-closes
  // from the frontier instead of rebuilding.  These entry points exist for
  // that layer only; the analysis pipeline never calls them.

  /// While set, every `addEdge` *attempt* (including duplicates the edge
  /// set already holds, excluding self-loops) is appended to \p J.  The
  /// delta layer records each definition's base edges this way and
  /// refcounts them across definitions.
  void setEdgeJournal(std::vector<std::pair<NodeId, NodeId>> *J) {
    Journal = J;
  }

  /// True iff the edge A -> B is currently present.  Scans the shorter
  /// of A's out-list and B's in-list, or probes the hub set when both
  /// exceed `HubDegree`.
  bool hasEdge(NodeId A, NodeId B) const;

  /// Physically unlinks A -> B: both intrusive adjacency lists, the hub
  /// set, and the pool entry (tombstoned in place; the close cursor skips
  /// it).  No-op when the edge is absent.  O(deg(A) + deg(B)).
  void removeEdgeForDelta(NodeId A, NodeId B);

  /// Appends the one-step rule conclusions the edge (A, B) could have
  /// produced *and that currently exist*: the retraction cone expands
  /// through these until it hits edges that survive for another reason.
  void appendConsequencesForDelta(NodeId A, NodeId B,
                                  std::vector<std::pair<NodeId, NodeId>> &Out)
      const;

  /// Re-enqueues every registered (op, base, tag) alias of \p N for demand
  /// reprocessing, so the next `close()` re-derives all conclusions still
  /// supported by surviving edges around \p N.
  void requeueAliasesForDelta(NodeId N);

  /// Grows the per-module tables after the `Module` gained exprs/vars
  /// (the delta layer appends definition subtrees to a live module).
  /// Existing entries are preserved; new binders get invalid types, which
  /// only disables the datatype congruence for them — the delta fast path
  /// is gated to data-free programs where that is identity-neutral.
  void notifyModuleGrown();

  /// True when the depth widening has engaged (a `Top` node exists).  The
  /// delta layer treats this as outside its exactness envelope and falls
  /// back to a full rebuild.
  bool hasTopNode() const { return Top.isValid(); }

  /// Current size of the edge pool, tombstones included (delta metrics).
  uint64_t edgePoolSize() const { return Edges.size(); }

private:
  //===--- construction internals -------------------------------------------//

  /// One (op, base, tag) request that resolved to a (possibly shared)
  /// canonical node; demand events scan the base's edges per alias.
  struct Alias {
    NodeOp Op;
    NodeId Base;
    uint32_t Tag;
  };

  static constexpr uint32_t NoEdge = ~0u;
  /// End of a pooled field or alias list.
  static constexpr uint32_t NoLink = ~0u;
  /// Out-degree past which a source keeps its out-edges in `HubEdges`
  /// too, so deduplicating an edge between two hubs is one probe instead
  /// of a list scan.  Bounded-type programs keep almost every node far
  /// below it; `Top` and the ≈1 summaries are the hubs.
  static constexpr uint32_t HubDegree = 16;

  enum NodeFlag : uint8_t {
    Demanded = 1,
    Created = 2,
    InvolvesDecon = 4,
    Materialized = 8,
    Hub = 16,
  };

  /// One node: identity, congruence bookkeeping, the derived-node caches
  /// (the close phase's hot path; a valid entry means the (op, base)
  /// alias is registered) and the heads of its adjacency, field and
  /// alias lists.
  struct NodeRec {
    NodeOp Op;
    uint8_t Flags;
    uint32_t A, B;
    TypeId Type;
    NodeId Root;
    uint32_t Depth;
    NodeId Dom, Ran, RefCell;
    uint32_t FirstOut, FirstIn;
    uint32_t OutDeg, InDeg;
    uint32_t FirstField;
    uint32_t FirstAlias, LastAlias;
  };
  static_assert(sizeof(NodeRec) == 64, "one cache line per node");
  /// A resolved field request `(tag, node)` of one base; lists append at
  /// the tail, so they iterate in registration order.
  struct FieldLink {
    uint32_t Tag;
    NodeId Node;
    uint32_t Next;
  };
  struct AliasLink {
    Alias A;
    uint32_t Next;
  };

  bool has(NodeId N, NodeFlag F) const { return Nodes[N.index()].Flags & F; }
  void set(NodeId N, NodeFlag F) { Nodes[N.index()].Flags |= F; }

  void reserveNodes(size_t Expected);
  /// Appends a node no other request can name (the callers' caches
  /// answer every later request for it).
  NodeId newNode(NodeOp Op, uint32_t A, uint32_t B);
  /// Hash-conses the shared keys: summaries and label carriers.
  NodeId sharedNode(NodeOp Op, uint32_t A, uint32_t B);
  NodeId findField(NodeId Base, uint32_t Tag) const;
  /// The pool index of A -> B, or `NoEdge`.
  uint32_t findEdge(NodeId A, NodeId B) const;
  static uint64_t edgeKey(NodeId A, NodeId B) {
    return (uint64_t(A.index()) + 1) << 32 | (uint64_t(B.index()) + 1);
  }
  NodeId canonicalizeBase(TypeId Ty, NodeOp Op, uint32_t Payload,
                          std::vector<NodeId> &NodeOf);
  NodeId derived(NodeOp Op, NodeId Base, uint32_t Tag);
  NodeId topNode();
  TypeId derivedType(NodeOp Op, NodeId Base, uint32_t Tag) const;
  bool isDataType(TypeId Ty) const;
  void onCreate(NodeId N);
  void setDemanded(NodeId N);
  void materializeTemplate(NodeId N);
  void processEdge(NodeId A, NodeId B);
  void processDemand(const Alias &A);
  void buildExpr(ExprId Id, const Expr *E);
  void buildFrom(ExprId Root);

  const Module &M;
  SubtransitiveConfig Config;
  GraphStats Stats;

  std::vector<NodeRec> Nodes;
  std::vector<EdgeRec> Edges;
  std::vector<FieldLink> Fields;
  std::vector<AliasLink> Aliases;
  /// Summary, Summary2 and Label nodes by (op, payloads).
  U64Map NodeIndex;
  /// Every edge whose source is a hub.
  U64Set HubEdges;
  /// Delta-layer journal of addEdge attempts (null when inactive).
  std::vector<std::pair<NodeId, NodeId>> *Journal = nullptr;
  /// Edges are processed in pool order; this is the work cursor.
  uint32_t NextUnprocessedEdge = 0;
  std::vector<Alias> PendingDemand;
  size_t DemandCursor = 0;

  std::vector<NodeId> NodeOfExpr;
  std::vector<NodeId> NodeOfVar;
  /// Binder types (computed once; used for node canonicalization).
  std::vector<TypeId> VarType;
  /// Binders whose flow the polyvariant layer supplies externally.
  std::vector<bool> Externalized;

  bool InClosePhase = false;
  bool Built = false;
  bool Closed = false;
  bool Aborted = false;
  Status CloseStatus;
  NodeId Top = NodeId::invalid();
};

} // namespace stcfa

#endif // STCFA_CORE_SUBTRANSITIVEGRAPH_H
