//===-- core/SubtransitiveGraph.cpp - The LC' graph -----------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/SubtransitiveGraph.h"

#include "ast/Printer.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace stcfa;

namespace {

// Field tags pack (is-tuple, constructor-or-arity, index) into 28 bits, the
// width `nodeKey` gives each payload.
constexpr uint32_t TagTupleBit = 1u << 27;

uint32_t packTag(bool IsTuple, uint32_t ConOrArity, uint32_t Index) {
  assert(ConOrArity < (1u << 15) && Index < (1u << 12) &&
         "field tag out of range");
  return (IsTuple ? TagTupleBit : 0u) | (ConOrArity << 12) | Index;
}

bool tagIsTuple(uint32_t Tag) { return (Tag & TagTupleBit) != 0; }
uint32_t tagConOrArity(uint32_t Tag) { return (Tag >> 12) & 0x7fff; }
uint32_t tagIndex(uint32_t Tag) { return Tag & 0xfff; }

uint64_t nodeKey(NodeOp Op, uint32_t A, uint32_t B) {
  assert(A < (1u << 28) && B < (1u << 28) && "node payload out of range");
  // +1 keeps the key non-zero (U64Map reserves 0).
  return ((uint64_t(Op) << 56) | (uint64_t(A) << 28) | B) + 1;
}

} // namespace

SubtransitiveGraph::SubtransitiveGraph(const Module &M,
                                       SubtransitiveConfig Config)
    : M(M), Config(Config) {
  // Binder types for node canonicalization, derived from inferred
  // occurrence types (invalid entries are fine: they just disable the
  // datatype congruence for that binder).
  VarType.assign(M.numVars(), TypeId::invalid());
  const TypeTable &TT = M.types();
  for (uint32_t I = 0, E = M.numVars(); I != E; ++I) {
    ExprId Binder = M.var(VarId(I)).Binder;
    if (!Binder.isValid())
      continue;
    const Expr *B = M.expr(Binder);
    if (const auto *Lam = dyn_cast<LamExpr>(B)) {
      TypeId LamTy = Lam->type();
      if (LamTy.isValid() && TT.type(LamTy).Kind == TypeKind::Arrow)
        VarType[I] = TT.arg(LamTy, 0);
    } else if (const auto *Let = dyn_cast<LetExpr>(B)) {
      if (Let->var() == VarId(I))
        VarType[I] = M.expr(Let->init())->type();
    } else if (const auto *Case = dyn_cast<CaseExpr>(B)) {
      for (const CaseArm &Arm : Case->arms())
        for (size_t J = 0; J != Arm.Binders.size(); ++J)
          if (Arm.Binders[J] == VarId(I))
            VarType[I] = M.con(Arm.Con).ArgTypes[J];
    }
  }
}

void SubtransitiveGraph::reserveNodes(size_t Expected) {
  Nodes.reserve(Expected);
  Edges.reserve(Expected * 2);
  Aliases.reserve(Expected);
}

bool SubtransitiveGraph::isDataType(TypeId Ty) const {
  return Ty.isValid() && M.types().type(Ty).Kind == TypeKind::Data;
}

NodeId SubtransitiveGraph::newNode(NodeOp Op, uint32_t A, uint32_t B) {
  NodeId N(static_cast<uint32_t>(Nodes.size()));
  Nodes.push_back({Op, 0, A, B, TypeId::invalid(), N, 0, NodeId::invalid(),
                   NodeId::invalid(), NodeId::invalid(), NoEdge, NoEdge, 0,
                   0, NoLink, NoLink, NoLink});
  if (InClosePhase)
    ++Stats.CloseNodes;
  else
    ++Stats.BuildNodes;
  return N;
}

NodeId SubtransitiveGraph::sharedNode(NodeOp Op, uint32_t A, uint32_t B) {
  uint32_t &Slot = NodeIndex.lookupOrInsert(nodeKey(Op, A, B), ~0u);
  if (Slot != ~0u)
    return NodeId(Slot);
  NodeId N = newNode(Op, A, B); // leaves the index, and so `Slot`, alone
  Slot = N.index();
  return N;
}

NodeId SubtransitiveGraph::findField(NodeId Base, uint32_t Tag) const {
  for (uint32_t I = Nodes[Base.index()].FirstField; I != NoLink;
       I = Fields[I].Next)
    if (Fields[I].Tag == Tag)
      return Fields[I].Node;
  return NodeId::invalid();
}

NodeId SubtransitiveGraph::topNode() {
  if (Top.isValid())
    return Top;
  // The `Top` member is its cache: no second request reaches `newNode`.
  Top = newNode(NodeOp::Top, 0, 0);
  setDemanded(Top);
  // Soundness of the widening: Top conservatively evaluates to every
  // abstraction in the program.
  for (uint32_t L = 0, E = M.numLabels(); L != E; ++L)
    addEdge(Top, exprNode(M.lamOfLabel(LabelId(L))));
  return Top;
}

NodeId SubtransitiveGraph::canonicalizeBase(TypeId Ty, NodeOp Op,
                                            uint32_t Payload,
                                            std::vector<NodeId> &NodeOf) {
  NodeId N;
  if (Config.Congruence == CongruenceMode::ByType && isDataType(Ty))
    N = sharedNode(NodeOp::Summary, Ty.index(), 0);
  else
    N = newNode(Op, Payload, 0); // the caller's slot was empty
  // Filled before `onCreate`, which may re-enter: creating `Top` asks
  // for the node of every abstraction.
  NodeOf[Payload] = N;
  if (!has(N, Created)) {
    Nodes[N.index()].Type = Ty;
    onCreate(N);
  }
  return N;
}

NodeId SubtransitiveGraph::exprNode(ExprId E) {
  // Resize-preserving: the module can grow underneath a live graph (the
  // delta layer appends definition subtrees), and existing entries must
  // survive — `lookupExprNode` serves freeze and queries from this table.
  if (NodeOfExpr.size() < M.numExprs())
    NodeOfExpr.resize(M.numExprs(), NodeId::invalid());
  if (NodeId N = NodeOfExpr[E.index()]; N.isValid())
    return N;
  return canonicalizeBase(M.expr(E)->type(), NodeOp::Expr, E.index(),
                          NodeOfExpr);
}

NodeId SubtransitiveGraph::varNode(VarId V) {
  if (NodeOfVar.size() < M.numVars())
    NodeOfVar.resize(M.numVars(), NodeId::invalid());
  if (VarType.size() < M.numVars())
    VarType.resize(M.numVars(), TypeId::invalid());
  if (NodeId N = NodeOfVar[V.index()]; N.isValid())
    return N;
  return canonicalizeBase(VarType[V.index()], NodeOp::Var, V.index(),
                          NodeOfVar);
}

NodeId SubtransitiveGraph::labelNode(LabelId L) {
  NodeId N = sharedNode(NodeOp::Label, L.index(), 0);
  if (!has(N, Created))
    onCreate(N);
  return N;
}

TypeId SubtransitiveGraph::derivedType(NodeOp Op, NodeId Base,
                                       uint32_t Tag) const {
  const TypeTable &TT = M.types();
  TypeId BaseTy = Nodes[Base.index()].Type;
  switch (Op) {
  case NodeOp::Dom:
    if (BaseTy.isValid() && TT.type(BaseTy).Kind == TypeKind::Arrow)
      return TT.arg(BaseTy, 0);
    return TypeId::invalid();
  case NodeOp::Ran:
    if (BaseTy.isValid() && TT.type(BaseTy).Kind == TypeKind::Arrow)
      return TT.arg(BaseTy, 1);
    return TypeId::invalid();
  case NodeOp::RefCell:
    if (BaseTy.isValid() && TT.type(BaseTy).Kind == TypeKind::Ref)
      return TT.arg(BaseTy, 0);
    return TypeId::invalid();
  case NodeOp::Field:
    if (tagIsTuple(Tag)) {
      if (BaseTy.isValid() && TT.type(BaseTy).Kind == TypeKind::Tuple &&
          tagIndex(Tag) < TT.type(BaseTy).NumArgs)
        return TT.arg(BaseTy, tagIndex(Tag));
      return TypeId::invalid();
    }
    return M.con(ConId(tagConOrArity(Tag))).ArgTypes[tagIndex(Tag)];
  default:
    assert(false && "not a derived node op");
    return TypeId::invalid();
  }
}

NodeId SubtransitiveGraph::derived(NodeOp Op, NodeId Base, uint32_t Tag) {
  // All derivatives of Top are Top.
  if (Top.isValid() && Base == Top)
    return Top;

  // Fast path: the (op, base, tag) alias was resolved before.
  if (NodeId N = lookupDerived(Op, Base, Tag); N.isValid())
    return N;

  TypeId Ty = derivedType(Op, Base, Tag);
  NodeId Canonical;
  bool Decon = has(Base, InvolvesDecon) || Op == NodeOp::Field;
  if (Config.Congruence == CongruenceMode::ByType && isDataType(Ty)) {
    Canonical = sharedNode(NodeOp::Summary, Ty.index(), 0);
  } else if (Config.Congruence == CongruenceMode::ByBaseAndType &&
             isDataType(Ty) && Decon) {
    Canonical = sharedNode(NodeOp::Summary2,
                           Nodes[Base.index()].Root.index(), Ty.index());
  } else if (Nodes[Base.index()].Depth + 1 > Config.MaxNodeDepth) {
    ++Stats.Widenings;
    return topNode();
  } else {
    // The cache miss above means no earlier request named this node.
    Canonical = newNode(Op, Base.index(), Tag);
  }

  // No node is created below until `onCreate`, so the references hold.
  NodeRec &BaseRec = Nodes[Base.index()];
  NodeRec &C = Nodes[Canonical.index()];
  bool IsNew = !(C.Flags & Created);
  if (IsNew) {
    C.Type = Ty;
    if (C.Op != NodeOp::Summary && C.Op != NodeOp::Summary2)
      C.Root = BaseRec.Root;
    C.Depth = BaseRec.Depth + 1;
    if (Decon)
      C.Flags |= InvolvesDecon;
  }

  // Fill the cache, registering the (op, base, tag) alias so demand events
  // can scan the base's edges even when several aliases share one
  // canonical node.  (The cache-miss above guarantees this runs once per
  // alias.)
  switch (Op) {
  case NodeOp::Dom:
    BaseRec.Dom = Canonical;
    break;
  case NodeOp::Ran:
    BaseRec.Ran = Canonical;
    break;
  case NodeOp::RefCell:
    BaseRec.RefCell = Canonical;
    break;
  default: {
    uint32_t *Tail = &BaseRec.FirstField;
    while (*Tail != NoLink)
      Tail = &Fields[*Tail].Next;
    *Tail = static_cast<uint32_t>(Fields.size());
    Fields.push_back({Tag, Canonical, NoLink});
    break;
  }
  }
  uint32_t Link = static_cast<uint32_t>(Aliases.size());
  Aliases.push_back({{Op, Base, Tag}, NoLink});
  (C.LastAlias == NoLink ? C.FirstAlias : Aliases[C.LastAlias].Next) = Link;
  C.LastAlias = Link;
  if (C.Flags & Demanded)
    PendingDemand.push_back({Op, Base, Tag});

  if (IsNew)
    onCreate(Canonical);
  return Canonical;
}

NodeId SubtransitiveGraph::lookupLabelNode(LabelId L) const {
  uint32_t Slot = NodeIndex.lookup(nodeKey(NodeOp::Label, L.index(), 0), ~0u);
  return Slot == ~0u ? NodeId::invalid() : NodeId(Slot);
}

NodeId SubtransitiveGraph::lookupDerived(NodeOp Op, NodeId Base,
                                         uint32_t Tag) const {
  if (Top.isValid() && Base == Top)
    return Top;
  switch (Op) {
  case NodeOp::Dom:
    return Nodes[Base.index()].Dom;
  case NodeOp::Ran:
    return Nodes[Base.index()].Ran;
  case NodeOp::RefCell:
    return Nodes[Base.index()].RefCell;
  case NodeOp::Field:
    return findField(Base, Tag);
  default:
    assert(false && "not a derived node op");
    return NodeId::invalid();
  }
}

NodeId SubtransitiveGraph::domNode(NodeId Base) {
  return derived(NodeOp::Dom, Base, 0);
}
NodeId SubtransitiveGraph::ranNode(NodeId Base) {
  return derived(NodeOp::Ran, Base, 0);
}
NodeId SubtransitiveGraph::refCellNode(NodeId Base) {
  return derived(NodeOp::RefCell, Base, 0);
}
NodeId SubtransitiveGraph::conFieldNode(ConId Con, uint32_t Index,
                                        NodeId Base) {
  return derived(NodeOp::Field, Base, packTag(false, Con.index(), Index));
}
NodeId SubtransitiveGraph::tupleFieldNode(uint32_t Index, NodeId Base) {
  return derived(NodeOp::Field, Base, packTag(true, 0, Index));
}

void SubtransitiveGraph::onCreate(NodeId N) {
  set(N, Created);
  if (Config.Policy != ClosurePolicy::PaperExact)
    setDemanded(N);
  if (Config.Policy == ClosurePolicy::Undemanded)
    materializeTemplate(N);
}

void SubtransitiveGraph::setDemanded(NodeId N) {
  if (has(N, Demanded))
    return;
  set(N, Demanded);
  for (uint32_t I = Nodes[N.index()].FirstAlias; I != NoLink;
       I = Aliases[I].Next)
    PendingDemand.push_back(Aliases[I].A);
}

void SubtransitiveGraph::materializeTemplate(NodeId N) {
  if (has(N, Materialized))
    return;
  set(N, Materialized);
  TypeId Ty = Nodes[N.index()].Type;
  if (!Ty.isValid())
    return;
  const Type &T = M.types().type(Ty);
  switch (T.Kind) {
  case TypeKind::Arrow:
    domNode(N);
    ranNode(N);
    break;
  case TypeKind::Tuple:
    for (uint32_t I = 0; I != T.NumArgs; ++I)
      tupleFieldNode(I, N);
    break;
  case TypeKind::Ref:
    refCellNode(N);
    break;
  case TypeKind::Data:
    if (const DataDecl *D = M.findData(T.Name)) {
      for (ConId C : D->Cons)
        for (uint32_t I = 0; I != M.con(C).ArgTypes.size(); ++I)
          conFieldNode(C, I, N);
    }
    break;
  default:
    break;
  }
}

uint32_t SubtransitiveGraph::findEdge(NodeId A, NodeId B) const {
  const NodeRec &From = Nodes[A.index()], &To = Nodes[B.index()];
  if (From.OutDeg <= To.InDeg) {
    for (uint32_t I = From.FirstOut; I != NoEdge; I = Edges[I].NextOut)
      if (Edges[I].To == B)
        return I;
  } else {
    for (uint32_t I = To.FirstIn; I != NoEdge; I = Edges[I].NextIn)
      if (Edges[I].From == A)
        return I;
  }
  return NoEdge;
}

bool SubtransitiveGraph::hasEdge(NodeId A, NodeId B) const {
  // Unless both lists outgrow `HubDegree` (A is then a hub), the shorter
  // one has at most `HubDegree` entries.
  if ((Nodes[A.index()].Flags & Hub) && Nodes[B.index()].InDeg > HubDegree)
    return HubEdges.contains(edgeKey(A, B));
  return findEdge(A, B) != NoEdge;
}

void SubtransitiveGraph::addEdge(NodeId A, NodeId B) {
  if (A == B)
    return;
  if (Journal)
    Journal->push_back({A, B});
  if (hasEdge(A, B))
    return;
  if (InClosePhase)
    ++Stats.CloseEdges;
  else
    ++Stats.BuildEdges;
  uint32_t E = static_cast<uint32_t>(Edges.size());
  NodeRec &From = Nodes[A.index()], &To = Nodes[B.index()];
  Edges.push_back({A, B, From.FirstOut, To.FirstIn});
  From.FirstOut = E;
  To.FirstIn = E;
  ++From.OutDeg;
  ++To.InDeg;
  if (From.Flags & Hub) {
    HubEdges.insert(edgeKey(A, B));
  } else if (From.OutDeg > HubDegree) {
    From.Flags |= Hub;
    for (uint32_t I = From.FirstOut; I != NoEdge; I = Edges[I].NextOut)
      HubEdges.insert(edgeKey(A, Edges[I].To));
  }
  setDemanded(B);
}

LabelId SubtransitiveGraph::labelOf(NodeId N) const {
  switch (op(N)) {
  case NodeOp::Expr: {
    const Expr *E = M.expr(ExprId(payloadA(N)));
    if (const auto *Lam = dyn_cast<LamExpr>(E))
      return Lam->label();
    return LabelId::invalid();
  }
  case NodeOp::Label:
    return LabelId(payloadA(N));
  default:
    return LabelId::invalid();
  }
}

void SubtransitiveGraph::build() {
  assert(!Built && "build() called twice");
  Built = true;
  // The closed graph holds 2.0-4.1 nodes per expr on the benchmark mix;
  // an untouched reserve costs address space, not memory.
  reserveNodes(3 * size_t(M.numExprs()));
  buildFrom(M.root());
}

void SubtransitiveGraph::buildFragment(ExprId FragmentRoot) {
  assert(!Built && "buildFragment() after build()");
  Built = true;
  buildFrom(FragmentRoot);
}

void SubtransitiveGraph::buildFrom(ExprId Root) {
  Span BuildSpan("build");
  forEachExprPreorder(M, Root,
                      [&](ExprId Id, const Expr *E) { buildExpr(Id, E); });
  BuildSpan.arg("nodes", Stats.BuildNodes);
  BuildSpan.arg("edges", Stats.BuildEdges);
}

void SubtransitiveGraph::setExternalizedVars(std::vector<bool> Flags) {
  assert(!Built && "setExternalizedVars() after build()");
  assert(Flags.size() == M.numVars() && "flag vector size mismatch");
  Externalized = std::move(Flags);
}

void SubtransitiveGraph::buildExpr(ExprId Id, const Expr *E) {
  NodeId N = exprNode(Id);
  auto isExternalized = [&](VarId V) {
    return !Externalized.empty() && Externalized[V.index()];
  };
  switch (E->kind()) {
  case ExprKind::Var: {
    VarId V = cast<VarExpr>(E)->var();
    if (!isExternalized(V))
      addEdge(N, varNode(V));
    return;
  }
  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    addEdge(varNode(L->param()), domNode(N)); // ABS-1
    addEdge(ranNode(N), exprNode(L->body())); // ABS-2
    return;
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    NodeId Fn = exprNode(A->fn());
    addEdge(domNode(Fn), exprNode(A->arg())); // APP-1
    addEdge(N, ranNode(Fn));                  // APP-2
    return;
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    if (!isExternalized(L->var()))
      addEdge(varNode(L->var()), exprNode(L->init()));
    addEdge(N, exprNode(L->body()));
    return;
  }
  case ExprKind::LetRecN: {
    const auto *L = cast<LetRecNExpr>(E);
    for (const LetRecNExpr::Binding &B : L->bindings())
      if (!isExternalized(B.Var))
        addEdge(varNode(B.Var), exprNode(B.Init));
    addEdge(N, exprNode(L->body()));
    return;
  }
  case ExprKind::Lit:
    return;
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    addEdge(N, exprNode(I->thenExpr()));
    addEdge(N, exprNode(I->elseExpr()));
    return;
  }
  case ExprKind::Tuple: {
    const auto *T = cast<TupleExpr>(E);
    for (uint32_t I = 0; I != T->elems().size(); ++I)
      addEdge(tupleFieldNode(I, N), exprNode(T->elems()[I]));
    return;
  }
  case ExprKind::Proj: {
    const auto *P = cast<ProjExpr>(E);
    addEdge(N, tupleFieldNode(P->index(), exprNode(P->tuple())));
    return;
  }
  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    for (uint32_t I = 0; I != C->args().size(); ++I)
      addEdge(conFieldNode(C->con(), I, N), exprNode(C->args()[I]));
    return;
  }
  case ExprKind::Case: {
    const auto *C = cast<CaseExpr>(E);
    NodeId Scrut = exprNode(C->scrutinee());
    for (const CaseArm &Arm : C->arms()) {
      addEdge(N, exprNode(Arm.Body));
      for (uint32_t I = 0; I != Arm.Binders.size(); ++I)
        addEdge(varNode(Arm.Binders[I]), conFieldNode(Arm.Con, I, Scrut));
    }
    return;
  }
  case ExprKind::Prim: {
    const auto *P = cast<PrimExpr>(E);
    switch (P->op()) {
    case PrimOp::RefNew:
      addEdge(refCellNode(N), exprNode(P->args()[0]));
      return;
    case PrimOp::RefGet:
      addEdge(N, refCellNode(exprNode(P->args()[0])));
      return;
    case PrimOp::RefSet:
      addEdge(refCellNode(exprNode(P->args()[0])), exprNode(P->args()[1]));
      return;
    default:
      return; // arithmetic/printing produce no tracked values
    }
  }
  }
  assert(false && "unknown expression kind");
}

Status SubtransitiveGraph::close(const Deadline &D,
                                 const CancellationToken &Token) {
  assert(Built && "close() before build()");
  InClosePhase = true;
  Span CloseSpan("close");
  Timer CloseTimer;
  const size_t NodesBefore = Nodes.size(), EdgesBefore = Edges.size();
  uint64_t Polls = 0;
  auto finish = [&](Status S) {
    static Counter &Runs = counter("close.runs");
    static Counter &AbortsC = counter("close.aborts");
    static Counter &EdgesAdded = counter("close.edges_added");
    static Counter &NodesAdded = counter("close.nodes_added");
    static Counter &PollsC = counter("close.checkpoint_polls");
    static Histogram &Millis =
        histogram("close.millis", latencyBucketsMillis());
    Runs.inc();
    if (!S.isOk())
      AbortsC.inc();
    EdgesAdded.add(Edges.size() - EdgesBefore);
    NodesAdded.add(Nodes.size() - NodesBefore);
    PollsC.add(Polls);
    Millis.observe(static_cast<uint64_t>(CloseTimer.millis()));
    CloseSpan.arg("nodes_added", Nodes.size() - NodesBefore);
    CloseSpan.arg("edges_added", Edges.size() - EdgesBefore);
    CloseSpan.arg("checkpoint_polls", Polls);
    CloseSpan.arg("rule_firings", Stats.CloseRuleFirings);
    CloseSpan.arg("status", statusCodeName(S.code()));
    CloseStatus = std::move(S);
    return CloseStatus;
  };
  auto governedStop = [&](Status S) {
    Aborted = true;
    return finish(std::move(S));
  };
  // Budgets are O(1) compares, checked every iteration; the clock, the
  // token, and the fault points are polled once per stride (and on the
  // first iteration, so tiny inputs still hit the checkpoint).
  constexpr uint32_t GovernorStride = 1024;
  uint32_t Stride = 0;
  while (DemandCursor != PendingDemand.size() ||
         NextUnprocessedEdge != Edges.size()) {
    if ((Config.MaxNodes != 0 && Nodes.size() > Config.MaxNodes) ||
        faultFires(fault::CloseNodeBudget))
      return governedStop(Status::resourceExhausted(
          "close phase exceeded the node budget (" +
          std::to_string(Config.MaxNodes) + ")"));
    if ((Config.MaxEdges != 0 && Edges.size() > Config.MaxEdges) ||
        faultFires(fault::CloseEdgeBudget))
      return governedStop(Status::resourceExhausted(
          "close phase exceeded the edge budget (" +
          std::to_string(Config.MaxEdges) + ")"));
    if (Stride++ % GovernorStride == 0) {
      ++Polls;
      if (Token.cancelled() || faultFires(fault::CloseCancel))
        return governedStop(Status::cancelled("close phase cancelled"));
      if (D.expired() || faultFires(fault::CloseDeadline))
        return governedStop(
            Status::deadlineExceeded("close phase exceeded its deadline"));
      if (faultFires(fault::CloseAlloc))
        return governedStop(
            Status::outOfMemory("close phase node-arena allocation failed"));
    }
    if (DemandCursor != PendingDemand.size()) {
      Alias A = PendingDemand[DemandCursor++];
      processDemand(A);
      continue;
    }
    const EdgeRec &E = Edges[NextUnprocessedEdge++];
    if (!E.From.isValid())
      continue; // tombstoned by the delta layer's retraction
    processEdge(E.From, E.To);
  }
  Closed = true;
  return finish(Status::ok());
}

void SubtransitiveGraph::processEdge(NodeId A, NodeId B) {
  // CLOSE-DOM': n1 -> n2 with dom(n2) demanded  ==>  dom(n2) -> dom(n1).
  if (NodeId D = Nodes[B.index()].Dom; D.isValid() && has(D, Demanded)) {
    ++Stats.CloseRuleFirings;
    addEdge(D, domNode(A));
  }
  // CLOSE-RAN': n1 -> n2 with ran(n1) demanded  ==>  ran(n1) -> ran(n2).
  if (NodeId R = Nodes[A.index()].Ran; R.isValid() && has(R, Demanded)) {
    ++Stats.CloseRuleFirings;
    addEdge(R, ranNode(B));
  }
  // Covariant deconstructor fields (Section 6).  The link is re-read from
  // the pool after each step: creating field nodes over B may grow it.
  for (uint32_t I = Nodes[A.index()].FirstField; I != NoLink;
       I = Fields[I].Next) {
    const uint32_t Tag = Fields[I].Tag;
    const NodeId F = Fields[I].Node;
    if (has(F, Demanded)) {
      ++Stats.CloseRuleFirings;
      addEdge(F, derived(NodeOp::Field, B, Tag));
    }
  }
  // Ref cells are invariant: close in both directions.
  if (NodeId R = Nodes[A.index()].RefCell; R.isValid() && has(R, Demanded)) {
    ++Stats.CloseRuleFirings;
    addEdge(R, refCellNode(B));
  }
  if (NodeId R = Nodes[B.index()].RefCell; R.isValid() && has(R, Demanded)) {
    ++Stats.CloseRuleFirings;
    addEdge(R, refCellNode(A));
  }
}

void SubtransitiveGraph::processDemand(const Alias &A) {
  NodeId Base = A.Base;
  NodeId Canonical = derived(A.Op, Base, A.Tag);
  // New edges prepend to the adjacency lists, so ranges captured here are
  // stable snapshots; edges added later re-fire through the per-edge
  // rules.
  switch (A.Op) {
  case NodeOp::Dom:
    for (NodeId X : preds(Base)) {
      ++Stats.CloseRuleFirings;
      addEdge(Canonical, domNode(X));
    }
    return;
  case NodeOp::Ran:
    for (NodeId Y : succs(Base)) {
      ++Stats.CloseRuleFirings;
      addEdge(Canonical, ranNode(Y));
    }
    return;
  case NodeOp::Field:
    for (NodeId Y : succs(Base)) {
      ++Stats.CloseRuleFirings;
      addEdge(Canonical, derived(NodeOp::Field, Y, A.Tag));
    }
    return;
  case NodeOp::RefCell:
    for (NodeId Y : succs(Base)) {
      ++Stats.CloseRuleFirings;
      addEdge(Canonical, refCellNode(Y));
    }
    for (NodeId X : preds(Base)) {
      ++Stats.CloseRuleFirings;
      addEdge(Canonical, refCellNode(X));
    }
    return;
  default:
    assert(false && "demand event for a non-derived op");
  }
}

void SubtransitiveGraph::removeEdgeForDelta(NodeId A, NodeId B) {
  uint32_t Idx = findEdge(A, B);
  if (Idx == NoEdge)
    return;
  NodeRec &From = Nodes[A.index()], &To = Nodes[B.index()];
  for (uint32_t *L = &From.FirstOut; *L != NoEdge; L = &Edges[*L].NextOut)
    if (*L == Idx) {
      *L = Edges[Idx].NextOut;
      break;
    }
  for (uint32_t *L = &To.FirstIn; *L != NoEdge; L = &Edges[*L].NextIn)
    if (*L == Idx) {
      *L = Edges[Idx].NextIn;
      break;
    }
  --From.OutDeg;
  --To.InDeg;
  if (From.Flags & Hub)
    HubEdges.erase(edgeKey(A, B));
  // Tombstone in place; the pool never compacts, so indices stay stable.
  Edges[Idx].From = NodeId::invalid();
  Edges[Idx].To = NodeId::invalid();
}

void SubtransitiveGraph::appendConsequencesForDelta(
    NodeId A, NodeId B, std::vector<std::pair<NodeId, NodeId>> &Out) const {
  // Mirror of `processEdge`: the conclusions each rule family could have
  // drawn from (A, B), restricted to node pairs that were actually
  // materialised.  (The widening path leaves the dom/ran caches unfilled for
  // edges into `Top`; the delta layer refuses to run once a Top node
  // exists, so nothing is missed here.)
  const NodeRec &From = Nodes[A.index()], &To = Nodes[B.index()];
  if (From.Dom.isValid() && To.Dom.isValid())
    Out.push_back({To.Dom, From.Dom}); // CLOSE-DOM'
  if (From.Ran.isValid() && To.Ran.isValid())
    Out.push_back({From.Ran, To.Ran}); // CLOSE-RAN'
  for (uint32_t I = From.FirstField; I != NoLink; I = Fields[I].Next)
    if (NodeId FB = findField(B, Fields[I].Tag); FB.isValid())
      Out.push_back({Fields[I].Node, FB}); // covariant fields
  if (NodeId CA = From.RefCell; CA.isValid())
    if (NodeId CB = To.RefCell; CB.isValid()) {
      Out.push_back({CA, CB}); // ref cells are invariant:
      Out.push_back({CB, CA}); // both directions
    }
}

void SubtransitiveGraph::requeueAliasesForDelta(NodeId N) {
  for (uint32_t I = Nodes[N.index()].FirstAlias; I != NoLink;
       I = Aliases[I].Next)
    PendingDemand.push_back(Aliases[I].A);
}

void SubtransitiveGraph::notifyModuleGrown() {
  if (NodeOfExpr.size() < M.numExprs())
    NodeOfExpr.resize(M.numExprs(), NodeId::invalid());
  if (NodeOfVar.size() < M.numVars())
    NodeOfVar.resize(M.numVars(), NodeId::invalid());
  if (VarType.size() < M.numVars())
    VarType.resize(M.numVars(), TypeId::invalid());
  if (!Externalized.empty() && Externalized.size() < M.numVars())
    Externalized.resize(M.numVars(), false);
}

std::string SubtransitiveGraph::describe(NodeId N) const {
  switch (op(N)) {
  case NodeOp::Expr:
    return describeExpr(M, ExprId(payloadA(N)));
  case NodeOp::Var:
    return "var:" + std::string(M.text(M.var(VarId(payloadA(N))).Name));
  case NodeOp::Dom:
    return "dom(" + describe(NodeId(payloadA(N))) + ")";
  case NodeOp::Ran:
    return "ran(" + describe(NodeId(payloadA(N))) + ")";
  case NodeOp::RefCell:
    return "refcell(" + describe(NodeId(payloadA(N))) + ")";
  case NodeOp::Field: {
    uint32_t Tag = payloadB(N);
    std::string Head =
        tagIsTuple(Tag)
            ? "#" + std::to_string(tagIndex(Tag) + 1)
            : std::string(M.text(M.con(ConId(tagConOrArity(Tag))).Name)) +
                  "~" + std::to_string(tagIndex(Tag) + 1);
    return Head + "(" + describe(NodeId(payloadA(N))) + ")";
  }
  case NodeOp::Label:
    return "label:" + std::to_string(payloadA(N));
  case NodeOp::Summary:
    return "summary[" +
           M.types().render(TypeId(payloadA(N)), M.strings()) + "]";
  case NodeOp::Summary2:
    return "summary2[" + describe(NodeId(payloadA(N))) + ":" +
           M.types().render(TypeId(payloadB(N)), M.strings()) + "]";
  case NodeOp::Top:
    return "top";
  }
  assert(false && "unknown node op");
  return "?";
}
