//===-- sema/Infer.cpp - Hindley-Milner type inference --------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "sema/Infer.h"

#include "support/Trace.h"

#include <algorithm>
#include <unordered_map>

using namespace stcfa;

namespace {

/// A type scheme: a body type with a set of quantified variable numbers.
struct Scheme {
  std::vector<uint32_t> Quantified;
  TypeId Body;
};

class InferCtx {
public:
  InferCtx(Module &M, DiagnosticEngine &Diags)
      : M(M), TT(M.types()), Diags(Diags), Env(M.numVars()) {}

  bool run();

private:
  //===--- unification variables -------------------------------------------//

  TypeId freshVar() {
    uint32_t N = static_cast<uint32_t>(VarBinding.size());
    VarBinding.push_back(TypeId::invalid());
    VarLevel.push_back(CurrentLevel);
    NoGeneralize.push_back(false);
    return TT.varType(N);
  }

  /// Follows variable bindings until reaching a non-variable type or an
  /// unbound variable.
  TypeId resolveShallow(TypeId T) const {
    while (true) {
      const Type &Node = TT.type(T);
      if (Node.Kind != TypeKind::Var)
        return T;
      if (Node.VarNum >= VarBinding.size() ||
          !VarBinding[Node.VarNum].isValid())
        return T;
      T = VarBinding[Node.VarNum];
    }
  }

  /// Occurs check plus level adjustment: every free variable of \p T gets
  /// its level lowered to \p Lv.  Returns false if \p VarNum occurs in T.
  bool occursAdjust(uint32_t VarNum, uint32_t Lv, TypeId T) {
    T = resolveShallow(T);
    const Type &Node = TT.type(T);
    if (Node.Kind == TypeKind::Var) {
      if (Node.VarNum == VarNum)
        return false;
      if (Node.VarNum < VarLevel.size())
        VarLevel[Node.VarNum] = std::min(VarLevel[Node.VarNum], Lv);
      return true;
    }
    for (uint32_t I = 0; I != Node.NumArgs; ++I)
      if (!occursAdjust(VarNum, Lv, TT.arg(Node, I)))
        return false;
    return true;
  }

  bool unify(TypeId A, TypeId B, SourceLoc Loc) {
    A = resolveShallow(A);
    B = resolveShallow(B);
    if (A == B)
      return true;
    const Type &NA = TT.type(A);
    const Type &NB = TT.type(B);
    if (NA.Kind == TypeKind::Var)
      return bindVar(NA.VarNum, B, Loc);
    if (NB.Kind == TypeKind::Var)
      return bindVar(NB.VarNum, A, Loc);
    if (NA.Kind != NB.Kind || NA.Name != NB.Name || NA.NumArgs != NB.NumArgs)
      return mismatch(A, B, Loc);
    for (uint32_t I = 0; I != NA.NumArgs; ++I)
      if (!unify(TT.arg(NA, I), TT.arg(NB, I), Loc))
        return false;
    return true;
  }

  bool bindVar(uint32_t VarNum, TypeId T, SourceLoc Loc) {
    assert(VarNum < VarBinding.size() && !VarBinding[VarNum].isValid() &&
           "binding a bound variable");
    if (!occursAdjust(VarNum, VarLevel[VarNum], T)) {
      error(Loc, "cannot construct the infinite type 't" +
                     std::to_string(VarNum) + " = " + render(T));
      return false;
    }
    // A pending projection restriction survives unification: whatever the
    // restricted variable now stands for must stay monomorphic until the
    // projection is resolved.
    if (NoGeneralize[VarNum])
      markNoGeneralize(T);
    VarBinding[VarNum] = T;
    return true;
  }

  void markNoGeneralize(TypeId T) {
    T = resolveShallow(T);
    const Type &Node = TT.type(T);
    if (Node.Kind == TypeKind::Var) {
      if (Node.VarNum < NoGeneralize.size())
        NoGeneralize[Node.VarNum] = true;
      return;
    }
    for (uint32_t I = 0; I != Node.NumArgs; ++I)
      markNoGeneralize(TT.arg(Node, I));
  }

  bool mismatch(TypeId A, TypeId B, SourceLoc Loc) {
    error(Loc, "type mismatch: " + render(A) + " vs " + render(B));
    return false;
  }

  std::string render(TypeId T) { return TT.render(zonk(T), M.strings()); }

  void error(SourceLoc Loc, std::string Message) {
    // Report only the first error: later ones tend to be noise caused by
    // the recovery types.
    if (Ok)
      Diags.error(Loc, std::move(Message));
    Ok = false;
  }

  //===--- schemes ----------------------------------------------------------//

  /// Replaces the scheme's quantified variables with fresh ones.
  TypeId instantiate(const Scheme &S) {
    if (S.Quantified.empty())
      return S.Body;
    for (uint32_t Q : S.Quantified) {
      TypeId Fresh = freshVar();
      if (SubstOf.size() <= Q)
        SubstOf.resize(VarBinding.size(), TypeId::invalid());
      SubstOf[Q] = Fresh;
    }
    TypeId Out = substitute(S.Body);
    for (uint32_t Q : S.Quantified)
      SubstOf[Q] = TypeId::invalid();
    return Out;
  }

  /// \p T with every variable `SubstOf` maps replaced.
  TypeId substitute(TypeId T) {
    T = resolveShallow(T);
    // A copy, not a reference: the recursive calls below may intern new
    // types and grow the table.
    const Type Node = TT.type(T);
    if (Node.Kind == TypeKind::Var)
      return Node.VarNum < SubstOf.size() && SubstOf[Node.VarNum].isValid()
                 ? SubstOf[Node.VarNum]
                 : T;
    if (Node.NumArgs == 0)
      return T;
    const size_t Base = ArgStack.size();
    for (uint32_t I = 0; I != Node.NumArgs; ++I)
      ArgStack.push_back(substitute(TT.arg(Node, I)));
    return rebuild(Node.Kind, Base);
  }

  /// Interns a \p Kind type over the arguments pushed on `ArgStack` since
  /// \p Base, and pops them.  The recursive walks share the one stack, so
  /// rebuilding a type allocates nothing once it has grown.
  TypeId rebuild(TypeKind Kind, size_t Base) {
    const std::span<const TypeId> Args = std::span(ArgStack).subspan(Base);
    TypeId Out = TT.unitType();
    switch (Kind) {
    case TypeKind::Arrow:
      Out = TT.arrowType(Args[0], Args[1]);
      break;
    case TypeKind::Tuple:
      Out = TT.tupleType(Args);
      break;
    case TypeKind::Ref:
      Out = TT.refType(Args[0]);
      break;
    default:
      assert(false && "rebuild of a leaf type");
    }
    ArgStack.resize(Base);
    return Out;
  }

  /// Quantifies the free variables of \p T whose level is deeper than the
  /// current one (Rémy-style generalization).
  Scheme generalize(TypeId T) {
    Scheme S;
    collectGeneralizable(T, S.Quantified);
    S.Body = T;
    return S;
  }

  void collectGeneralizable(TypeId T, std::vector<uint32_t> &Out) {
    T = resolveShallow(T);
    const Type &Node = TT.type(T);
    if (Node.Kind == TypeKind::Var) {
      // Variables carrying a pending projection stay monomorphic so a later
      // use in the same scope can still determine the tuple shape (the
      // moral equivalent of SML's flex-record restriction).
      if (Node.VarNum < VarLevel.size() &&
          VarLevel[Node.VarNum] > CurrentLevel && !NoGeneralize[Node.VarNum] &&
          std::find(Out.begin(), Out.end(), Node.VarNum) == Out.end())
        Out.push_back(Node.VarNum);
      return;
    }
    for (uint32_t I = 0; I != Node.NumArgs; ++I)
      collectGeneralizable(TT.arg(Node, I), Out);
  }

  //===--- the walk ---------------------------------------------------------//

  TypeId inferExpr(ExprId Id);
  TypeId inferNonLet(const Expr *E);
  TypeId primType(const PrimExpr *P);

  /// True for syntactic values (the ML value restriction).
  bool isSyntacticValue(ExprId Id) const {
    const Expr *E = M.expr(Id);
    switch (E->kind()) {
    case ExprKind::Var:
    case ExprKind::Lam:
    case ExprKind::Lit:
      return true;
    case ExprKind::Tuple:
      for (ExprId C : cast<TupleExpr>(E)->elems())
        if (!isSyntacticValue(C))
          return false;
      return true;
    case ExprKind::Con:
      for (ExprId C : cast<ConExpr>(E)->args())
        if (!isSyntacticValue(C))
          return false;
      return true;
    default:
      return false;
    }
  }

  /// Fully resolves \p T; only valid once inference is finished (memoized).
  TypeId zonk(TypeId T) {
    T = resolveShallow(T);
    if (T.index() < ZonkMemo.size() && ZonkMemo[T.index()].isValid())
      return ZonkMemo[T.index()];
    // A copy: recursive zonks may intern new types (see `substitute`).
    const Type Node = TT.type(T);
    TypeId Out = T;
    if (Node.NumArgs != 0) {
      const size_t Base = ArgStack.size();
      bool Changed = false;
      for (uint32_t I = 0; I != Node.NumArgs; ++I) {
        TypeId A = TT.arg(Node, I);
        TypeId Z = zonk(A);
        Changed |= (Z != A);
        ArgStack.push_back(Z);
      }
      if (Changed)
        Out = rebuild(Node.Kind, Base);
      else
        ArgStack.resize(Base);
    }
    if (ZonkMemo.size() <= T.index())
      ZonkMemo.resize(TT.size(), TypeId::invalid());
    ZonkMemo[T.index()] = Out;
    return Out;
  }

  /// A `#j e` whose scrutinee type was still a variable when checked.
  struct PendingProj {
    TypeId ScrutTy;
    TypeId ResultTy;
    uint32_t Index;
    SourceLoc Loc;
  };

  /// Resolves deferred projections to fixpoint; errors on leftovers.
  void solvePendingProjs();

  Module &M;
  TypeTable &TT;
  DiagnosticEngine &Diags;
  std::vector<Scheme> Env; // indexed by VarId
  std::vector<TypeId> VarBinding;
  std::vector<uint32_t> VarLevel;
  std::vector<bool> NoGeneralize;
  std::vector<PendingProj> PendingProjs;
  /// `instantiate`'s substitution, by variable number (invalid = none).
  std::vector<TypeId> SubstOf;
  /// Arguments of the types `substitute` and `zonk` are rebuilding.
  std::vector<TypeId> ArgStack;
  /// `zonk`'s answers by type id (invalid = not yet zonked).
  std::vector<TypeId> ZonkMemo;
  uint32_t CurrentLevel = 0;
  bool Ok = true;
};

} // namespace

void InferCtx::solvePendingProjs() {
  bool Progress = true;
  while (Progress && Ok) {
    Progress = false;
    std::vector<PendingProj> Remaining;
    for (const PendingProj &P : PendingProjs) {
      TypeId Scrut = resolveShallow(P.ScrutTy);
      const Type &Node = TT.type(Scrut);
      if (Node.Kind == TypeKind::Var) {
        Remaining.push_back(P);
        continue;
      }
      Progress = true;
      if (Node.Kind != TypeKind::Tuple)
        error(P.Loc, "projection requires a tuple, got " + render(Scrut));
      else if (P.Index >= Node.NumArgs)
        error(P.Loc, "projection index out of range for " + render(Scrut));
      else
        unify(P.ResultTy, TT.arg(Node, P.Index), P.Loc);
    }
    PendingProjs = std::move(Remaining);
  }
  for (const PendingProj &P : PendingProjs)
    error(P.Loc, "cannot determine the tuple shape of this projection");
}

bool InferCtx::run() {
  inferExpr(M.root());
  if (Ok)
    solvePendingProjs();
  if (!Ok)
    return false;
  // Final pass: resolve every recorded occurrence type.  ZonkMemo keeps
  // this linear even when instantiated types share large subtrees.  Clear
  // it first: error rendering may have cached partially-resolved entries.
  ZonkMemo.clear();
  for (uint32_t I = 0, E = M.numExprs(); I != E; ++I) {
    Expr *Ex = M.expr(ExprId(I));
    assert(Ex->type().isValid() && "expression missed by inference");
    Ex->setType(zonk(Ex->type()));
  }
  return true;
}

TypeId InferCtx::inferExpr(ExprId Id) {
  // `let` spines (the common shape of generated programs: thousands of
  // top-level bindings) are handled with an explicit loop so inference
  // depth is bounded by expression nesting, not by program length.
  std::vector<const LetExpr *> Spine;
  const Expr *E = M.expr(Id);
  while (const auto *L = dyn_cast<LetExpr>(E)) {
    TypeId InitTy;
    if (L->isRec()) {
      ++CurrentLevel;
      TypeId FnVar = freshVar();
      Env[L->var().index()] = {{}, FnVar};
      InitTy = inferExpr(L->init());
      unify(FnVar, InitTy, M.expr(L->init())->loc());
      --CurrentLevel;
      InitTy = FnVar;
    } else {
      ++CurrentLevel;
      InitTy = inferExpr(L->init());
      --CurrentLevel;
    }
    // The value restriction: only generalize syntactic values.
    if (isSyntacticValue(L->init()) || L->isRec())
      Env[L->var().index()] = generalize(InitTy);
    else
      Env[L->var().index()] = {{}, InitTy};
    Spine.push_back(L);
    E = M.expr(L->body());
    if (!Ok)
      break;
  }

  TypeId BodyTy = Ok ? inferNonLet(E) : TT.unitType();
  if (!E->type().isValid())
    M.expr(E->id())->setType(BodyTy);
  for (size_t I = Spine.size(); I != 0; --I)
    M.expr(Spine[I - 1]->id())->setType(BodyTy);
  return BodyTy;
}

TypeId InferCtx::inferNonLet(const Expr *E) {
  TypeId Result = TT.unitType();
  switch (E->kind()) {
  case ExprKind::Var:
    Result = instantiate(Env[cast<VarExpr>(E)->var().index()]);
    break;
  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    TypeId ParamTy = freshVar();
    Env[L->param().index()] = {{}, ParamTy};
    TypeId BodyTy = inferExpr(L->body());
    Result = TT.arrowType(ParamTy, BodyTy);
    break;
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    TypeId FnTy = inferExpr(A->fn());
    TypeId ArgTy = inferExpr(A->arg());
    TypeId ResTy = freshVar();
    unify(FnTy, TT.arrowType(ArgTy, ResTy), E->loc());
    Result = ResTy;
    break;
  }
  case ExprKind::Let:
    assert(false && "let handled by inferExpr");
    break;
  case ExprKind::LetRecN: {
    const auto *L = cast<LetRecNExpr>(E);
    ++CurrentLevel;
    std::vector<TypeId> FnVars;
    for (const LetRecNExpr::Binding &B : L->bindings()) {
      TypeId V = freshVar();
      FnVars.push_back(V);
      Env[B.Var.index()] = {{}, V};
    }
    for (size_t I = 0; I != L->bindings().size(); ++I) {
      TypeId InitTy = inferExpr(L->bindings()[I].Init);
      unify(FnVars[I], InitTy, M.expr(L->bindings()[I].Init)->loc());
    }
    --CurrentLevel;
    for (size_t I = 0; I != L->bindings().size(); ++I)
      Env[L->bindings()[I].Var.index()] = generalize(FnVars[I]);
    Result = inferExpr(L->body());
    break;
  }
  case ExprKind::Lit: {
    switch (cast<LitExpr>(E)->litKind()) {
    case LitKind::Int:
      Result = TT.intType();
      break;
    case LitKind::Bool:
      Result = TT.boolType();
      break;
    case LitKind::Unit:
      Result = TT.unitType();
      break;
    case LitKind::String:
      Result = TT.stringType();
      break;
    }
    break;
  }
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    unify(inferExpr(I->cond()), TT.boolType(), M.expr(I->cond())->loc());
    TypeId ThenTy = inferExpr(I->thenExpr());
    TypeId ElseTy = inferExpr(I->elseExpr());
    unify(ThenTy, ElseTy, E->loc());
    Result = ThenTy;
    break;
  }
  case ExprKind::Tuple: {
    std::vector<TypeId> Fields;
    for (ExprId C : cast<TupleExpr>(E)->elems())
      Fields.push_back(inferExpr(C));
    Result = TT.tupleType(std::move(Fields));
    break;
  }
  case ExprKind::Proj: {
    const auto *P = cast<ProjExpr>(E);
    TypeId TupleTy = resolveShallow(inferExpr(P->tuple()));
    const Type &Node = TT.type(TupleTy);
    if (Node.Kind == TypeKind::Var) {
      // The scrutinee's shape is not known yet (typically a lambda
      // parameter projected in its own body).  Defer: a later use in the
      // same generalization scope must pin the tuple down.
      NoGeneralize[Node.VarNum] = true;
      Result = freshVar();
      // The result is pinned to the scrutinee's eventual field type, so it
      // must not be generalized either (else a later resolution would
      // mutate an already-instantiated scheme).
      NoGeneralize[TT.type(Result).VarNum] = true;
      PendingProjs.push_back({TupleTy, Result, P->index(), E->loc()});
    } else if (Node.Kind != TypeKind::Tuple) {
      error(E->loc(), "projection requires a tuple, got " + render(TupleTy));
    } else if (P->index() >= Node.NumArgs) {
      error(E->loc(), "projection index out of range for " + render(TupleTy));
    } else {
      Result = TT.arg(Node, P->index());
    }
    break;
  }
  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    const ConInfo &Info = M.con(C->con());
    for (size_t I = 0; I != C->args().size(); ++I) {
      TypeId ArgTy = inferExpr(C->args()[I]);
      unify(ArgTy, Info.ArgTypes[I], M.expr(C->args()[I])->loc());
    }
    Result = Info.ResultType;
    break;
  }
  case ExprKind::Case: {
    const auto *C = cast<CaseExpr>(E);
    TypeId ScrutTy = inferExpr(C->scrutinee());
    TypeId ResTy = freshVar();
    for (const CaseArm &Arm : C->arms()) {
      const ConInfo &Info = M.con(Arm.Con);
      unify(ScrutTy, Info.ResultType, M.expr(C->scrutinee())->loc());
      for (size_t I = 0; I != Arm.Binders.size(); ++I)
        Env[Arm.Binders[I].index()] = {{}, Info.ArgTypes[I]};
      unify(inferExpr(Arm.Body), ResTy, M.expr(Arm.Body)->loc());
    }
    Result = ResTy;
    break;
  }
  case ExprKind::Prim:
    Result = primType(cast<PrimExpr>(E));
    break;
  }
  M.expr(E->id())->setType(Result);
  return Result;
}

TypeId InferCtx::primType(const PrimExpr *P) {
  auto Arg = [&](size_t I) { return inferExpr(P->args()[I]); };
  auto ArgLoc = [&](size_t I) { return M.expr(P->args()[I])->loc(); };
  switch (P->op()) {
  case PrimOp::Add:
  case PrimOp::Sub:
  case PrimOp::Mul:
  case PrimOp::Div:
    unify(Arg(0), TT.intType(), ArgLoc(0));
    unify(Arg(1), TT.intType(), ArgLoc(1));
    return TT.intType();
  case PrimOp::Lt:
  case PrimOp::Le:
  case PrimOp::Eq:
    unify(Arg(0), TT.intType(), ArgLoc(0));
    unify(Arg(1), TT.intType(), ArgLoc(1));
    return TT.boolType();
  case PrimOp::Not:
    unify(Arg(0), TT.boolType(), ArgLoc(0));
    return TT.boolType();
  case PrimOp::Print:
    Arg(0); // prints any value
    return TT.unitType();
  case PrimOp::RefNew:
    return TT.refType(Arg(0));
  case PrimOp::RefGet: {
    TypeId Content = freshVar();
    unify(Arg(0), TT.refType(Content), ArgLoc(0));
    return Content;
  }
  case PrimOp::RefSet: {
    TypeId Content = freshVar();
    unify(Arg(0), TT.refType(Content), ArgLoc(0));
    unify(Arg(1), Content, ArgLoc(1));
    return TT.unitType();
  }
  }
  assert(false && "unknown primitive");
  return TT.unitType();
}

bool stcfa::inferTypes(Module &M, DiagnosticEngine &Diags) {
  Span InferSpan("infer");
  InferSpan.arg("exprs", M.numExprs());
  InferCtx Ctx(M, Diags);
  bool Typed = Ctx.run();
  if (!Typed)
    InferSpan.arg("status", "error");
  return Typed;
}

TypeMetrics stcfa::computeTypeMetrics(const Module &M) {
  const TypeTable &TT = M.types();
  TypeMetrics Out;
  // Memoized tree size with saturation: instantiated polymorphic types can
  // share exponentially large trees.
  std::unordered_map<TypeId, uint64_t> SizeMemo;
  constexpr uint64_t Cap = 1ull << 32;
  auto size = [&](auto &&Self, TypeId T) -> uint64_t {
    auto It = SizeMemo.find(T);
    if (It != SizeMemo.end())
      return It->second;
    uint64_t S = 1;
    for (TypeId A : TT.args(T))
      S = std::min(Cap, S + Self(Self, A));
    SizeMemo.emplace(T, S);
    return S;
  };

  uint64_t Total = 0;
  uint32_t Count = 0;
  for (uint32_t I = 0, E = M.numExprs(); I != E; ++I) {
    TypeId T = M.expr(ExprId(I))->type();
    if (!T.isValid())
      continue;
    uint64_t S = size(size, T);
    Total += std::min<uint64_t>(S, Cap);
    Out.MaxTypeSize = std::max(Out.MaxTypeSize,
                               static_cast<uint32_t>(std::min(S, Cap)));
    Out.MaxOrder = std::max(Out.MaxOrder, TT.order(T));
    Out.MaxArity = std::max(Out.MaxArity, TT.arity(T));
    ++Count;
  }
  Out.AvgTypeSize = Count ? static_cast<double>(Total) / Count : 0.0;
  return Out;
}
