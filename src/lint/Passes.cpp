//===-- lint/Passes.cpp - The checker passes ------------------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The six checker passes and the shared `LintContext`.  Every pass works
/// directly on the frozen CSR snapshot (Propositions 1/2 reachability) or
/// on one of the linear-time wrapped analyses — none materialises full
/// label sets, so each pass stays linear in the graph.
///
/// Known approximation limits (documented in docs/LINT.md):
///
///  * `applied-non-function` tracks the value kinds the graph gives
///    producers to — literals, tuples, constructor values, reference
///    cells, and widened `Top` — but not the results of arithmetic
///    primitives, which have no producer node (the standard-CFA reference
///    tracks exactly the same set, which is what the differential test
///    checks).
///  * Partial runs (expired deadline / cancellation) under-approximate:
///    passes may miss findings, never invent them.
///
//===----------------------------------------------------------------------===//

#include "lint/LintEngine.h"

#include "ast/Module.h"

#include <algorithm>
#include <deque>

using namespace stcfa;

//===----------------------------------------------------------------------===//
// LintContext
//===----------------------------------------------------------------------===//

LintContext::LintContext(const Module &M, const FrozenGraph &F,
                         const Deadline &D, const CancellationToken &Token)
    : F(F), M(M), D(D), Token(Token) {}

LintContext::~LintContext() = default;

const CalledOnceAnalysis &LintContext::calledOnce(Status &S) const {
  std::call_once(CalledOnceFlag, [this] {
    CalledOnceA = std::make_unique<CalledOnceAnalysis>(M, F);
    CalledOnceStatus = CalledOnceA->run(D, Token);
  });
  S = CalledOnceStatus;
  return *CalledOnceA;
}

const EffectsAnalysis &LintContext::effects(Status &S) const {
  std::call_once(EffectsFlag, [this] {
    EffectsA = std::make_unique<EffectsAnalysis>(M, F);
    EffectsStatus = EffectsA->run(D, Token);
  });
  S = EffectsStatus;
  return *EffectsA;
}

ExprId LintContext::exprOfNode(uint32_t N) const {
  std::call_once(NodeMapFlag, [this] {
    NodeToExpr.assign(F.numNodes(), ExprId::invalid());
    for (uint32_t E = 0, End = M.numExprs(); E != End; ++E)
      if (uint32_t Node = F.nodeOfExpr(ExprId(E)); Node != FrozenGraph::None)
        NodeToExpr[Node] = ExprId(E);
  });
  return N < NodeToExpr.size() ? NodeToExpr[N] : ExprId::invalid();
}

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

namespace {

/// Polls the governor; fills \p S and returns true when the pass should
/// stop and report partial findings.
bool governedStop(const LintContext &Ctx, Status &S) {
  if (Ctx.token().cancelled()) {
    S = Status::cancelled("lint pass cancelled");
    return true;
  }
  if (Ctx.deadline().expired()) {
    S = Status::deadlineExceeded("lint pass exceeded its deadline");
    return true;
  }
  return false;
}

/// Display names for abstractions: the binder name when the lambda is the
/// initializer of a `let`/`letrec` binding, "anonymous function" otherwise.
std::vector<std::string> functionNames(const Module &M) {
  std::vector<std::string> Names(M.numLabels(), "anonymous function");
  auto nameLam = [&](ExprId Init, VarId V) {
    if (const auto *Lam = dyn_cast<LamExpr>(M.expr(Init)))
      Names[Lam->label().index()] =
          "function '" + std::string(M.text(M.var(V).Name)) + "'";
  };
  for (uint32_t E = 0, End = M.numExprs(); E != End; ++E) {
    const Expr *Ex = M.expr(ExprId(E));
    if (const auto *Let = dyn_cast<LetExpr>(Ex))
      nameLam(Let->init(), Let->var());
    else if (const auto *Rec = dyn_cast<LetRecNExpr>(Ex))
      for (const LetRecNExpr::Binding &B : Rec->bindings())
        nameLam(B.Init, B.Var);
  }
  return Names;
}

SourceRange rangeOfExpr(const Module &M, ExprId E) {
  return E.isValid() ? M.expr(E)->range() : SourceRange{};
}

//===----------------------------------------------------------------------===//
// dead-function: abstractions no call site can reach
//===----------------------------------------------------------------------===//

Status passDeadFunction(const LintContext &Ctx,
                        std::vector<LintDiagnostic> &Out) {
  Status S = Status::ok();
  const CalledOnceAnalysis &CO = Ctx.calledOnce(S);
  // A partial marker flow under-counts call sites; `Never` would then be
  // unreliable, so suppress findings entirely on a partial analysis.
  if (!S.isOk())
    return S;
  const Module &M = Ctx.module();
  std::vector<std::string> Names = functionNames(M);
  for (uint32_t L = 0, End = M.numLabels(); L != End; ++L) {
    if (CO.countOf(LabelId(L)) != CalledOnceAnalysis::CallCount::Never)
      continue;
    Out.push_back({"dead-function", LintSeverity::Warning,
                   rangeOfExpr(M, M.lamOfLabel(LabelId(L))),
                   Names[L] + " is never called",
                   {}});
  }
  return S;
}

//===----------------------------------------------------------------------===//
// unused-binding: binders with no occurrence
//===----------------------------------------------------------------------===//

Status passUnusedBinding(const LintContext &Ctx,
                         std::vector<LintDiagnostic> &Out) {
  Status S = Status::ok();
  if (governedStop(Ctx, S))
    return S;
  const Module &M = Ctx.module();
  const FrozenGraph &F = Ctx.frozen();
  for (uint32_t V = 0, End = M.numVars(); V != End; ++V) {
    // The graph's only edges *into* a binder node come from occurrences
    // (the VAR rule; the close phase never targets var nodes), so an
    // empty predecessor row means the binder is never referenced.
    uint32_t N = F.nodeOfVar(VarId(V));
    if (N != FrozenGraph::None && !F.preds(N).empty())
      continue;
    const VarInfo &Info = M.var(VarId(V));
    if (!Info.Binder.isValid())
      continue;
    const char *Kind = "binding";
    switch (M.expr(Info.Binder)->kind()) {
    case ExprKind::Lam:
      Kind = "parameter";
      break;
    case ExprKind::Case:
      Kind = "pattern binder";
      break;
    default:
      break;
    }
    Out.push_back({"unused-binding", LintSeverity::Warning,
                   rangeOfExpr(M, Info.Binder),
                   std::string(Kind) + " '" +
                       std::string(M.text(Info.Name)) + "' is never used",
                   {}});
  }
  return S;
}

//===----------------------------------------------------------------------===//
// applied-non-function: call sites whose operator may be a base value
//===----------------------------------------------------------------------===//

/// What a producer node produces, for the note message.
std::string describeProducer(const Module &M, const FrozenGraph &F,
                             const LintContext &Ctx, uint32_t N) {
  if (F.op(N) == NodeOp::Top)
    return "a widened (unknown) value";
  ExprId E = Ctx.exprOfNode(N);
  if (!E.isValid())
    return "a non-function value";
  const Expr *Ex = M.expr(E);
  switch (Ex->kind()) {
  case ExprKind::Lit:
    switch (cast<LitExpr>(Ex)->litKind()) {
    case LitKind::Int:
      return "an integer literal";
    case LitKind::Bool:
      return "a boolean literal";
    case LitKind::Unit:
      return "the unit value";
    case LitKind::String:
      return "a string literal";
    }
    return "a literal";
  case ExprKind::Tuple:
    return "a tuple";
  case ExprKind::Con:
    return "a '" + std::string(M.text(M.con(cast<ConExpr>(Ex)->con()).Name)) +
           "' constructor value";
  case ExprKind::Prim:
    return "a mutable reference cell";
  default:
    return "a non-function value";
  }
}

Status passAppliedNonFunction(const LintContext &Ctx,
                              std::vector<LintDiagnostic> &Out) {
  Status S = Status::ok();
  if (governedStop(Ctx, S))
    return S;
  const Module &M = Ctx.module();
  const FrozenGraph &F = Ctx.frozen();

  // Producer nodes of trackable non-function values.  An edge `n1 -> n2`
  // means L(n1) ⊇ L(n2), so values flow *against* the edges: a reverse
  // (predecessor-side) BFS from the producers marks every node whose
  // value set may contain one, carrying a witness producer for the note.
  const uint32_t None = FrozenGraph::None;
  std::vector<uint32_t> Witness(F.numNodes(), None);
  std::deque<uint32_t> Queue;
  auto seed = [&](uint32_t N) {
    if (N != None && Witness[N] == None) {
      Witness[N] = N;
      Queue.push_back(N);
    }
  };
  for (uint32_t E = 0, End = M.numExprs(); E != End; ++E) {
    const Expr *Ex = M.expr(ExprId(E));
    bool Producer = isa<LitExpr>(Ex) || isa<TupleExpr>(Ex) || isa<ConExpr>(Ex);
    if (const auto *P = dyn_cast<PrimExpr>(Ex))
      Producer = P->op() == PrimOp::RefNew;
    if (Producer)
      seed(F.nodeOfExpr(ExprId(E)));
  }
  for (uint32_t N = 0, End = F.numNodes(); N != End; ++N)
    if (F.op(N) == NodeOp::Top)
      seed(N);

  uint64_t Steps = 0;
  while (!Queue.empty()) {
    if (Steps++ % 4096 == 0 && governedStop(Ctx, S))
      return S;
    uint32_t N = Queue.front();
    Queue.pop_front();
    for (uint32_t P : F.preds(N))
      if (Witness[P] == None) {
        Witness[P] = Witness[N];
        Queue.push_back(P);
      }
  }

  forEachExprPreorder(M, M.root(), [&](ExprId Id, const Expr *E) {
    const auto *A = dyn_cast<AppExpr>(E);
    if (!A)
      return;
    uint32_t Fn = F.nodeOfExpr(A->fn());
    if (Fn == None || Witness[Fn] == None)
      return;
    uint32_t W = Witness[Fn];
    SourceRange FnRange = rangeOfExpr(M, A->fn());
    LintNote Note{rangeOfExpr(M, Ctx.exprOfNode(W)),
                  describeProducer(M, F, Ctx, W) +
                      " may flow into the operator"};
    if (!Note.Range.isValid())
      Note.Range = FnRange; // Top nodes have no occurrence to point at
    Out.push_back({"applied-non-function", LintSeverity::Error, FnRange,
                   "operator of this application may evaluate to a "
                   "non-function value",
                   {std::move(Note)}});
    (void)Id;
  });
  return S;
}

//===----------------------------------------------------------------------===//
// called-once: inlining candidates
//===----------------------------------------------------------------------===//

Status passCalledOnce(const LintContext &Ctx,
                      std::vector<LintDiagnostic> &Out) {
  Status S = Status::ok();
  const CalledOnceAnalysis &CO = Ctx.calledOnce(S);
  // Partial marker flow can misreport `Once` for a `Many` function.
  if (!S.isOk())
    return S;
  const Module &M = Ctx.module();
  std::vector<std::string> Names = functionNames(M);
  for (uint32_t L = 0, End = M.numLabels(); L != End; ++L) {
    if (CO.countOf(LabelId(L)) != CalledOnceAnalysis::CallCount::Once)
      continue;
    ExprId Site = CO.uniqueCallSite(LabelId(L));
    std::vector<LintNote> Notes;
    if (Site.isValid())
      Notes.push_back({rangeOfExpr(M, Site), "the only call site is here"});
    Out.push_back({"called-once", LintSeverity::Note,
                   rangeOfExpr(M, M.lamOfLabel(LabelId(L))),
                   Names[L] +
                       " is called from exactly one site; inlining candidate",
                   std::move(Notes)});
  }
  return S;
}

//===----------------------------------------------------------------------===//
// impure-in-pure: side effects in positions expected pure
//===----------------------------------------------------------------------===//

Status passImpureInPure(const LintContext &Ctx,
                        std::vector<LintDiagnostic> &Out) {
  Status S = Status::ok();
  if (governedStop(Ctx, S))
    return S;
  const EffectsAnalysis &Eff = Ctx.effects(S);
  // Partial effects marks under-approximate; report what is certain.
  const Module &M = Ctx.module();
  auto report = [&](ExprId E, std::string What) {
    Out.push_back({"impure-in-pure", LintSeverity::Warning, rangeOfExpr(M, E),
                   std::move(What), {}});
  };
  forEachExprPreorder(M, M.root(), [&](ExprId, const Expr *E) {
    if (const auto *P = dyn_cast<PrimExpr>(E)) {
      // Pure value primitives only: the reference machinery is stateful
      // by design and `print`/`:=` are the effects themselves.
      switch (P->op()) {
      case PrimOp::Print:
      case PrimOp::RefNew:
      case PrimOp::RefGet:
      case PrimOp::RefSet:
        return;
      default:
        break;
      }
      for (ExprId Arg : P->args())
        if (Eff.isEffectful(Arg))
          report(Arg, std::string("operand of pure primitive '") +
                          primName(P->op()) + "' may have side effects");
      return;
    }
    if (const auto *If = dyn_cast<IfExpr>(E)) {
      if (Eff.isEffectful(If->cond()))
        report(If->cond(), "branch condition may have side effects");
      return;
    }
    if (const auto *C = dyn_cast<CaseExpr>(E)) {
      if (Eff.isEffectful(C->scrutinee()))
        report(C->scrutinee(), "case scrutinee may have side effects");
      return;
    }
    if (const auto *Pr = dyn_cast<ProjExpr>(E)) {
      if (Eff.isEffectful(Pr->tuple()))
        report(Pr->tuple(), "projection target may have side effects");
      return;
    }
  });
  return S;
}

//===----------------------------------------------------------------------===//
// escaping-function: closures flowing into the result or a reference cell
//===----------------------------------------------------------------------===//

Status passEscapingFunction(const LintContext &Ctx,
                            std::vector<LintDiagnostic> &Out) {
  Status S = Status::ok();
  if (governedStop(Ctx, S))
    return S;
  const Module &M = Ctx.module();
  const FrozenGraph &F = Ctx.frozen();

  // Proposition 1: a forward (successor-side) search from a node reaches
  // exactly the producers of the values that may flow to it.  Search once
  // from the program-result node and once from every refcell port.
  uint32_t RootNode = F.nodeOfExpr(M.root());
  DenseBitset ToResult =
      F.reachableFrom(std::span<const uint32_t>(&RootNode, 1));

  std::vector<uint32_t> Cells;
  for (uint32_t N = 0, End = F.numNodes(); N != End; ++N)
    if (F.op(N) == NodeOp::RefCell)
      Cells.push_back(N);
  DenseBitset ToCell = F.reachableFrom(Cells);

  if (governedStop(Ctx, S))
    return S;

  std::vector<std::string> Names = functionNames(M);
  for (uint32_t L = 0, End = M.numLabels(); L != End; ++L) {
    auto [LamNode, Carrier] = F.labelRoots(LabelId(L));
    auto in = [&](const DenseBitset &B) {
      return (LamNode != FrozenGraph::None && B.contains(LamNode)) ||
             (Carrier != FrozenGraph::None && B.contains(Carrier));
    };
    SourceRange R = rangeOfExpr(M, M.lamOfLabel(LabelId(L)));
    if (in(ToResult))
      Out.push_back({"escaping-function", LintSeverity::Note, R,
                     Names[L] + " escapes into the program result",
                     {}});
    if (!Cells.empty() && in(ToCell))
      Out.push_back({"escaping-function", LintSeverity::Note, R,
                     Names[L] + " is stored in a mutable reference cell",
                     {}});
  }
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

static const LintPassInfo Registry[] = {
    {"dead-function", "lint.pass.dead-function",
     "Abstraction never called from any reachable call site",
     LintSeverity::Warning, passDeadFunction},
    {"unused-binding", "lint.pass.unused-binding",
     "Binder with no variable occurrence", LintSeverity::Warning,
     passUnusedBinding},
    {"applied-non-function", "lint.pass.applied-non-function",
     "Call site whose operator may evaluate to a non-function value",
     LintSeverity::Error, passAppliedNonFunction},
    {"called-once", "lint.pass.called-once",
     "Abstraction called from exactly one site (inlining candidate)",
     LintSeverity::Note, passCalledOnce},
    {"impure-in-pure", "lint.pass.impure-in-pure",
     "Side-effecting expression in a position expected pure",
     LintSeverity::Warning, passImpureInPure},
    {"escaping-function", "lint.pass.escaping-function",
     "Closure flowing into the program result or a mutable reference",
     LintSeverity::Note, passEscapingFunction},
};

std::span<const LintPassInfo> LintEngine::passes() { return Registry; }

const LintPassInfo *LintEngine::findPass(std::string_view Id) {
  for (const LintPassInfo &P : Registry)
    if (Id == P.Id)
      return &P;
  return nullptr;
}
