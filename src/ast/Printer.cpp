//===-- ast/Printer.cpp - Render AST back to surface syntax ---------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"

using namespace stcfa;

namespace {

/// Binding strength levels, loosest to tightest.  `print` parenthesizes a
/// sub-expression whenever its level is looser than the context requires.
enum Level : int {
  LvlOpen = 0,   // fn / let / if / case bodies
  LvlAssign = 1, // :=
  LvlCompare = 2,
  LvlAdd = 3,
  LvlMul = 4,
  LvlApp = 5,
  LvlAtom = 6,
};

struct PrinterImpl {
  const Module &M;
  std::string Out;

  explicit PrinterImpl(const Module &M) : M(M) {}

  void print(ExprId Id, int MinLevel) {
    const Expr *E = M.expr(Id);
    int Lvl = level(E);
    bool Paren = Lvl < MinLevel;
    if (Paren)
      Out += '(';
    printBare(E);
    if (Paren)
      Out += ')';
  }

  static int level(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Lam:
    case ExprKind::Let:
    case ExprKind::LetRecN:
    case ExprKind::If:
      return LvlOpen;
    case ExprKind::Case:
      return LvlAtom; // `case ... end` is self-delimiting
    case ExprKind::App:
      return LvlApp;
    case ExprKind::Prim:
      return primLevel(cast<PrimExpr>(E)->op());
    case ExprKind::Var:
    case ExprKind::Lit:
    case ExprKind::Tuple:
    case ExprKind::Proj:
    case ExprKind::Con:
      return LvlAtom;
    }
    assert(false && "unknown expression kind");
    return LvlAtom;
  }

  static int primLevel(PrimOp Op) {
    switch (Op) {
    case PrimOp::RefSet:
      return LvlAssign;
    case PrimOp::Lt:
    case PrimOp::Le:
    case PrimOp::Eq:
      return LvlCompare;
    case PrimOp::Add:
    case PrimOp::Sub:
      return LvlAdd;
    case PrimOp::Mul:
    case PrimOp::Div:
      return LvlMul;
    case PrimOp::Not:
    case PrimOp::Print:
    case PrimOp::RefNew:
    case PrimOp::RefGet:
      return LvlApp; // prefix operators bind like application
    }
    assert(false && "unknown primitive");
    return LvlAtom;
  }

  void printBare(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Var:
      Out += M.text(M.var(cast<VarExpr>(E)->var()).Name);
      return;
    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(E);
      Out += "fn ";
      Out += M.text(M.var(L->param()).Name);
      Out += " => ";
      print(L->body(), LvlOpen);
      return;
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      print(A->fn(), LvlApp);
      Out += ' ';
      print(A->arg(), LvlAtom);
      return;
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      Out += L->isRec() ? "letrec " : "let ";
      Out += M.text(M.var(L->var()).Name);
      Out += " = ";
      print(L->init(), LvlAssign);
      Out += " in ";
      print(L->body(), LvlOpen);
      return;
    }
    case ExprKind::LetRecN: {
      const auto *L = cast<LetRecNExpr>(E);
      Out += "letrec ";
      for (size_t I = 0; I != L->bindings().size(); ++I) {
        if (I)
          Out += " and ";
        Out += M.text(M.var(L->bindings()[I].Var).Name);
        Out += " = ";
        print(L->bindings()[I].Init, LvlAssign);
      }
      Out += " in ";
      print(L->body(), LvlOpen);
      return;
    }
    case ExprKind::Lit: {
      const auto *L = cast<LitExpr>(E);
      switch (L->litKind()) {
      case LitKind::Int:
        Out += std::to_string(L->intValue());
        return;
      case LitKind::Bool:
        Out += L->boolValue() ? "true" : "false";
        return;
      case LitKind::Unit:
        Out += "unit";
        return;
      case LitKind::String:
        Out += '"';
        Out += M.text(L->stringValue());
        Out += '"';
        return;
      }
      assert(false && "unknown literal kind");
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      Out += "if ";
      print(I->cond(), LvlAssign);
      Out += " then ";
      print(I->thenExpr(), LvlAssign);
      Out += " else ";
      print(I->elseExpr(), LvlOpen);
      return;
    }
    case ExprKind::Tuple: {
      const auto *T = cast<TupleExpr>(E);
      Out += '(';
      for (size_t I = 0; I != T->elems().size(); ++I) {
        if (I)
          Out += ", ";
        print(T->elems()[I], LvlOpen);
      }
      Out += ')';
      return;
    }
    case ExprKind::Proj: {
      const auto *P = cast<ProjExpr>(E);
      Out += '#';
      Out += std::to_string(P->index() + 1);
      Out += ' ';
      print(P->tuple(), LvlAtom);
      return;
    }
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      Out += M.text(M.con(C->con()).Name);
      if (C->args().empty())
        return;
      Out += '(';
      for (size_t I = 0; I != C->args().size(); ++I) {
        if (I)
          Out += ", ";
        print(C->args()[I], LvlOpen);
      }
      Out += ')';
      return;
    }
    case ExprKind::Case: {
      const auto *C = cast<CaseExpr>(E);
      Out += "case ";
      print(C->scrutinee(), LvlAssign);
      Out += " of ";
      for (size_t I = 0; I != C->arms().size(); ++I) {
        const CaseArm &Arm = C->arms()[I];
        if (I)
          Out += " | ";
        Out += M.text(M.con(Arm.Con).Name);
        if (!Arm.Binders.empty()) {
          Out += '(';
          for (size_t B = 0; B != Arm.Binders.size(); ++B) {
            if (B)
              Out += ", ";
            Out += M.text(M.var(Arm.Binders[B]).Name);
          }
          Out += ')';
        }
        Out += " => ";
        print(Arm.Body, LvlAssign);
      }
      Out += " end";
      return;
    }
    case ExprKind::Prim: {
      const auto *P = cast<PrimExpr>(E);
      switch (P->op()) {
      case PrimOp::Not:
      case PrimOp::Print:
      case PrimOp::RefNew:
        Out += primName(P->op());
        Out += ' ';
        print(P->args()[0], LvlAtom);
        return;
      case PrimOp::RefGet:
        Out += '!';
        print(P->args()[0], LvlAtom);
        return;
      case PrimOp::RefSet:
        // Right-associative, loosest binop.
        print(P->args()[0], LvlCompare);
        Out += " := ";
        print(P->args()[1], LvlAssign);
        return;
      default: {
        int Lvl = primLevel(P->op());
        // Left-associative: the left child may be at the same level, the
        // right child must bind tighter.
        print(P->args()[0], Lvl);
        Out += ' ';
        Out += primName(P->op());
        Out += ' ';
        print(P->args()[1], Lvl + 1);
        return;
      }
      }
    }
    }
    assert(false && "unknown expression kind");
  }
};

} // namespace

std::string stcfa::printExpr(const Module &M, ExprId E) {
  PrinterImpl P(M);
  P.print(E, LvlOpen);
  return std::move(P.Out);
}

std::string stcfa::printProgram(const Module &M) {
  std::string Out;
  for (const DataDecl &D : M.dataDecls()) {
    Out += "data ";
    Out += M.text(D.Name);
    Out += " = ";
    for (size_t I = 0; I != D.Cons.size(); ++I) {
      if (I)
        Out += " | ";
      const ConInfo &C = M.con(D.Cons[I]);
      Out += M.text(C.Name);
      if (!C.ArgTypes.empty()) {
        Out += '(';
        for (size_t A = 0; A != C.ArgTypes.size(); ++A) {
          if (A)
            Out += ", ";
          Out += M.types().render(C.ArgTypes[A], M.strings());
        }
        Out += ')';
      }
    }
    Out += ";\n";
  }
  Out += printExpr(M, M.root());
  Out += '\n';
  return Out;
}

std::string stcfa::describeExpr(const Module &M, ExprId E) {
  static const char *Names[] = {"var",   "fn",   "app", "let",  "letrec",
                                "lit",   "if",   "tuple", "proj", "con",
                                "case",  "prim"};
  const Expr *Ex = M.expr(E);
  // One-char separators are appended on their own: GCC 12 -O3 flags
  // `"@" + std::to_string(..)` with a false -Wrestrict.
  std::string Out = Names[static_cast<int>(Ex->kind())];
  Out += '@';
  Out += std::to_string(E.index());
  if (Ex->loc().isValid()) {
    Out += '(';
    Out += std::to_string(Ex->loc().Line) + ":" +
           std::to_string(Ex->loc().Col) + ")";
  }
  return Out;
}

std::string stcfa::describeLabel(const Module &M, LabelId L) {
  const auto *Lam = cast<LamExpr>(M.expr(M.lamOfLabel(L)));
  std::string Out = "fn#" + std::to_string(L.index()) + "(";
  Out += M.text(M.var(Lam->param()).Name);
  SourceLoc Loc = M.expr(M.lamOfLabel(L))->loc();
  if (Loc.isValid()) {
    Out += '@';
    Out += std::to_string(Loc.Line) + ":" + std::to_string(Loc.Col);
  }
  return Out + ")";
}
