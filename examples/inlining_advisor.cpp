//===-- examples/inlining_advisor.cpp - k-limited CFA + called-once -------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inlining/specialisation use case that motivates Section 9: a call
/// site can be inlined when exactly one function reaches it, and the
/// function body can be *moved* into the site when, additionally, that
/// function is called nowhere else (called-once).  Both facts come out of
/// linear-time passes over the subtransitive graph — no label sets.
///
//===----------------------------------------------------------------------===//

#include "apps/KLimitedCFA.h"
#include "ast/Printer.h"
#include "parser/Parser.h"
#include "sema/Infer.h"

#include <cstdio>

using namespace stcfa;

int main() {
  const char *Source =
      "let helperOnce = fn a => a * 3 in\n"
      "let helperShared = fn b => b + 1 in\n"
      "let table = (helperShared, helperOnce) in\n"
      "let dispatch = fn n => if n < 0 then #1 table else #1 table in\n"
      "let r1 = helperOnce 10 in\n"
      "let r2 = helperShared 20 in\n"
      "let r3 = (dispatch 5) 30 in\n"
      "let r4 = helperShared 40 in\n"
      "r1 + r2 + r3 + r4\n";

  std::printf("--- program ---\n%s\n", Source);

  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Source, Diags);
  if (!M) {
    std::fprintf(stderr, "parse error:\n%s", Diags.render().c_str());
    return 1;
  }
  DiagnosticEngine InferDiags;
  if (!inferTypes(*M, InferDiags)) {
    std::fprintf(stderr, "type error:\n%s", InferDiags.render().c_str());
    return 1;
  }

  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);

  // k = 1: we only care whether a call site is monomorphic.
  KLimitedCFA KL(*M, F, /*K=*/1);
  KL.run();
  CalledOnceAnalysis CO(*M, F);
  CO.run();

  auto lamName = [&](LabelId L) {
    const auto *Lam = cast<LamExpr>(M->expr(M->lamOfLabel(L)));
    return std::string(M->text(M->var(Lam->param()).Name));
  };

  int Inlinable = 0, Movable = 0;
  std::printf("--- advice per call site ---\n");
  for (uint32_t I = 0; I != M->numExprs(); ++I) {
    const auto *App = dyn_cast<AppExpr>(M->expr(ExprId(I)));
    if (!App)
      continue;
    const LimitedSet &Callees = KL.ofCallSite(ExprId(I));
    std::string Where = describeExpr(*M, ExprId(I));
    if (Callees.isMany() || Callees.size() != 1) {
      std::printf("  %-12s keep indirect (%s callees)\n", Where.c_str(),
                  Callees.isMany() ? "many" : "no");
      continue;
    }
    LabelId L(Callees.ids()[0]);
    ++Inlinable;
    bool Once = CO.countOf(L) == CalledOnceAnalysis::CallCount::Once;
    Movable += Once;
    std::printf("  %-12s inline fn(%s)%s\n", Where.c_str(),
                lamName(L).c_str(),
                Once ? " and delete the definition (called once)" : "");
  }
  std::printf("\n%d call sites inlinable, %d of those are the function's "
              "only call\n",
              Inlinable, Movable);

  // Sanity for the example's narrative.
  return (Inlinable >= 3 && Movable >= 1) ? 0 : 1;
}
