//===-- examples/purity_checker.cpp - Effects analysis in practice --------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compiler-ish consumer of Section 8's linear-time effects analysis: a
/// "purity report" over a logging-heavy program.  For each `let`-bound
/// definition we report whether *using* it can perform side effects —
/// exactly the question a code-motion or memoisation pass asks.  The
/// answer is computed without ever materialising label sets.
///
/// The program is also executed with the reference interpreter to show
/// that the static report over-approximates the dynamic behaviour.
///
//===----------------------------------------------------------------------===//

#include "apps/EffectsAnalysis.h"
#include "interp/Interpreter.h"
#include "parser/Parser.h"
#include "sema/Infer.h"

#include <cstdio>

using namespace stcfa;

int main() {
  const char *Source =
      "let log = fn msg => print msg in\n"
      "let traced = fn f => fn x => #2 (log \"call\", f x) in\n"
      "let square = fn n => n * n in\n"
      "let tracedSquare = traced square in\n"
      "let pureTwice = fn g => fn y => g (g y) in\n"
      "let a = tracedSquare 5 in\n"
      "let b = pureTwice square 6 in\n"
      "a + b\n";

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
  EffectsAnalysis Effects(*M, F);
  Effects.run();

  // Purity report: a definition is "impure to use" when its initializer
  // evaluation — or, for functions, the body of any function that can be
  // invoked through it — is side-effecting.  The per-binding question is
  // answered by looking at the `let`'s init and the call sites below it.
  std::printf("--- purity report (static) ---\n");
  forEachExprPreorder(*M, M->root(), [&](ExprId, const Expr *E) {
    const auto *Let = dyn_cast<LetExpr>(E);
    if (!Let)
      return;
    // Is there any side-effecting occurrence inside the definition?
    bool Impure = false;
    forEachExprPreorder(*M, Let->init(), [&](ExprId Sub, const Expr *) {
      Impure |= Effects.isEffectful(Sub);
    });
    std::printf("  %-14s %s\n",
                std::string(M->text(M->var(Let->var()).Name)).c_str(),
                Impure ? "impure (may print/assign)" : "pure");
  });

  std::printf("\n%u of %u occurrences may cause effects\n",
              Effects.numEffectful(), M->numExprs());

  // Dynamic check: the static verdict covers what actually happened.
  InterpreterResult Run = interpret(*M);
  std::printf("\n--- dynamic run ---\n");
  for (const std::string &Line : Run.Output)
    std::printf("  printed: %s\n", Line.c_str());
  std::printf("  result: %s\n", Run.FinalValue.c_str());
  int MissedEffects = 0;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    if (Run.DidEffect[I] && !Effects.isEffectful(ExprId(I)))
      ++MissedEffects;
  std::printf("  dynamically-effectful occurrences missed by the static "
              "analysis: %d (must be 0)\n",
              MissedEffects);
  return MissedEffects == 0 ? 0 : 1;
}
