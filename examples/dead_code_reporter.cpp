//===-- examples/dead_code_reporter.cpp - Dead code and call graphs -------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A whole-program dead-code report built from two CFA consumers:
///
///   * the call graph derived from the subtransitive graph tells us which
///     functions are transitively callable from top level, and
///   * the dead-code-aware 0-CFA (the "treatment of dead-code" variation
///     from the paper's introduction) prunes flows inside never-called
///     bodies and counts unreachable occurrences.
///
/// The reference interpreter then runs the program: everything it touches
/// must have been classified live.
///
//===----------------------------------------------------------------------===//

#include "analysis/DeadCodeAwareCFA.h"
#include "apps/CallGraph.h"
#include "ast/Printer.h"
#include "interp/Interpreter.h"
#include "parser/Parser.h"
#include "sema/Infer.h"

#include <cstdio>

using namespace stcfa;

int main() {
  const char *Source =
      "let util = fn a => a + 1 in\n"
      "let helper = fn b => util b in\n"          // only used by legacy
      "let legacy = fn c => helper (c * 2) in\n"  // never called
      "let active = fn d => util d in\n"
      "letrec loop = fn n => if n == 0 then 0 else loop (n - 1) in\n"
      "active 10 + loop 3\n";

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

  auto name = [&](LabelId L) {
    const auto *Lam = cast<LamExpr>(M->expr(M->lamOfLabel(L)));
    return std::string(M->text(M->var(Lam->param()).Name));
  };

  // Call graph from the frozen subtransitive graph.
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine Engine(F);
  CallGraph CG(*M, Engine);
  CG.run();

  std::printf("--- call graph ---\n");
  for (uint32_t Caller = 0; Caller != CG.numCallers(); ++Caller) {
    if (CG.calleesOf(Caller).empty())
      continue;
    std::printf("  %-12s ->",
                Caller == CG.rootIndex() ? "<top-level>"
                                         : ("fn(" + name(LabelId(Caller)) +
                                            ")")
                                               .c_str());
    CG.calleesOf(Caller).forEach(
        [&](uint32_t L) { std::printf(" fn(%s)", name(LabelId(L)).c_str()); });
    std::printf("\n");
  }

  std::printf("\n--- dead functions (call graph) ---\n");
  for (LabelId L : CG.deadFunctions())
    std::printf("  fn(%s) is unreachable from top level\n", name(L).c_str());

  // Liveness-refined CFA for occurrence-level dead code.
  DeadCodeAwareCFA Dc(*M);
  Dc.run();
  uint32_t DeadOccurrences = 0;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    DeadOccurrences += !Dc.isLive(ExprId(I));
  std::printf("\n%u of %u occurrences are dead code\n", DeadOccurrences,
              M->numExprs());

  // Dynamic cross-check: nothing the interpreter touches may be dead.
  InterpreterResult Run = interpret(*M);
  int Violations = 0;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    if ((Run.LabelsAt[I].count() || Run.DidEffect[I]) &&
        !Dc.isLive(ExprId(I)))
      ++Violations;
  std::printf("dynamically executed occurrences misclassified as dead: %d "
              "(must be 0)\n",
              Violations);

  // Narrative checks: legacy and helper are dead, util/active/loop are
  // live.
  bool LegacyDead = false, ActiveLive = false;
  for (LabelId L : CG.deadFunctions()) {
    LegacyDead |= name(L) == "c";
    if (name(L) == "d")
      ActiveLive = false;
  }
  DenseBitset Reached = CG.reachableFunctions();
  for (uint32_t L = 0; L != M->numLabels(); ++L)
    if (name(LabelId(L)) == "d")
      ActiveLive = Reached.contains(L);
  return (Violations == 0 && LegacyDead && ActiveLive) ? 0 : 1;
}
