//===-- examples/quickstart.cpp - First steps with the library ------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The smallest end-to-end use of the public API:
///
///   1. parse a program,
///   2. type-check it,
///   3. build + close the subtransitive control-flow graph,
///   4. freeze it into a CSR snapshot and answer control-flow queries by
///      plain graph reachability through the query engine.
///
/// Everything here runs in time linear in the program (for the build and
/// the close) plus linear per query — the paper's headline result.
///
//===----------------------------------------------------------------------===//

#include "ast/Printer.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "parser/Parser.h"
#include "sema/Infer.h"

#include <cstdio>

using namespace stcfa;

int main() {
  // A higher-order program: `twice` applies its argument two times; which
  // functions can each call site invoke?
  const char *Source =
      "let twice = fn f => fn x => f (f x) in\n"
      "let inc = fn a => a + 1 in\n"
      "let dbl = fn b => b * 2 in\n"
      "let pick = fn n => if n < 10 then inc else dbl in\n"
      "twice (pick 7) 100\n";

  std::printf("--- program ---\n%s\n", Source);

  // 1. Parse.
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Source, Diags);
  if (!M) {
    std::fprintf(stderr, "parse error:\n%s", Diags.render().c_str());
    return 1;
  }

  // 2. Type inference (the analysis itself never reads the types; they
  //    certify termination and enable the datatype congruences).
  DiagnosticEngine InferDiags;
  if (!inferTypes(*M, InferDiags)) {
    std::fprintf(stderr, "type error:\n%s", InferDiags.render().c_str());
    return 1;
  }

  // 3. The subtransitive graph: one linear build pass, one demand-driven
  //    close pass.
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  std::printf("graph: %llu nodes, %llu edges (build+close)\n\n",
              (unsigned long long)G.stats().totalNodes(),
              (unsigned long long)G.stats().totalEdges());

  // 4. Queries are graph reachability over the frozen snapshot.
  FrozenGraph Frozen(G);
  QueryEngine Engine(Frozen);
  std::printf("--- callable functions per call site ---\n");
  for (uint32_t I = 0; I != M->numExprs(); ++I) {
    const auto *App = dyn_cast<AppExpr>(M->expr(ExprId(I)));
    if (!App)
      continue;
    DenseBitset Callees = Engine.labelsOf(App->fn());
    std::printf("%-12s ->", describeExpr(*M, ExprId(I)).c_str());
    Callees.forEach([&](uint32_t L) {
      const auto *Lam = cast<LamExpr>(M->expr(M->lamOfLabel(LabelId(L))));
      std::printf(" fn(%s)", std::string(M->text(M->var(Lam->param()).Name))
                                 .c_str());
    });
    std::printf("\n");
  }

  // Point queries, Algorithm 1 style.
  std::printf("\n--- point queries ---\n");
  VarId F = VarId::invalid();
  for (uint32_t V = 0; V != M->numVars(); ++V)
    if (M->text(M->var(VarId(V)).Name) == "f")
      F = VarId(V);
  DenseBitset FSet = Engine.labelsOfVar(F);
  std::printf("the parameter `f` of twice may be %u function(s): inc, dbl\n",
              FSet.count());
  return FSet.count() == 2 ? 0 : 1;
}
