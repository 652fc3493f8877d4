//===-- examples/analysis_tour.cpp - Comparing the four analyses ----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs all four analyses of the repository on the paper's cubic family
/// and prints a precision/cost comparison:
///
///   * standard (cubic) inclusion-based CFA — the exact monovariant result,
///   * the subtransitive graph — same answers, near-linear construction,
///   * unification-based CFA — almost-linear but coarser,
///   * polyvariant — finer than monovariant on reused functions.
///
//===----------------------------------------------------------------------===//

#include "analysis/StandardCFA.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "gen/Generators.h"
#include "parser/Parser.h"
#include "poly/Polyvariant.h"
#include "sema/Infer.h"
#include "support/TablePrinter.h"
#include "support/Timer.h"
#include "unify/UnificationCFA.h"

#include <cstdio>

using namespace stcfa;

int main() {
  std::string Source = makeCubicFamily(24);
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
  std::printf("workload: the paper's cubic family at size 24 "
              "(%u exprs, %u functions)\n\n",
              M->numExprs(), M->numLabels());

  // Total label-set mass = sum of |L(e)| over all occurrences; a smaller
  // mass with the same soundness means a more precise analysis.
  auto mass = [&](auto LabelsOf) {
    uint64_t Total = 0;
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      Total += LabelsOf(ExprId(I)).count();
    return Total;
  };

  TablePrinter Table({"analysis", "time(ms)", "set mass", "note"});

  Timer T;
  StandardCFA Std(*M);
  Std.run();
  double StdMs = T.millis();
  uint64_t StdMass = mass([&](ExprId E) { return Std.labelSet(E); });
  Table.addRow({"standard (cubic)", TablePrinter::num(StdMs),
                TablePrinter::num(StdMass), "exact monovariant"});

  T.reset();
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  double GraphMs = T.millis();
  FrozenGraph F(G);
  QueryEngine R(F);
  uint64_t GraphMass = mass([&](ExprId E) { return R.labelsOf(E); });
  Table.addRow({"subtransitive", TablePrinter::num(GraphMs),
                TablePrinter::num(GraphMass),
                GraphMass == StdMass ? "identical answers (Prop. 1/2)"
                                     : "MISMATCH!"});

  T.reset();
  UnificationCFA U(*M);
  U.run();
  double UniMs = T.millis();
  uint64_t UniMass = mass([&](ExprId E) { return U.labelSet(E); });
  Table.addRow({"unification", TablePrinter::num(UniMs),
                TablePrinter::num(UniMass),
                UniMass > StdMass ? "coarser (equality-based)" : "?"});

  T.reset();
  PolyvariantCFA Poly(*M);
  Poly.run();
  double PolyMs = T.millis();
  FrozenGraph PF(Poly.graph());
  QueryEngine PR(PF);
  uint64_t PolyMass = mass([&](ExprId E) { return PR.labelsOf(E); });
  Table.addRow({"polyvariant", TablePrinter::num(PolyMs),
                TablePrinter::num(PolyMass),
                PolyMass < StdMass ? "finer (per-use summaries)"
                                   : "no win on this shape"});

  std::printf("%s", Table.render().c_str());
  return GraphMass == StdMass && UniMass >= StdMass ? 0 : 1;
}
