//===-- tests/types_infer_test.cpp - Type table and HM inference ----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "sema/Infer.h"
#include "types/Type.h"

#include <map>
#include <random>
#include <set>
#include <tuple>

using namespace stcfa;

namespace {

//===----------------------------------------------------------------------===//
// TypeTable
//===----------------------------------------------------------------------===//

TEST(TypeTable, HashConsing) {
  TypeTable TT;
  TypeId A = TT.arrowType(TT.intType(), TT.boolType());
  TypeId B = TT.arrowType(TT.intType(), TT.boolType());
  EXPECT_EQ(A, B);
  TypeId C = TT.arrowType(TT.boolType(), TT.intType());
  EXPECT_NE(A, C);
}

TEST(TypeTable, TreeSize) {
  TypeTable TT;
  EXPECT_EQ(TT.treeSize(TT.intType()), 1u);
  TypeId F = TT.arrowType(TT.intType(), TT.intType());
  EXPECT_EQ(TT.treeSize(F), 3u);
  TypeId P = TT.tupleType({F, TT.boolType()});
  EXPECT_EQ(TT.treeSize(P), 5u);
}

TEST(TypeTable, OrderAndArity) {
  TypeTable TT;
  TypeId I2I = TT.arrowType(TT.intType(), TT.intType());
  EXPECT_EQ(TT.order(I2I), 1u);
  EXPECT_EQ(TT.arity(I2I), 1u);
  // (Int -> Int) -> Int list-ish: order 2, curried arity counting per the
  // paper ("curried integer map has arity 2 and order 2").
  TypeId HOF = TT.arrowType(I2I, TT.arrowType(TT.intType(), TT.intType()));
  EXPECT_EQ(TT.order(HOF), 2u);
  EXPECT_EQ(TT.arity(HOF), 2u);
  EXPECT_EQ(TT.order(TT.intType()), 0u);
}

TEST(TypeTable, Render) {
  TypeTable TT;
  StringInterner SI;
  TypeId F = TT.arrowType(TT.arrowType(TT.intType(), TT.boolType()),
                          TT.unitType());
  EXPECT_EQ(TT.render(F, SI), "(Int -> Bool) -> Unit");
  TypeId P = TT.tupleType({TT.intType(), TT.refType(TT.boolType())});
  EXPECT_EQ(TT.render(P, SI), "(Int, Ref Bool)");
  Symbol D = SI.intern("IntList");
  EXPECT_EQ(TT.render(TT.dataType(D), SI), "IntList");
}

/// One random type constructor over earlier ids: what `internScript`
/// interns, replayable.
struct TypeStep {
  TypeKind Kind;
  uint32_t VarNum;
  Symbol Name;
  std::vector<TypeId> Args;
};

TypeId internStep(TypeTable &TT, const TypeStep &S) {
  switch (S.Kind) {
  case TypeKind::Arrow:
    return TT.arrowType(S.Args[0], S.Args[1]);
  case TypeKind::Tuple:
    return TT.tupleType(S.Args);
  case TypeKind::Ref:
    return TT.refType(S.Args[0]);
  case TypeKind::Data:
    return TT.dataType(S.Name);
  default:
    return TT.varType(S.VarNum);
  }
}

/// 10^4 random arrow, tuple, ref, data and variable types, each built
/// from types interned before it, so the script outgrows the index many
/// times over.
std::vector<TypeStep> randomTypeScript(TypeTable &TT, StringInterner &SI) {
  std::mt19937_64 Rng(7);
  std::vector<TypeId> Known = {TT.intType(), TT.boolType(), TT.unitType(),
                               TT.stringType()};
  const Symbol Names[] = {SI.intern("IntList"), SI.intern("Tree"),
                          SI.intern("Opt")};
  std::vector<TypeStep> Script;
  auto any = [&] { return Known[Rng() % Known.size()]; };
  while (Script.size() != 10000) {
    TypeStep S{TypeKind::Var, 0, Symbol(), {}};
    switch (Rng() % 5) {
    case 0:
      S.Kind = TypeKind::Arrow;
      S.Args = {any(), any()};
      break;
    case 1:
      S.Kind = TypeKind::Tuple;
      for (uint64_t I = 0, N = 2 + Rng() % 3; I != N; ++I)
        S.Args.push_back(any());
      break;
    case 2:
      S.Kind = TypeKind::Ref;
      S.Args = {any()};
      break;
    case 3:
      S.Kind = TypeKind::Data;
      S.Name = Names[Rng() % 3];
      break;
    default:
      S.VarNum = static_cast<uint32_t>(Rng() % 64);
      break;
    }
    Script.push_back(S);
    Known.push_back(internStep(TT, S));
  }
  return Script;
}

TEST(TypeTable, InterningStaysCanonicalAcrossIndexGrowth) {
  TypeTable TT;
  StringInterner SI;
  std::vector<TypeStep> Script = randomTypeScript(TT, SI);
  std::vector<TypeId> First;
  // Replay the script on a fresh table: the same sequence, the same ids.
  TypeTable Fresh;
  for (const TypeStep &S : Script)
    First.push_back(internStep(Fresh, S));
  const uint32_t Size = Fresh.size();
  // Interned a second time, every type is found, not re-created.
  for (size_t I = 0; I != Script.size(); ++I)
    ASSERT_EQ(internStep(Fresh, Script[I]), First[I]) << "step " << I;
  EXPECT_EQ(Fresh.size(), Size);
  EXPECT_EQ(Fresh.size(), TT.size());
}

TEST(TypeTable, StructurallyDistinctTypesGetDistinctIds) {
  TypeTable TT;
  StringInterner SI;
  std::vector<TypeStep> Script = randomTypeScript(TT, SI);
  // Structure -> id must be a bijection onto the ids the script produced.
  std::map<std::tuple<int, uint32_t, uint32_t, std::vector<uint32_t>>,
           uint32_t>
      IdOf;
  std::set<uint32_t> Ids;
  for (const TypeStep &S : Script) {
    TypeId Id = internStep(TT, S);
    const Type &T = TT.type(Id);
    ASSERT_EQ(T.Kind, S.Kind);
    ASSERT_EQ(std::vector<TypeId>(TT.args(Id).begin(), TT.args(Id).end()),
              S.Args);
    std::vector<uint32_t> Args;
    for (TypeId A : S.Args)
      Args.push_back(A.index());
    auto Key = std::make_tuple(int(S.Kind), S.VarNum,
                               S.Name.isValid() ? S.Name.index() : ~0u, Args);
    auto [It, New] = IdOf.emplace(Key, Id.index());
    EXPECT_EQ(It->second, Id.index());
    if (New) {
      EXPECT_TRUE(Ids.insert(Id.index()).second) << "two structures, one id";
    }
  }
  // Every type but the four base types came from the script.
  EXPECT_EQ(Ids.size(), TT.size() - 4);
  EXPECT_GT(Ids.size(), 4000u);
}

TEST(TypeTable, RenderIsUnchanged) {
  TypeTable TT;
  StringInterner SI;
  TypeId I2I = TT.arrowType(TT.intType(), TT.intType());
  TypeId V0 = TT.varType(0), V3 = TT.varType(3);
  TypeId L = TT.dataType(SI.intern("IntList"));
  EXPECT_EQ(TT.render(TT.refType(I2I), SI), "Ref (Int -> Int)");
  EXPECT_EQ(TT.render(TT.arrowType(TT.refType(V0), V3), SI),
            "(Ref 't0) -> 't3");
  EXPECT_EQ(TT.render(TT.arrowType(TT.tupleType({V0, L, I2I}),
                                   TT.refType(TT.stringType())),
                      SI),
            "('t0, IntList, Int -> Int) -> Ref String");
  EXPECT_EQ(TT.render(TT.arrowType(I2I, TT.arrowType(V3, TT.unitType())),
                      SI),
            "(Int -> Int) -> 't3 -> Unit");
  EXPECT_EQ(TT.render(TT.refType(TT.refType(TT.boolType())), SI),
            "Ref (Ref Bool)");
}

//===----------------------------------------------------------------------===//
// Inference: successes
//===----------------------------------------------------------------------===//

/// Renders the inferred type of the root expression.
std::string rootType(const std::string &Source) {
  auto M = parseAndInfer(Source);
  if (!M)
    return "<error>";
  return M->types().render(M->expr(M->root())->type(), M->strings());
}

TEST(Infer, Literals) {
  EXPECT_EQ(rootType("42"), "Int");
  EXPECT_EQ(rootType("true"), "Bool");
  EXPECT_EQ(rootType("unit"), "Unit");
  EXPECT_EQ(rootType("\"s\""), "String");
}

TEST(Infer, Functions) {
  EXPECT_EQ(rootType("fn x => x + 1"), "Int -> Int");
  EXPECT_EQ(rootType("(fn x => x) 3"), "Int");
  EXPECT_EQ(rootType("fn f => f 1 + 1"), "(Int -> Int) -> Int");
}

TEST(Infer, LetPolymorphism) {
  // id is used at Int and at Bool: requires generalization.
  EXPECT_EQ(rootType("let id = fn x => x in if id true then id 1 else 2"),
            "Int");
  // Self-application of polymorphic id (the classic let-poly example).
  EXPECT_EQ(rootType("let id = fn x => x in (id id) 7"), "Int");
}

TEST(Infer, LambdasAreMonomorphic) {
  // The same program with a lambda-bound id must fail.
  DiagnosticEngine Diags;
  auto M = parseProgram(
      "(fn id => if id true then id 1 else 2) (fn x => x)", Diags);
  ASSERT_TRUE(M);
  DiagnosticEngine InferDiags;
  EXPECT_FALSE(inferTypes(*M, InferDiags));
}

TEST(Infer, LetRec) {
  EXPECT_EQ(rootType("letrec fact = fn n => if n == 0 then 1 else "
                     "n * fact (n - 1) in fact"),
            "Int -> Int");
}

TEST(Infer, TuplesAndProjections) {
  EXPECT_EQ(rootType("(1, true)"), "(Int, Bool)");
  EXPECT_EQ(rootType("#2 (1, true)"), "Bool");
}

TEST(Infer, DeferredProjectionThroughUse) {
  // `#1 p` inside the lambda is resolved by the later application.
  EXPECT_EQ(rootType("let fst = fn p => #1 p in fst (7, true)"), "Int");
}

TEST(Infer, Datatypes) {
  EXPECT_EQ(rootType("data IntList = INil | ICons(Int, IntList);\n"
                     "ICons(1, INil)"),
            "IntList");
  EXPECT_EQ(rootType("data IntList = INil | ICons(Int, IntList);\n"
                     "case ICons(1, INil) of INil => 0 | ICons(h, t) => h "
                     "end"),
            "Int");
}

TEST(Infer, Refs) {
  EXPECT_EQ(rootType("ref 1"), "Ref Int");
  EXPECT_EQ(rootType("!(ref 1)"), "Int");
  EXPECT_EQ(rootType("let r = ref 1 in r := 2"), "Unit");
}

TEST(Infer, ValueRestriction) {
  // `ref (fn x => x)` must not generalize: using the cell at two types is
  // an error.
  DiagnosticEngine Diags;
  auto M = parseProgram("let r = ref (fn x => x) in "
                        "let u = r := (fn b => b + 1) in (!r) true",
                        Diags);
  ASSERT_TRUE(M);
  DiagnosticEngine InferDiags;
  EXPECT_FALSE(inferTypes(*M, InferDiags));
}

TEST(Infer, EveryOccurrenceGetsAType) {
  auto M = parseAndInfer("let id = fn x => x in (id 1, id true)");
  ASSERT_TRUE(M);
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    EXPECT_TRUE(M->expr(ExprId(I))->type().isValid()) << "expr " << I;
}

TEST(Infer, OccurrencesGetInstantiatedMonotypes) {
  auto M = parseAndInfer("let id = fn x => x in (id 1, id true)");
  ASSERT_TRUE(M);
  // The two occurrences of id have different instantiated types — exactly
  // the let-expansion monotypes of the paper's Section 5.
  std::vector<std::string> Types;
  forEachExprPreorder(*M, M->root(), [&](ExprId, const Expr *E) {
    if (isa<VarExpr>(E) && M->text(M->var(cast<VarExpr>(E)->var()).Name) ==
                               "id")
      Types.push_back(M->types().render(E->type(), M->strings()));
  });
  ASSERT_EQ(Types.size(), 2u);
  EXPECT_EQ(Types[0], "Int -> Int");
  EXPECT_EQ(Types[1], "Bool -> Bool");
}

//===----------------------------------------------------------------------===//
// Inference: failures
//===----------------------------------------------------------------------===//

void expectIllTyped(const std::string &Source) {
  DiagnosticEngine Diags;
  auto M = parseProgram(Source, Diags);
  ASSERT_TRUE(M) << Diags.render();
  DiagnosticEngine InferDiags;
  EXPECT_FALSE(inferTypes(*M, InferDiags)) << Source;
  EXPECT_TRUE(InferDiags.hasErrors());
}

TEST(Infer, Mismatches) {
  expectIllTyped("1 + true");
  expectIllTyped("if 1 then 2 else 3");
  expectIllTyped("(fn x => x x) (fn y => y)"); // occurs check
  expectIllTyped("#3 (1, 2)");                 // index out of range
  expectIllTyped("#1 5");                      // projection of non-tuple
  expectIllTyped("not 3");
  expectIllTyped("fn p => #1 p");              // unresolved flex projection
  expectIllTyped("data D = C(Int);\nC(true)");
  expectIllTyped("data D = C(Int);\nif true then C(1) else 2");
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(Metrics, BoundedTypeFamilyHasSmallKAvg) {
  auto M = parseAndInfer("let id = fn x => x + 1 in id (id (id 3))");
  ASSERT_TRUE(M);
  TypeMetrics TM = computeTypeMetrics(*M);
  EXPECT_GE(TM.AvgTypeSize, 1.0);
  EXPECT_LE(TM.AvgTypeSize, 4.0); // the paper's "around 2 or 3"
  EXPECT_EQ(TM.MaxOrder, 1u);
  EXPECT_EQ(TM.MaxTypeSize, 3u);
}

TEST(Metrics, OrderGrowsWithHigherOrderCode) {
  auto M = parseAndInfer("fn f => fn x => f (f x) + 1");
  ASSERT_TRUE(M);
  TypeMetrics TM = computeTypeMetrics(*M);
  EXPECT_EQ(TM.MaxOrder, 2u);
  EXPECT_EQ(TM.MaxArity, 2u);
}

} // namespace
