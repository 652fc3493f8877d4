//===-- tests/lint_test.cpp - Lint engine, passes, renderers --------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the lint subsystem end to end:
///
///  * golden corpus — each `examples/lint/*.stml` file carries
///    `-- expect: rule@line:col` annotations; for every rule annotated in
///    a file, the findings of that rule must match the annotations
///    exactly (position multiset equality, so missing *and* spurious
///    findings fail);
///  * differential — `dead-function` and `applied-non-function` must
///    agree with a reference computed from full standard-CFA value sets
///    (congruence off, literal tracking on);
///  * governor — an expired deadline or a cancelled token yields per-pass
///    partial flags, never a crash or a hang;
///  * renderers — the SARIF output must be well-formed JSON with the
///    2.1.0 structural invariants; text/JSON outputs are spot-checked;
///  * parser spans — the end positions feeding every finding.
///
//===----------------------------------------------------------------------===//

#include "lint/LintEngine.h"
#include "lint/Render.h"

#include "analysis/StandardCFA.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"

#include "TestUtil.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace stcfa;

namespace {

#ifndef STCFA_SOURCE_DIR
#error "tests need STCFA_SOURCE_DIR to locate examples/lint/"
#endif

/// Everything the passes consume, built from source once per test.
struct Pipeline {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;
};

Pipeline buildPipeline(std::string_view Source,
                       CongruenceMode Congruence = CongruenceMode::ByType) {
  Pipeline P;
  P.M = parseMaybeInfer(Source);
  if (!P.M)
    return P;
  SubtransitiveConfig GC;
  GC.Congruence = Congruence;
  P.G = std::make_unique<SubtransitiveGraph>(*P.M, GC);
  P.G->build();
  P.G->close();
  EXPECT_TRUE(P.G->closed() && !P.G->aborted());
  P.F = std::make_unique<FrozenGraph>(*P.G);
  EXPECT_TRUE(P.F->status().isOk());
  return P;
}

LintResult runAll(const Pipeline &P, LintOptions LO = {}) {
  LintEngine Engine(*P.M, *P.F);
  return Engine.run(LO);
}

//===----------------------------------------------------------------------===//
// Golden corpus
//===----------------------------------------------------------------------===//

struct Expectation {
  std::string Rule;
  uint32_t Line, Col;
  friend bool operator<(const Expectation &A, const Expectation &B) {
    return std::tie(A.Rule, A.Line, A.Col) < std::tie(B.Rule, B.Line, B.Col);
  }
  friend bool operator==(const Expectation &A, const Expectation &B) {
    return A.Rule == B.Rule && A.Line == B.Line && A.Col == B.Col;
  }
};

std::string readFileOrDie(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

class LintGolden : public ::testing::TestWithParam<const char *> {};

TEST_P(LintGolden, MatchesAnnotations) {
  std::string Path =
      std::string(STCFA_SOURCE_DIR) + "/examples/lint/" + GetParam();
  std::string Source = readFileOrDie(Path);
  std::vector<Expectation> Expected;
  {
    SCOPED_TRACE(Path);
    std::istringstream In(Source);
    std::string Line;
    while (std::getline(In, Line)) {
      size_t At = Line.find("-- expect: ");
      if (At == std::string::npos)
        continue;
      std::string Spec = Line.substr(At + 11);
      size_t Sep = Spec.find('@');
      size_t Colon = Spec.find(':', Sep);
      ASSERT_TRUE(Sep != std::string::npos && Colon != std::string::npos)
          << "malformed annotation: " << Line;
      Expected.push_back(
          {Spec.substr(0, Sep),
           static_cast<uint32_t>(
               std::stoul(Spec.substr(Sep + 1, Colon - Sep - 1))),
           static_cast<uint32_t>(std::stoul(Spec.substr(Colon + 1)))});
    }
  }
  ASSERT_FALSE(Expected.empty()) << "corpus file carries no annotations";

  Pipeline P = buildPipeline(Source);
  ASSERT_TRUE(P.F);
  LintResult R = runAll(P);

  std::set<std::string> CoveredRules;
  for (const Expectation &E : Expected)
    CoveredRules.insert(E.Rule);
  for (const std::string &Rule : CoveredRules)
    ASSERT_TRUE(LintEngine::findPass(Rule))
        << "annotation names unknown rule '" << Rule << "'";

  // Multiset equality per annotated rule: spurious findings fail too.
  std::vector<Expectation> Actual;
  for (const LintPassReport &Report : R.Reports) {
    EXPECT_TRUE(Report.PassStatus.isOk());
    for (const LintDiagnostic &D : Report.Findings)
      if (CoveredRules.count(D.RuleId))
        Actual.push_back({D.RuleId, D.Range.Begin.Line, D.Range.Begin.Col});
  }
  std::sort(Expected.begin(), Expected.end());
  std::sort(Actual.begin(), Actual.end());
  EXPECT_EQ(Expected, Actual) << "findings diverge from annotations in "
                              << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Corpus, LintGolden,
                         ::testing::Values("dead_function.stml",
                                           "unused_binding.stml",
                                           "applied_non_function.stml",
                                           "called_once.stml",
                                           "impure_in_pure.stml",
                                           "escaping_function.stml"));

//===----------------------------------------------------------------------===//
// Differential against standard CFA
//===----------------------------------------------------------------------===//

using RangeKey = std::tuple<uint32_t, uint32_t, uint32_t, uint32_t>;

RangeKey keyOf(SourceRange R) {
  return {R.Begin.Line, R.Begin.Col, R.End.Line, R.End.Col};
}

/// Reference sets from full standard-CFA value sets (literals tracked):
/// a call site is misapplied when its operator set holds a non-label
/// value id; a label is dead when no operator set holds it.
void referenceFindings(const Module &M, std::multiset<RangeKey> &Misapplied,
                       std::multiset<RangeKey> &DeadLams) {
  StandardCFA CFA(M, /*TrackLiterals=*/true);
  ASSERT_TRUE(CFA.run(Deadline::infinite()).isOk());
  std::vector<bool> Called(M.numLabels(), false);
  forEachExprPreorder(M, M.root(), [&](ExprId, const Expr *E) {
    const auto *A = dyn_cast<AppExpr>(E);
    if (!A)
      return;
    bool NonFn = false;
    CFA.valueSet(A->fn()).forEach([&](size_t V) {
      if (V < M.numLabels())
        Called[V] = true;
      else
        NonFn = true;
    });
    if (NonFn)
      Misapplied.insert(keyOf(M.expr(A->fn())->range()));
  });
  for (uint32_t L = 0; L != M.numLabels(); ++L)
    if (!Called[L])
      DeadLams.insert(keyOf(M.expr(M.lamOfLabel(LabelId(L)))->range()));
}

void checkDifferential(const std::string &Source, const char *Tag) {
  SCOPED_TRACE(Tag);
  // Congruence off: the exact-flow configuration the equivalence proofs
  // cover.  Skip inputs where widening fired (Top nodes): the graph is
  // then a deliberate over-approximation and divergence is expected.
  Pipeline P = buildPipeline(Source, CongruenceMode::None);
  ASSERT_TRUE(P.F);
  for (uint32_t N = 0; N != P.F->numNodes(); ++N)
    if (P.F->op(N) == NodeOp::Top)
      return; // widened graph: a deliberate over-approximation

  LintOptions LO;
  LO.Passes = {"dead-function", "applied-non-function"};
  LintResult R = runAll(P, LO);
  std::multiset<RangeKey> LintMisapplied, LintDead;
  for (const LintPassReport &Report : R.Reports) {
    ASSERT_TRUE(Report.PassStatus.isOk());
    for (const LintDiagnostic &D : Report.Findings)
      (D.RuleId == "applied-non-function" ? LintMisapplied : LintDead)
          .insert(keyOf(D.Range));
  }

  std::multiset<RangeKey> RefMisapplied, RefDead;
  referenceFindings(*P.M, RefMisapplied, RefDead);
  EXPECT_EQ(LintMisapplied, RefMisapplied);
  EXPECT_EQ(LintDead, RefDead);
}

TEST(LintDifferential, GeneratorCorpus) {
  checkDifferential(makeCubicFamily(4), "cubic:4");
  checkDifferential(makeCubicFamily(8), "cubic:8");
  checkDifferential(makeJoinPointFamily(6), "joinpoint:6");
  checkDifferential(makeJoinPointFamily(10), "joinpoint:10");
  checkDifferential(lifeProgram(), "life");
  for (uint64_t Seed : {1, 7, 23}) {
    RandomProgramOptions RO;
    RO.Seed = Seed;
    RO.UseRefs = true;
    RO.UseEffects = true;
    checkDifferential(makeRandomProgram(RO),
                      ("random:" + std::to_string(Seed)).c_str());
  }
}

TEST(LintDifferential, ExamplesCorpus) {
  for (const char *Name :
       {"dead_function.stml", "unused_binding.stml",
        "applied_non_function.stml", "called_once.stml",
        "impure_in_pure.stml", "escaping_function.stml"}) {
    std::string Source = readFileOrDie(std::string(STCFA_SOURCE_DIR) +
                                       "/examples/lint/" + Name);
    checkDifferential(Source, Name);
  }
}

//===----------------------------------------------------------------------===//
// Governor
//===----------------------------------------------------------------------===//

TEST(LintGoverned, ExpiredDeadlineFlagsEveryPassPartial) {
  Pipeline P = buildPipeline(makeCubicFamily(6));
  ASSERT_TRUE(P.F);
  LintOptions LO;
  LO.D = Deadline::afterMillis(0);
  LintResult R = runAll(P, LO);
  ASSERT_EQ(R.Reports.size(), LintEngine::passes().size());
  EXPECT_TRUE(R.anyPartial());
  for (const LintPassReport &Report : R.Reports) {
    EXPECT_TRUE(Report.Partial) << Report.Info->Id;
    EXPECT_EQ(Report.PassStatus.code(), StatusCode::DeadlineExceeded)
        << Report.Info->Id;
  }
}

TEST(LintGoverned, CancelledTokenReportsCancelled) {
  Pipeline P = buildPipeline(makeCubicFamily(6));
  ASSERT_TRUE(P.F);
  LintOptions LO;
  LO.Token = CancellationToken::create();
  LO.Token.requestCancel();
  LintResult R = runAll(P, LO);
  for (const LintPassReport &Report : R.Reports) {
    EXPECT_TRUE(Report.Partial) << Report.Info->Id;
    EXPECT_EQ(Report.PassStatus.code(), StatusCode::Cancelled)
        << Report.Info->Id;
  }
}

TEST(LintGoverned, ParallelRunMatchesSerial) {
  std::string Source = readFileOrDie(std::string(STCFA_SOURCE_DIR) +
                                     "/examples/lint/impure_in_pure.stml");
  Pipeline P = buildPipeline(Source);
  ASSERT_TRUE(P.F);
  LintResult Serial = runAll(P);
  LintOptions LO;
  LO.Threads = 4;
  LintResult Parallel = runAll(P, LO);
  ASSERT_EQ(Serial.Reports.size(), Parallel.Reports.size());
  for (size_t I = 0; I != Serial.Reports.size(); ++I) {
    EXPECT_EQ(Serial.Reports[I].Info, Parallel.Reports[I].Info);
    ASSERT_EQ(Serial.Reports[I].Findings.size(),
              Parallel.Reports[I].Findings.size());
    for (size_t J = 0; J != Serial.Reports[I].Findings.size(); ++J) {
      EXPECT_EQ(Serial.Reports[I].Findings[J].Message,
                Parallel.Reports[I].Findings[J].Message);
      EXPECT_EQ(keyOf(Serial.Reports[I].Findings[J].Range),
                keyOf(Parallel.Reports[I].Findings[J].Range));
    }
  }
}

TEST(LintEngineApi, PassSelectionAndLookup) {
  EXPECT_EQ(LintEngine::passes().size(), 6u);
  EXPECT_NE(LintEngine::findPass("dead-function"), nullptr);
  EXPECT_EQ(LintEngine::findPass("no-such-pass"), nullptr);
  Pipeline P = buildPipeline("let f = fn x => x in f 1");
  ASSERT_TRUE(P.F);
  LintOptions LO;
  LO.Passes = {"called-once"};
  LintResult R = runAll(P, LO);
  ASSERT_EQ(R.Reports.size(), 1u);
  EXPECT_STREQ(R.Reports[0].Info->Id, "called-once");
  ASSERT_EQ(R.Reports[0].Findings.size(), 1u);
  EXPECT_EQ(R.NumNotes, 1u);
  EXPECT_EQ(R.NumErrors, 0u);
}

//===----------------------------------------------------------------------===//
// A minimal JSON reader for structural SARIF validation
//===----------------------------------------------------------------------===//

struct Json {
  enum Kind { Null, Bool, Num, Str, Arr, Obj } K = Null;
  bool B = false;
  double N = 0;
  std::string S;
  std::vector<Json> A;
  std::map<std::string, Json> O;

  const Json *at(const std::string &Key) const {
    auto It = O.find(Key);
    return It == O.end() ? nullptr : &It->second;
  }
};

struct JsonParser {
  const std::string &Src;
  size_t Pos = 0;
  bool Failed = false;

  void skip() {
    while (Pos < Src.size() && std::isspace(static_cast<unsigned char>(Src[Pos])))
      ++Pos;
  }
  bool eat(char C) {
    skip();
    if (Pos < Src.size() && Src[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  Json fail() {
    Failed = true;
    return {};
  }
  Json parse() {
    skip();
    if (Pos >= Src.size())
      return fail();
    char C = Src[Pos];
    if (C == '{') {
      ++Pos;
      Json V;
      V.K = Json::Obj;
      if (eat('}'))
        return V;
      do {
        skip();
        Json Key = parseString();
        if (Failed || !eat(':'))
          return fail();
        V.O[Key.S] = parse();
        if (Failed)
          return fail();
      } while (eat(','));
      return eat('}') ? V : fail();
    }
    if (C == '[') {
      ++Pos;
      Json V;
      V.K = Json::Arr;
      if (eat(']'))
        return V;
      do {
        V.A.push_back(parse());
        if (Failed)
          return fail();
      } while (eat(','));
      return eat(']') ? V : fail();
    }
    if (C == '"')
      return parseString();
    if (Src.compare(Pos, 4, "true") == 0) {
      Pos += 4;
      Json V;
      V.K = Json::Bool;
      V.B = true;
      return V;
    }
    if (Src.compare(Pos, 5, "false") == 0) {
      Pos += 5;
      Json V;
      V.K = Json::Bool;
      V.B = false;
      return V;
    }
    if (Src.compare(Pos, 4, "null") == 0) {
      Pos += 4;
      return {};
    }
    // Number.
    size_t Start = Pos;
    while (Pos < Src.size() &&
           (std::isdigit(static_cast<unsigned char>(Src[Pos])) ||
            Src[Pos] == '-' || Src[Pos] == '+' || Src[Pos] == '.' ||
            Src[Pos] == 'e' || Src[Pos] == 'E'))
      ++Pos;
    if (Pos == Start)
      return fail();
    Json V;
    V.K = Json::Num;
    V.N = std::stod(Src.substr(Start, Pos - Start));
    return V;
  }
  Json parseString() {
    skip();
    if (Pos >= Src.size() || Src[Pos] != '"')
      return fail();
    ++Pos;
    Json V;
    V.K = Json::Str;
    while (Pos < Src.size() && Src[Pos] != '"') {
      if (Src[Pos] == '\\') {
        if (Pos + 1 >= Src.size())
          return fail();
        char E = Src[Pos + 1];
        Pos += 2;
        switch (E) {
        case 'n':
          V.S += '\n';
          break;
        case 't':
          V.S += '\t';
          break;
        case 'r':
          V.S += '\r';
          break;
        case 'u':
          if (Pos + 4 > Src.size())
            return fail();
          Pos += 4; // structural check only; code point dropped
          break;
        default:
          V.S += E;
        }
        continue;
      }
      V.S += Src[Pos++];
    }
    return eat('"') ? V : fail();
  }
};

Json parseJsonOrDie(const std::string &Text) {
  JsonParser P{Text};
  Json V = P.parse();
  P.skip();
  EXPECT_FALSE(P.Failed) << "invalid JSON near offset " << P.Pos;
  EXPECT_EQ(P.Pos, Text.size()) << "trailing garbage after JSON";
  return V;
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

TEST(LintRender, SarifStructureValidates) {
  std::string Source = readFileOrDie(std::string(STCFA_SOURCE_DIR) +
                                     "/examples/lint/applied_non_function.stml");
  Pipeline P = buildPipeline(Source);
  ASSERT_TRUE(P.F);
  LintResult R = runAll(P);
  ASSERT_GT(R.NumErrors, 0u);

  Json Log = parseJsonOrDie(renderLintSarif(R, "applied_non_function.stml"));
  ASSERT_EQ(Log.K, Json::Obj);
  ASSERT_TRUE(Log.at("$schema"));
  ASSERT_TRUE(Log.at("version"));
  EXPECT_EQ(Log.at("version")->S, "2.1.0");

  const Json *Runs = Log.at("runs");
  ASSERT_TRUE(Runs && Runs->K == Json::Arr && Runs->A.size() == 1);
  const Json &Run = Runs->A[0];

  const Json *Driver = Run.at("tool") ? Run.at("tool")->at("driver") : nullptr;
  ASSERT_TRUE(Driver);
  EXPECT_EQ(Driver->at("name")->S, "stcfa-lint");
  const Json *Rules = Driver->at("rules");
  ASSERT_TRUE(Rules && Rules->K == Json::Arr);
  EXPECT_EQ(Rules->A.size(), LintEngine::passes().size());
  for (const Json &Rule : Rules->A) {
    ASSERT_TRUE(Rule.at("id"));
    ASSERT_TRUE(Rule.at("shortDescription"));
    const Json *Level =
        Rule.at("defaultConfiguration")
            ? Rule.at("defaultConfiguration")->at("level")
            : nullptr;
    ASSERT_TRUE(Level);
    EXPECT_TRUE(Level->S == "note" || Level->S == "warning" ||
                Level->S == "error");
  }

  const Json *Invocations = Run.at("invocations");
  ASSERT_TRUE(Invocations && Invocations->A.size() == 1);
  ASSERT_TRUE(Invocations->A[0].at("executionSuccessful"));
  EXPECT_TRUE(Invocations->A[0].at("executionSuccessful")->B);

  const Json *Results = Run.at("results");
  ASSERT_TRUE(Results && Results->K == Json::Arr);
  EXPECT_EQ(Results->A.size(),
            size_t(R.NumErrors + R.NumWarnings + R.NumNotes));
  bool SawError = false;
  for (const Json &Res : Results->A) {
    ASSERT_TRUE(Res.at("ruleId"));
    const Json *Idx = Res.at("ruleIndex");
    ASSERT_TRUE(Idx);
    ASSERT_LT(size_t(Idx->N), Rules->A.size());
    EXPECT_EQ(Rules->A[size_t(Idx->N)].at("id")->S, Res.at("ruleId")->S);
    ASSERT_TRUE(Res.at("level"));
    SawError |= Res.at("level")->S == "error";
    ASSERT_TRUE(Res.at("message") && Res.at("message")->at("text"));
    const Json *Locs = Res.at("locations");
    ASSERT_TRUE(Locs && !Locs->A.empty());
    const Json *Region = Locs->A[0].at("physicalLocation")
                             ? Locs->A[0].at("physicalLocation")->at("region")
                             : nullptr;
    ASSERT_TRUE(Region);
    ASSERT_TRUE(Region->at("startLine"));
    EXPECT_GE(Region->at("startLine")->N, 1);
    if (const Json *EndCol = Region->at("endColumn")) {
      const Json *StartCol = Region->at("startColumn");
      ASSERT_TRUE(StartCol);
      if (Region->at("endLine")->N == Region->at("startLine")->N) {
        EXPECT_GT(EndCol->N, StartCol->N);
      }
    }
  }
  EXPECT_TRUE(SawError);
}

TEST(LintRender, SarifPartialRunMarksInvocation) {
  Pipeline P = buildPipeline(makeCubicFamily(4));
  ASSERT_TRUE(P.F);
  LintOptions LO;
  LO.D = Deadline::afterMillis(0);
  LintResult R = runAll(P, LO);
  Json Log = parseJsonOrDie(renderLintSarif(R, "cubic4"));
  const Json &Inv = Log.at("runs")->A[0].at("invocations")->A[0];
  EXPECT_FALSE(Inv.at("executionSuccessful")->B);
  const Json *Partial = Inv.at("properties")->at("partialPasses");
  ASSERT_TRUE(Partial && Partial->K == Json::Arr);
  EXPECT_EQ(Partial->A.size(), LintEngine::passes().size());
}

TEST(LintRender, JsonShapeAndEscaping) {
  Pipeline P = buildPipeline("let f = fn x => x in let dead = fn y => y in f 1");
  ASSERT_TRUE(P.F);
  LintResult R = runAll(P);
  Json Doc = parseJsonOrDie(renderLintJson(R, "in\"put.stml"));
  EXPECT_EQ(Doc.at("tool")->S, "stcfa-lint");
  EXPECT_EQ(Doc.at("input")->S, "in\"put.stml");
  ASSERT_TRUE(Doc.at("passes") && Doc.at("passes")->K == Json::Arr);
  EXPECT_EQ(Doc.at("passes")->A.size(), LintEngine::passes().size());
  for (const Json &Pass : Doc.at("passes")->A) {
    ASSERT_TRUE(Pass.at("pass"));
    ASSERT_TRUE(Pass.at("status"));
    ASSERT_TRUE(Pass.at("findings"));
  }
  ASSERT_TRUE(Doc.at("summary"));
  EXPECT_EQ(size_t(Doc.at("summary")->at("notes")->N), size_t(R.NumNotes));
}

TEST(LintRender, TextIncludesRuleTagsAndSummary) {
  std::string Source = readFileOrDie(std::string(STCFA_SOURCE_DIR) +
                                     "/examples/lint/dead_function.stml");
  Pipeline P = buildPipeline(Source);
  ASSERT_TRUE(P.F);
  std::string Text = renderLintText(runAll(P), "dead_function.stml");
  EXPECT_NE(Text.find("[dead-function]"), std::string::npos);
  EXPECT_NE(Text.find("dead_function.stml:3:14-3:27: warning:"),
            std::string::npos);
  EXPECT_NE(Text.find("error(s)"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Parser spans (the positions every finding is built from)
//===----------------------------------------------------------------------===//

TEST(LintSpans, ParserRecordsEndPositions) {
  auto M = parseOrDie("fn x => x");
  ASSERT_TRUE(M);
  SourceRange R = M->expr(M->root())->range();
  EXPECT_EQ(R.Begin, (SourceLoc{1, 1}));
  EXPECT_EQ(R.End, (SourceLoc{1, 10}));
  EXPECT_TRUE(R.hasExtent());
}

TEST(LintSpans, ApplicationSpansLeftOperandToEnd) {
  auto M = parseOrDie("let f = fn x => x in f f");
  ASSERT_TRUE(M);
  const auto *Let = cast<LetExpr>(M->expr(M->root()));
  SourceRange App = M->expr(Let->body())->range();
  EXPECT_EQ(App.Begin, (SourceLoc{1, 22}));
  EXPECT_EQ(App.End, (SourceLoc{1, 25}));
  SourceRange Whole = M->expr(M->root())->range();
  EXPECT_EQ(Whole.Begin, (SourceLoc{1, 1}));
  EXPECT_EQ(Whole.End, (SourceLoc{1, 25}));
}

TEST(LintSpans, MultiLineTupleSpan) {
  auto M = parseOrDie("(1,\n 22)");
  ASSERT_TRUE(M);
  SourceRange R = M->expr(M->root())->range();
  EXPECT_EQ(R.Begin, (SourceLoc{1, 1}));
  EXPECT_EQ(R.End, (SourceLoc{2, 5}));
}

TEST(LintSpans, BinaryPrimSpansBothOperands) {
  auto M = parseOrDie("1 + 23");
  ASSERT_TRUE(M);
  SourceRange R = M->expr(M->root())->range();
  EXPECT_EQ(R.Begin, (SourceLoc{1, 1}));
  EXPECT_EQ(R.End, (SourceLoc{1, 7}));
}

TEST(LintSpans, ParseErrorCarriesTokenRange) {
  DiagnosticEngine Diags;
  EXPECT_EQ(parseProgram("let x = in x", Diags), nullptr);
  ASSERT_TRUE(Diags.hasErrors());
  const Diagnostic &D = Diags.diagnostics().front();
  EXPECT_TRUE(D.Range.hasExtent());
  EXPECT_EQ(D.Range.Begin, D.Loc);
  std::string Rendered = Diags.render();
  EXPECT_NE(Rendered.find(":9-"), std::string::npos) << Rendered;
}

} // namespace
