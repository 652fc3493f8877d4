//===-- perfbench/Check.cpp - Oracles for every answer --------------------===//

#include "Check.h"

#include "analysis/StandardCFA.h"
#include "lint/LintEngine.h"
#include "parser/Parser.h"
#include "sema/Infer.h"
#include "slice/DependenceGraph.h"
#include "slice/Slicer.h"
#include "support/Diagnostics.h"

#include <cstdlib>

using namespace perfbench;
using namespace stcfa;
using serve::JsonValue;

namespace {

std::unique_ptr<Module> parseAndInfer(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Source, Diags);
  if (M) {
    DiagnosticEngine InferDiags;
    (void)inferTypes(*M, InferDiags);
  }
  return M;
}

std::vector<uint32_t> members(const DenseBitset &S) {
  std::vector<uint32_t> Out;
  S.forEach([&](uint32_t L) { Out.push_back(L); });
  return Out;
}

/// Reads a JSON array of non-negative integers; false if it is not one.
bool intArray(const JsonValue *V, std::vector<uint32_t> &Out) {
  Out.clear();
  if (!V || !V->isArray())
    return false;
  for (const JsonValue &X : V->items()) {
    if (!X.isInt() || X.asInt() < 0)
      return false;
    Out.push_back(uint32_t(X.asInt()));
  }
  return true;
}

} // namespace

bool Truth::compute(const std::string &Source) {
  M = parseAndInfer(Source);
  if (!M)
    return false;
  StandardCFA Std(*M);
  Std.run();
  Sets.clear();
  Sets.reserve(M->numExprs());
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Sets.push_back(Std.labelSet(ExprId(I)));
  Occ.clear();
  return true;
}

const std::vector<uint32_t> &Truth::occurrences(uint32_t Label) {
  if (Occ.empty()) {
    Occ.resize(M->numLabels());
    for (uint32_t I = 0; I != Sets.size(); ++I)
      Sets[I].forEach([&](uint32_t L) { Occ[L].push_back(I); });
  }
  return Occ[Label];
}

std::string perfbench::checkAllLabelsText(const std::string &Out,
                                          const Truth &T) {
  size_t Pos = 0;
  uint32_t Next = 0; // next occurrence id the output may name
  std::vector<uint32_t> Got;
  while (Pos < Out.size()) {
    size_t End = Out.find('\n', Pos);
    if (End == std::string::npos)
      End = Out.size();
    // `<kind>@<id>(<line>:<col>)   {fn#<l>(...), ...}`
    size_t At = Out.find('@', Pos), Brace = Out.find('{', Pos);
    if (At >= End || Brace >= End)
      return "malformed line at byte " + std::to_string(Pos);
    uint32_t Id = uint32_t(std::strtoul(Out.c_str() + At + 1, nullptr, 10));
    if (Id >= T.numExprs() || Id < Next)
      return "occurrence " + std::to_string(Id) + " out of order or range";
    for (; Next != Id; ++Next)
      if (!T.Sets[Next].empty())
        return "occurrence " + std::to_string(Next) + " missing";
    ++Next;
    Got.clear();
    for (size_t F = Out.find("fn#", Brace); F < End;
         F = Out.find("fn#", F + 3))
      Got.push_back(uint32_t(std::strtoul(Out.c_str() + F + 3, nullptr, 10)));
    if (Got != members(T.Sets[Id]))
      return "label set of occurrence " + std::to_string(Id) + " differs";
    Pos = End + 1;
  }
  for (; Next != T.numExprs(); ++Next)
    if (!T.Sets[Next].empty())
      return "occurrence " + std::to_string(Next) + " missing at the end";
  return "";
}

const JsonValue *perfbench::okResult(const JsonValue &Reply,
                                     std::string &Why) {
  const JsonValue *Ok = Reply.field("ok");
  const JsonValue *Res = Reply.field("result");
  if (Ok && Ok->isBool() && Ok->asBool() && Res && Res->isObject())
    return Res;
  const JsonValue *Err = Reply.field("error");
  const JsonValue *Msg = Err ? Err->field("message") : nullptr;
  Why = Msg && Msg->isString() ? "error reply: " + Msg->asString()
                               : "reply is not ok";
  return nullptr;
}

std::string perfbench::checkQueryReply(const JsonValue &Result,
                                       const std::string &Kind, uint32_t Expr,
                                       uint32_t Label, Truth &T) {
  if (const JsonValue *D = Result.field("degraded"); D && D->asBool())
    return "degraded answer";
  std::vector<uint32_t> Got;
  if (Kind == "labels") {
    if (!intArray(Result.field("labels"), Got))
      return "labels reply without a label array";
    return Got == members(T.Sets[Expr]) ? "" : "labels differ";
  }
  if (Kind == "is-label-in") {
    const JsonValue *V = Result.field("value");
    if (!V || !V->isBool())
      return "is-label-in reply without a value";
    return V->asBool() == T.Sets[Expr].contains(Label) ? ""
                                                         : "is-label-in differs";
  }
  if (Kind == "occurrences") {
    if (!intArray(Result.field("exprs"), Got))
      return "occurrences reply without an expr array";
    return Got == T.occurrences(Label) ? "" : "occurrences differ";
  }
  // all-labels: one row per occurrence with a non-empty set.
  const JsonValue *Rows = Result.field("sets");
  if (!Rows || !Rows->isArray())
    return "all-labels reply without sets";
  uint32_t Next = 0;
  for (const JsonValue &Row : Rows->items()) {
    const JsonValue *E = Row.field("expr");
    if (!E || !E->isInt() || E->asInt() < Next ||
        E->asInt() >= int64_t(T.numExprs()))
      return "all-labels row out of order or range";
    uint32_t Id = uint32_t(E->asInt());
    for (; Next != Id; ++Next)
      if (!T.Sets[Next].empty())
        return "all-labels row " + std::to_string(Next) + " missing";
    ++Next;
    if (!intArray(Row.field("labels"), Got) || Got != members(T.Sets[Id]))
      return "all-labels row " + std::to_string(Id) + " differs";
  }
  for (; Next != T.numExprs(); ++Next)
    if (!T.Sets[Next].empty())
      return "all-labels row " + std::to_string(Next) + " missing";
  return "";
}

bool FreshLoad::compute(const std::string &Source) {
  M = parseAndInfer(Source);
  if (!M)
    return false;
  H = std::make_unique<HybridCFA>(*M);
  return H->solve().isOk() && H->graph() && H->frozen();
}

std::string FreshLoad::lintRows() {
  LintEngine Lint(*H->graph(), *H->frozen());
  LintResult LR = Lint.run();
  std::string Out;
  for (const LintPassReport &R : LR.Reports)
    for (const LintDiagnostic &D : R.Findings)
      Out += D.RuleId + "|" + lintSeverityName(D.Severity) + "|" + D.Message +
             "|" + std::to_string(D.Range.Begin.Line) + ":" +
             std::to_string(D.Range.Begin.Col) + "\n";
  return Out;
}

std::vector<uint32_t> FreshLoad::sliceMembers(uint32_t Target) {
  Status S = Status::ok();
  std::unique_ptr<DependenceGraph> DG =
      DependenceGraph::build(*M, *H->frozen(), S);
  std::vector<uint32_t> Out;
  if (!DG)
    return Out;
  Slicer Sl(*DG);
  for (ExprId E : Sl.sliceFrom(ExprId(Target)).Exprs)
    Out.push_back(E.index());
  return Out;
}

std::string perfbench::lintRowsOfReply(const JsonValue &Result) {
  const JsonValue *Fs = Result.field("findings");
  if (!Fs || !Fs->isArray())
    return "<no findings array>";
  std::string Out;
  for (const JsonValue &F : Fs->items()) {
    auto str = [&](const char *K) {
      const JsonValue *V = F.field(K);
      return V && V->isString() ? V->asString() : std::string("?");
    };
    auto num = [&](const char *K) {
      const JsonValue *V = F.field(K);
      return V && V->isInt() ? std::to_string(V->asInt()) : std::string("?");
    };
    Out += str("pass") + "|" + str("severity") + "|" + str("message") + "|" +
           num("line") + ":" + num("col") + "\n";
  }
  return Out;
}
