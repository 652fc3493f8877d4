//===-- delta/DeltaSession.cpp - Incremental edit deltas ------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "delta/DeltaSession.h"
#include <cstdio>
#include <cstdlib>

#include "parser/Lexer.h"
#include "parser/Parser.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>

using namespace stcfa;

namespace {

uint64_t edgeKey(NodeId A, NodeId B) {
  return (uint64_t(A.index()) + 1) << 32 | (uint64_t(B.index()) + 1);
}

std::string renderDiags(DiagnosticEngine &Diags) {
  std::string R = Diags.render();
  while (!R.empty() && R.back() == '\n')
    R.pop_back();
  return R;
}

/// One top-level source item located by the splitter.
struct TopItem {
  std::string Text;
  std::string Name; ///< `let`/`letrec`/`data` declared name
  bool IsData = false;
};

/// Splits a program into its top-level items and the body expression by
/// token scanning: items end at the first `;` after their keyword, and a
/// `let`/`letrec` whose binding group closes with `in` before any `;` is
/// the body.  `;` never occurs inside an expression in this grammar, and
/// `let`-nesting is tracked so an `in` belonging to an inner `let` never
/// terminates the scan early.
Status splitTopLevel(std::string_view Source, std::vector<TopItem> &Items,
                     std::string &BodyText, bool &HasData) {
  Items.clear();
  BodyText.clear();
  HasData = false;

  std::vector<size_t> LineStarts = {0};
  for (size_t I = 0; I != Source.size(); ++I)
    if (Source[I] == '\n')
      LineStarts.push_back(I + 1);
  auto offsetOf = [&](SourceLoc Loc) -> size_t {
    if (Loc.Line == 0 || Loc.Line > LineStarts.size())
      return Source.size();
    return LineStarts[Loc.Line - 1] + Loc.Col - 1;
  };

  DiagnosticEngine Diags;
  Lexer Lex(Source, Diags);
  std::vector<Token> Toks;
  for (;;) {
    Token T = Lex.next();
    Toks.push_back(T);
    if (T.Kind == TokenKind::Eof || T.Kind == TokenKind::Error)
      break;
  }
  if (Toks.back().Kind == TokenKind::Error)
    return Status::invalidArgument("program does not lex: " +
                                   renderDiags(Diags));

  size_t I = 0;
  for (;;) {
    const Token &T = Toks[I];
    if (T.Kind == TokenKind::Eof)
      return Status::invalidArgument("program has no body expression");
    const bool IsLet =
        T.Kind == TokenKind::KwLet || T.Kind == TokenKind::KwLetRec;
    if (T.Kind != TokenKind::KwData && !IsLet) {
      BodyText = std::string(Source.substr(offsetOf(T.Loc)));
      break;
    }
    // Find where this item ends: the first `;`, unless a `let` item's
    // binding closes with `in` first (then it is the body expression).
    int LetDepth = IsLet ? 1 : 0;
    size_t J = I + 1;
    bool IsBody = false;
    size_t SemiIdx = 0;
    for (;; ++J) {
      const Token &U = Toks[J];
      if (U.Kind == TokenKind::Eof)
        return Status::invalidArgument(
            "unterminated top-level item (missing ';')");
      if (U.Kind == TokenKind::KwLet || U.Kind == TokenKind::KwLetRec)
        ++LetDepth;
      else if (U.Kind == TokenKind::KwIn && IsLet && --LetDepth == 0) {
        IsBody = true;
        break;
      } else if (U.Kind == TokenKind::Semi) {
        SemiIdx = J;
        break;
      }
    }
    if (IsBody) {
      BodyText = std::string(Source.substr(offsetOf(T.Loc)));
      break;
    }
    TopItem Item;
    Item.IsData = T.Kind == TokenKind::KwData;
    HasData |= Item.IsData;
    Item.Text = std::string(Source.substr(
        offsetOf(T.Loc), offsetOf(Toks[SemiIdx].End) - offsetOf(T.Loc)));
    // The declared name is the identifier right after the keyword.
    const Token &NameTok = Toks[I + 1];
    if (NameTok.Kind == TokenKind::Ident ||
        NameTok.Kind == TokenKind::UIdent)
      Item.Name = std::string(NameTok.Text);
    Items.push_back(std::move(Item));
    I = SemiIdx + 1;
  }
  return Status::ok();
}

/// Replaces every *identifier token* `From` with `To` (strings and
/// comments are untouched — this is a scope-aware-enough rename because
/// the caller guarantees `To` occurs nowhere in the program, making the
/// blanket substitution a capture-free alpha conversion).
std::string renameIdentInText(const std::string &Text, std::string_view From,
                              std::string_view To) {
  std::vector<size_t> LineStarts = {0};
  for (size_t I = 0; I != Text.size(); ++I)
    if (Text[I] == '\n')
      LineStarts.push_back(I + 1);
  auto offsetOf = [&](SourceLoc Loc) -> size_t {
    return LineStarts[Loc.Line - 1] + Loc.Col - 1;
  };
  DiagnosticEngine Diags;
  Lexer Lex(Text, Diags);
  std::string Out;
  size_t Copied = 0;
  for (;;) {
    Token T = Lex.next();
    if (T.Kind == TokenKind::Eof || T.Kind == TokenKind::Error)
      break;
    if (T.Kind != TokenKind::Ident || T.Text != From)
      continue;
    size_t Begin = offsetOf(T.Loc);
    Out.append(Text, Copied, Begin - Copied);
    Out.append(To);
    Copied = Begin + From.size();
  }
  Out.append(Text, Copied, Text.size() - Copied);
  return Out;
}

/// True iff \p Name lexes as exactly one lower-case identifier.
bool isPlainIdent(const std::string &Name) {
  DiagnosticEngine Diags;
  Lexer Lex(Name, Diags);
  Token T = Lex.next();
  return T.Kind == TokenKind::Ident && T.Text == Name &&
         Lex.next().Kind == TokenKind::Eof;
}

/// True iff the identifier \p Name occurs as a token in \p Text.
bool identOccursIn(const std::string &Text, std::string_view Name) {
  DiagnosticEngine Diags;
  Lexer Lex(Text, Diags);
  for (;;) {
    Token T = Lex.next();
    if (T.Kind == TokenKind::Eof || T.Kind == TokenKind::Error)
      return false;
    if (T.Kind == TokenKind::Ident && T.Text == Name)
      return true;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

DeltaSession::~DeltaSession() = default;

std::unique_ptr<DeltaSession> DeltaSession::create(std::string_view Source,
                                                   const Options &O,
                                                   Status &Out) {
  Out = Status::ok();
  std::vector<TopItem> Items;
  std::string BodyText;
  bool HasData = false;
  if (Status S = splitTopLevel(Source, Items, BodyText, HasData);
      !S.isOk()) {
    Out = S;
    return nullptr;
  }
  auto Sess = std::unique_ptr<DeltaSession>(new DeltaSession());
  Sess->Opts = O;
  // An edit can leave the program ill-typed, and the untyped closure's
  // dom/ran towers can then branch exponentially *below* the depth
  // widening (the driver's "termination is not guaranteed by the paper"
  // case).  A node budget turns that into a governed abort that rides
  // the fallback ladder — full rebuild, then NeedsFullPipeline — instead
  // of an unbounded close on the daemon's reader thread.
  if (Sess->Opts.Config.MaxNodes == 0)
    Sess->Opts.Config.MaxNodes =
        std::max<uint64_t>(1u << 20, 32 * Source.size());
  Sess->Defs.reserve(Items.size());
  for (TopItem &Item : Items) {
    DefRecord D;
    D.Text = std::move(Item.Text);
    D.Name = std::move(Item.Name);
    Sess->Defs.push_back(std::move(D));
  }
  Sess->Body.Text = std::move(BodyText);
  if (HasData) {
    // Outside the exactness envelope: datatype congruence summaries make
    // node identity depend on whole-program inference.  Text-splice only.
    Sess->TextOnly = true;
    return Sess;
  }
  if (!Sess->initFromTexts().isOk()) {
    // Still usable: e.g. multi-binding `letrec ... and ...` groups the
    // fragment parser rejects, or programs that widen into Top.  Every
    // edit then routes through the full pipeline.
    Sess->destroyShadowState();
    Sess->TextOnly = true;
  }
  return Sess;
}

void DeltaSession::destroyShadowState() {
  G.reset();
  M.reset();
  EdgeRefs = U64Map();
  ChainEdges.clear();
  for (DefRecord *D : std::vector<DefRecord *>{&Body}) {
    D->Exprs.clear();
    D->Labels.clear();
    D->Vars.clear();
    D->ExternalRefs.clear();
    D->BaseEdges.clear();
  }
  for (DefRecord &D : Defs) {
    D.Binder = VarId::invalid();
    D.Init = ExprId::invalid();
    D.Spine = ExprId::invalid();
    D.Exprs.clear();
    D.Labels.clear();
    D.Vars.clear();
    D.ExternalRefs.clear();
    D.BaseEdges.clear();
  }
}

void DeltaSession::recordIds(DefRecord &D, const IdMarks &From) const {
  D.Exprs.clear();
  D.Labels.clear();
  D.Vars.clear();
  for (uint32_t E = From.Exprs; E != M->numExprs(); ++E)
    D.Exprs.push_back(E);
  for (uint32_t L = From.Labels; L != M->numLabels(); ++L)
    D.Labels.push_back(L);
  for (uint32_t V = From.Vars; V != M->numVars(); ++V)
    if (V != D.Binder.index())
      D.Vars.push_back(V);
}

std::vector<std::pair<Symbol, VarId>>
DeltaSession::envBefore(size_t DefIndex) const {
  std::vector<std::pair<Symbol, VarId>> Env;
  Env.reserve(DefIndex);
  for (size_t I = 0; I != DefIndex; ++I)
    Env.emplace_back(const_cast<Module &>(*M).sym(Defs[I].Name),
                     Defs[I].Binder);
  return Env;
}

void DeltaSession::collectExternalRefs(const DefRecord &D, ExprId SubtreeRoot,
                                       std::vector<uint32_t> &Out) const {
  // A variable occurrence is an *external* reference when its binding
  // expression lies outside this fragment's subtree: fragment-internal
  // binders (lams, lets, case arms) all have their `VarInfo::Binder` set
  // to an expression created during this fragment's parse, while earlier
  // definitions' binders point at spine lets (or are still unset during
  // initial construction).  The definition's own letrec binder is
  // excluded explicitly — a self-reference does not pin the definition.
  Out.clear();
  uint32_t MinExpr = UINT32_MAX, MaxExpr = 0;
  forEachExprPreorder(*M, SubtreeRoot, [&](ExprId Id, const Expr *) {
    MinExpr = std::min(MinExpr, Id.index());
    MaxExpr = std::max(MaxExpr, Id.index());
  });
  forEachExprPreorder(*M, SubtreeRoot, [&](ExprId, const Expr *E) {
    const auto *V = dyn_cast<VarExpr>(E);
    if (!V)
      return;
    VarId Target = V->var();
    if (D.Binder.isValid() && Target == D.Binder)
      return; // letrec self-reference
    ExprId Binder = M->var(Target).Binder;
    const bool External = !Binder.isValid() ||
                          Binder.index() < MinExpr ||
                          Binder.index() > MaxExpr;
    if (External)
      Out.push_back(Target.index());
  });
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
}

Status DeltaSession::initFromTexts() {
  destroyShadowState();
  M = std::make_unique<Module>();

  DiagnosticEngine Diags;
  for (size_t K = 0; K != Defs.size(); ++K) {
    DefRecord &D = Defs[K];
    const IdMarks Marks = marks();
    FragmentDef FD;
    if (!parseTopDefFragment(*M, D.Text, envBefore(K), Diags, FD))
      return Status::invalidArgument("definition '" + D.Name +
                                     "' failed to parse as a fragment: " +
                                     renderDiags(Diags));
    D.Name = std::string(M->text(FD.Name));
    D.IsRec = FD.IsRec;
    D.Binder = FD.Binder;
    D.Init = FD.Init;
    recordIds(D, Marks);
    collectExternalRefs(D, D.Init, D.ExternalRefs);
  }
  {
    const IdMarks Marks = marks();
    ExprId B = parseExprFragment(*M, Body.Text, envBefore(Defs.size()), Diags);
    if (!B.isValid())
      return Status::invalidArgument("program body failed to parse: " +
                                     renderDiags(Diags));
    Body.Init = B;
    Body.Binder = VarId::invalid();
    recordIds(Body, Marks);
    collectExternalRefs(Body, Body.Init, Body.ExternalRefs);
  }
  relinkSpine();

  G = std::make_unique<SubtransitiveGraph>(*M, Opts.Config);
  bool First = true;
  auto buildSub = [&](ExprId Root,
                      std::vector<std::pair<NodeId, NodeId>> &J) {
    G->setEdgeJournal(&J);
    if (First) {
      G->buildFragment(Root);
      First = false;
    } else {
      G->addFragment(Root);
    }
    G->setEdgeJournal(nullptr);
  };
  for (DefRecord &D : Defs) {
    buildSub(D.Init, D.BaseEdges);
    G->setEdgeJournal(&D.BaseEdges);
    G->addEdge(G->varNode(D.Binder), G->exprNode(D.Init));
    G->setEdgeJournal(nullptr);
  }
  buildSub(Body.Init, Body.BaseEdges);

  G->setEdgeJournal(&ChainEdges);
  for (size_t K = 0; K != Defs.size(); ++K) {
    NodeId Next = K + 1 != Defs.size() ? G->exprNode(Defs[K + 1].Spine)
                                       : G->exprNode(Body.Init);
    G->addEdge(G->exprNode(Defs[K].Spine), Next);
  }
  G->setEdgeJournal(nullptr);

  for (DefRecord &D : Defs)
    addRefs(D.BaseEdges);
  addRefs(Body.BaseEdges);
  addRefs(ChainEdges);

  Status CS = G->close(Deadline::infinite());
  if (!CS.isOk() || G->aborted())
    return CS.isOk() ? Status::internal("initial close aborted") : CS;
  if (G->hasTopNode())
    return Status::failedPrecondition(
        "depth widening engaged; outside the delta exactness envelope");
  return Status::ok();
}

void DeltaSession::relinkSpine() {
  ExprId Next = Body.Init;
  for (size_t K = Defs.size(); K-- != 0;) {
    DefRecord &D = Defs[K];
    if (!D.Spine.isValid()) {
      D.Spine = M->makeLet(SourceLoc{1, 1}, D.Binder, D.Init, Next, D.IsRec);
    } else {
      auto *Let = cast<LetExpr>(M->expr(D.Spine));
      Let->setInit(D.Init);
      Let->setBody(Next);
    }
    Next = D.Spine;
  }
  M->setRoot(Next);
}

//===----------------------------------------------------------------------===//
// Edge bookkeeping
//===----------------------------------------------------------------------===//

void DeltaSession::addRefs(const std::vector<std::pair<NodeId, NodeId>> &J) {
  for (const auto &[A, B] : J)
    ++EdgeRefs.lookupOrInsert(edgeKey(A, B), 0);
}

void DeltaSession::dropRefs(const std::vector<std::pair<NodeId, NodeId>> &J,
                            std::vector<std::pair<NodeId, NodeId>> &Retracted) {
  for (const auto &[A, B] : J) {
    uint32_t &C = EdgeRefs.lookupOrInsert(edgeKey(A, B), 0);
    if (C != 0 && --C == 0)
      Retracted.emplace_back(A, B);
  }
}

uint64_t
DeltaSession::retractCone(std::vector<std::pair<NodeId, NodeId>> Work) {
  std::vector<bool> Seen(G->numNodes(), false);
  std::vector<NodeId> DirtyList;
  auto markDirty = [&](NodeId N) {
    if (!Seen[N.index()]) {
      Seen[N.index()] = true;
      DirtyList.push_back(N);
    }
  };
  while (!Work.empty()) {
    auto [A, B] = Work.back();
    Work.pop_back();
    // A pair still owned by a surviving definition's journal is a live
    // base edge: the cone stops here.  (Derived-rule conclusions can
    // coincide with base edges — APP-1 edges have derived sources.)
    if (EdgeRefs.lookup(edgeKey(A, B), 0) > 0)
      continue;
    if (!G->hasEdge(A, B))
      continue;
    G->appendConsequencesForDelta(A, B, Work);
    G->removeEdgeForDelta(A, B);
    markDirty(A);
    markDirty(B);
  }
  // Re-queue every alias around the frontier: the next close() re-derives
  // each conclusion the surviving edges still support.
  for (NodeId N : DirtyList)
    G->requeueAliasesForDelta(N);
  return DirtyList.size();
}

//===----------------------------------------------------------------------===//
// Apply
//===----------------------------------------------------------------------===//

Status DeltaSession::resolveTarget(const EditRequest &R, bool NeedsDef,
                                   size_t &Idx) const {
  Idx = SIZE_MAX;
  if (!NeedsDef)
    return Status::ok();
  if (!R.Name.empty()) {
    size_t Found = SIZE_MAX;
    for (size_t I = 0; I != Defs.size(); ++I) {
      if (Defs[I].Name != R.Name)
        continue;
      if (Found != SIZE_MAX)
        return Status::invalidArgument("definition name '" + R.Name +
                                       "' is ambiguous (shadowed); address "
                                       "it by line instead");
      Found = I;
    }
    if (Found == SIZE_MAX)
      return Status::invalidArgument("no definition named '" + R.Name + "'");
    Idx = Found;
    return Status::ok();
  }
  if (R.Line != 0) {
    uint32_t Line = 1;
    for (size_t I = 0; I != Defs.size(); ++I) {
      if (Line == R.Line) {
        Idx = I;
        return Status::ok();
      }
      Line += 1 + static_cast<uint32_t>(
                      std::count(Defs[I].Text.begin(), Defs[I].Text.end(),
                                 '\n'));
    }
    return Status::invalidArgument("no definition starts on line " +
                                   std::to_string(R.Line));
  }
  return Status::invalidArgument(
      "edit needs a target: params.name or params.line");
}

Status DeltaSession::apply(const EditRequest &R, ApplyResult &Res) {
  static Counter &Applies = counter("delta.applies");
  static Counter &DirtyNodes = counter("delta.dirty_nodes");
  static Counter &RecloseEdges = counter("delta.reclose_edges");
  static Counter &Fallbacks = counter("delta.fallback_full");
  static Histogram &ApplyMs =
      histogram("delta.apply_millis", latencyBucketsMillis());
  Applies.inc();
  Timer T;
  Span Sp("delta.apply");

  Res = ApplyResult{};
  const bool NeedsDef = R.Kind == EditRequest::Op::Delete ||
                        R.Kind == EditRequest::Op::Replace ||
                        R.Kind == EditRequest::Op::Rename;
  size_t Idx = SIZE_MAX;
  if (Status S = resolveTarget(R, NeedsDef, Idx); !S.isOk())
    return S;

  Status S = Status::ok();
  if (TextOnly) {
    S = applyTextOnly(R, Idx, Res);
  } else {
    switch (R.Kind) {
    case EditRequest::Op::Replace:
      S = editReplace(R, Idx, Res);
      break;
    case EditRequest::Op::Insert:
      S = editInsert(R, Res);
      break;
    case EditRequest::Op::Delete:
      S = editDelete(Idx, Res);
      break;
    case EditRequest::Op::ReplaceBody:
      S = editReplaceBody(R, Res);
      break;
    case EditRequest::Op::Rename:
      S = editRename(R, Idx, Res);
      break;
    }
  }
  if (!S.isOk())
    return S;

  DirtyNodes.add(Res.DirtyNodes);
  RecloseEdges.add(Res.RecloseEdges);
  if (Res.NeedsFullPipeline)
    Fallbacks.inc();
  ApplyMs.observe(static_cast<uint64_t>(T.millis()));
  Sp.arg("dirty_nodes", Res.DirtyNodes);
  Sp.arg("reclose_edges", Res.RecloseEdges);
  Sp.arg("mode", Res.M == ApplyResult::Mode::Delta          ? "delta"
                 : Res.M == ApplyResult::Mode::Metadata     ? "metadata"
                 : Res.M == ApplyResult::Mode::FullRebuild  ? "full-rebuild"
                                                            : "full-pipeline");
  return Status::ok();
}

Status DeltaSession::applyTextOnly(const EditRequest &R, size_t Idx,
                                   ApplyResult &Res) {
  // Outside the envelope the session is a text editor: splice, validate
  // by re-parsing the candidate source, and hand the rebuild to the
  // caller's full pipeline.
  std::vector<std::string> Texts;
  Texts.reserve(Defs.size());
  for (const DefRecord &D : Defs)
    Texts.push_back(D.Text);
  std::string NewBody = Body.Text;

  switch (R.Kind) {
  case EditRequest::Op::Replace:
    Texts[Idx] = R.Text;
    break;
  case EditRequest::Op::Delete:
    Texts.erase(Texts.begin() + static_cast<ptrdiff_t>(Idx));
    break;
  case EditRequest::Op::Insert: {
    size_t P = Texts.size();
    if (!R.Before.empty()) {
      P = SIZE_MAX;
      for (size_t I = 0; I != Defs.size(); ++I)
        if (Defs[I].Name == R.Before) {
          P = I;
          break;
        }
      if (P == SIZE_MAX)
        return Status::invalidArgument("no definition named '" + R.Before +
                                       "' to insert before");
    }
    Texts.insert(Texts.begin() + static_cast<ptrdiff_t>(P), R.Text);
    break;
  }
  case EditRequest::Op::ReplaceBody:
    NewBody = R.Text;
    break;
  case EditRequest::Op::Rename: {
    if (Status S = validateRename(R, Idx); !S.isOk())
      return S;
    for (std::string &Text : Texts)
      Text = renameIdentInText(Text, Defs[Idx].Name, R.NewName);
    NewBody = renameIdentInText(NewBody, Defs[Idx].Name, R.NewName);
    break;
  }
  }

  std::string Candidate;
  for (const std::string &Text : Texts) {
    Candidate += Text;
    Candidate += '\n';
  }
  Candidate += NewBody;
  Candidate += '\n';
  DiagnosticEngine Diags;
  if (!parseProgram(Candidate, Diags))
    return Status::invalidArgument("edited program does not parse: " +
                                   renderDiags(Diags));

  // Commit: re-split so item names track the new text.
  std::vector<TopItem> Items;
  std::string BodyText;
  bool HasData = false;
  if (Status S = splitTopLevel(Candidate, Items, BodyText, HasData);
      !S.isOk())
    return S;
  Defs.clear();
  Defs.reserve(Items.size());
  for (TopItem &Item : Items) {
    DefRecord D;
    D.Text = std::move(Item.Text);
    D.Name = std::move(Item.Name);
    Defs.push_back(std::move(D));
  }
  Body = DefRecord{};
  Body.Text = std::move(BodyText);
  Res.M = ApplyResult::Mode::FullPipeline;
  Res.NeedsFullPipeline = true;
  return Status::ok();
}

Status DeltaSession::editReplace(const EditRequest &R, size_t Idx,
                                 ApplyResult &Res) {
  DefRecord &D = Defs[Idx];
  const IdMarks Marks = marks();
  DiagnosticEngine Diags;
  FragmentDef FD;
  if (!parseTopDefFragment(*M, R.Text, envBefore(Idx), Diags, FD, D.Binder))
    return Status::invalidArgument("replacement for '" + D.Name +
                                   "' does not parse: " + renderDiags(Diags));
  if (M->text(FD.Name) != D.Name)
    return Status::invalidArgument(
        "replace cannot change the definition's name (got '" +
        std::string(M->text(FD.Name)) + "', expected '" + D.Name +
        "'); use rename");

  // Committed from here on.
  D.Text = R.Text;
  D.IsRec = FD.IsRec;
  std::vector<std::pair<NodeId, NodeId>> OldEdges = std::move(D.BaseEdges);
  D.BaseEdges.clear();
  D.Init = FD.Init;
  recordIds(D, Marks);
  collectExternalRefs(D, D.Init, D.ExternalRefs);

  if (faultFires(fault::DeltaDiffAlloc)) {
    counter("delta.fallback_full").inc();
    return rebuildFromTexts(Res, ApplyResult::Mode::FullRebuild);
  }
  if (shadowBloated())
    return compactRebuild(Res);

  G->notifyModuleGrown();
  G->setEdgeJournal(&D.BaseEdges);
  G->addFragment(D.Init);
  G->addEdge(G->varNode(D.Binder), G->exprNode(D.Init));
  G->setEdgeJournal(nullptr);
  cast<LetExpr>(M->expr(D.Spine))->setInit(D.Init);

  addRefs(D.BaseEdges);
  std::vector<std::pair<NodeId, NodeId>> Retracted;
  dropRefs(OldEdges, Retracted);
  Res.DirtyNodes = retractCone(std::move(Retracted));
  return recloseOrFallback(Res);
}

Status DeltaSession::editInsert(const EditRequest &R, ApplyResult &Res) {
  size_t P = Defs.size();
  if (!R.Before.empty()) {
    P = SIZE_MAX;
    for (size_t I = 0; I != Defs.size(); ++I)
      if (Defs[I].Name == R.Before) {
        P = I;
        break;
      }
    if (P == SIZE_MAX)
      return Status::invalidArgument("no definition named '" + R.Before +
                                     "' to insert before");
  }

  const IdMarks Marks = marks();
  DiagnosticEngine Diags;
  FragmentDef FD;
  if (!parseTopDefFragment(*M, R.Text, envBefore(P), Diags, FD))
    return Status::invalidArgument("inserted definition does not parse: " +
                                   renderDiags(Diags));

  DefRecord D;
  D.Text = R.Text;
  D.Name = std::string(M->text(FD.Name));
  D.IsRec = FD.IsRec;
  D.Binder = FD.Binder;
  D.Init = FD.Init;
  recordIds(D, Marks);
  collectExternalRefs(D, D.Init, D.ExternalRefs);

  // Committed from here on.
  const std::string NewName = D.Name;
  Defs.insert(Defs.begin() + static_cast<ptrdiff_t>(P), std::move(D));

  // A name collision changes which binder later occurrences of that name
  // resolve to under a fresh parse; the already-parsed shadow subtrees
  // would keep the old resolution.  Rebuild from source — the fragment
  // environment applies lexical shadowing correctly there.
  size_t SameName = 0;
  for (const DefRecord &Other : Defs)
    SameName += Other.Name == NewName;
  if (SameName > 1) {
    counter("delta.shadowed_rebuilds").inc();
    return rebuildFromTexts(Res, ApplyResult::Mode::FullRebuild);
  }

  if (faultFires(fault::DeltaDiffAlloc)) {
    counter("delta.fallback_full").inc();
    return rebuildFromTexts(Res, ApplyResult::Mode::FullRebuild);
  }
  if (shadowBloated())
    return compactRebuild(Res);

  DefRecord &Ins = Defs[P];
  G->notifyModuleGrown();
  G->setEdgeJournal(&Ins.BaseEdges);
  G->addFragment(Ins.Init);
  G->addEdge(G->varNode(Ins.Binder), G->exprNode(Ins.Init));
  G->setEdgeJournal(nullptr);
  addRefs(Ins.BaseEdges);

  relinkSpine(); // creates the new spine LetExpr
  G->notifyModuleGrown();
  Res.DirtyNodes = rebuildChain();
  return recloseOrFallback(Res);
}

Status DeltaSession::editDelete(size_t Idx, ApplyResult &Res) {
  DefRecord &D = Defs[Idx];
  const uint32_t Binder = D.Binder.index();
  for (size_t I = 0; I != Defs.size(); ++I) {
    if (I == Idx)
      continue;
    if (std::binary_search(Defs[I].ExternalRefs.begin(),
                           Defs[I].ExternalRefs.end(), Binder))
      return Status::invalidArgument("definition '" + D.Name +
                                     "' is still referenced by '" +
                                     Defs[I].Name + "'");
  }
  if (std::binary_search(Body.ExternalRefs.begin(), Body.ExternalRefs.end(),
                         Binder))
    return Status::invalidArgument("definition '" + D.Name +
                                   "' is still referenced by the body");

  if (faultFires(fault::DeltaDiffAlloc)) {
    Defs.erase(Defs.begin() + static_cast<ptrdiff_t>(Idx));
    counter("delta.fallback_full").inc();
    return rebuildFromTexts(Res, ApplyResult::Mode::FullRebuild);
  }

  DefRecord Old = std::move(D);
  Defs.erase(Defs.begin() + static_cast<ptrdiff_t>(Idx));

  std::vector<std::pair<NodeId, NodeId>> Retracted;
  dropRefs(Old.BaseEdges, Retracted);
  Res.DirtyNodes = retractCone(std::move(Retracted));
  relinkSpine();
  Res.DirtyNodes += rebuildChain();
  return recloseOrFallback(Res);
}

Status DeltaSession::editReplaceBody(const EditRequest &R, ApplyResult &Res) {
  const IdMarks Marks = marks();
  DiagnosticEngine Diags;
  ExprId NewBody =
      parseExprFragment(*M, R.Text, envBefore(Defs.size()), Diags);
  if (!NewBody.isValid())
    return Status::invalidArgument("replacement body does not parse: " +
                                   renderDiags(Diags));

  // Committed from here on.
  Body.Text = R.Text;
  std::vector<std::pair<NodeId, NodeId>> OldEdges = std::move(Body.BaseEdges);
  Body.BaseEdges.clear();
  Body.Init = NewBody;
  recordIds(Body, Marks);
  collectExternalRefs(Body, Body.Init, Body.ExternalRefs);

  if (faultFires(fault::DeltaDiffAlloc)) {
    counter("delta.fallback_full").inc();
    return rebuildFromTexts(Res, ApplyResult::Mode::FullRebuild);
  }
  if (shadowBloated())
    return compactRebuild(Res);

  G->notifyModuleGrown();
  G->setEdgeJournal(&Body.BaseEdges);
  G->addFragment(Body.Init);
  G->setEdgeJournal(nullptr);
  addRefs(Body.BaseEdges);

  std::vector<std::pair<NodeId, NodeId>> Retracted;
  dropRefs(OldEdges, Retracted);
  Res.DirtyNodes = retractCone(std::move(Retracted));
  relinkSpine();
  Res.DirtyNodes += rebuildChain();
  return recloseOrFallback(Res);
}

Status DeltaSession::validateRename(const EditRequest &R, size_t Idx) const {
  if (!isPlainIdent(R.NewName))
    return Status::invalidArgument("'" + R.NewName +
                                   "' is not a valid identifier");
  for (size_t I = 0; I != Defs.size(); ++I)
    if (I != Idx && Defs[I].Name == Defs[Idx].Name)
      return Status::invalidArgument("definition name '" + Defs[Idx].Name +
                                     "' is shadowed; rename is ambiguous");
  for (const DefRecord &D : Defs)
    if (identOccursIn(D.Text, R.NewName))
      return Status::invalidArgument("'" + R.NewName +
                                     "' already occurs in the program; "
                                     "pick an unused name");
  if (identOccursIn(Body.Text, R.NewName))
    return Status::invalidArgument("'" + R.NewName +
                                   "' already occurs in the program; "
                                   "pick an unused name");
  return Status::ok();
}

Status DeltaSession::editRename(const EditRequest &R, size_t Idx,
                                ApplyResult &Res) {
  if (Status S = validateRename(R, Idx); !S.isOk())
    return S;
  // Alpha conversion: because the new name occurs nowhere, renaming
  // *every* identifier token spelled like the old name (including any
  // inner binders that shadow it, consistently with their uses) is
  // capture-free and preserves resolution structure — the graph does not
  // change at all.
  const std::string OldName = Defs[Idx].Name;
  for (DefRecord &D : Defs)
    D.Text = renameIdentInText(D.Text, OldName, R.NewName);
  Body.Text = renameIdentInText(Body.Text, OldName, R.NewName);
  for (DefRecord &D : Defs)
    if (D.Name == OldName)
      D.Name = R.NewName;
  M->setVarName(Defs[Idx].Binder, M->sym(R.NewName));
  Res.M = ApplyResult::Mode::Metadata;
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Re-close, fallback, chain
//===----------------------------------------------------------------------===//

uint64_t DeltaSession::rebuildChain() {
  std::vector<std::pair<NodeId, NodeId>> NewChain;
  G->setEdgeJournal(&NewChain);
  for (size_t K = 0; K != Defs.size(); ++K) {
    NodeId Next = K + 1 != Defs.size() ? G->exprNode(Defs[K + 1].Spine)
                                       : G->exprNode(Body.Init);
    G->addEdge(G->exprNode(Defs[K].Spine), Next);
  }
  G->setEdgeJournal(nullptr);
  addRefs(NewChain);
  std::vector<std::pair<NodeId, NodeId>> Retracted;
  dropRefs(ChainEdges, Retracted);
  ChainEdges = std::move(NewChain);
  return retractCone(std::move(Retracted));
}

bool DeltaSession::shadowBloated() const {
  if (Opts.MaxBloat <= 0)
    return false;
  return static_cast<double>(M->numExprs()) >
         Opts.MaxBloat * static_cast<double>(numExprs());
}

Status DeltaSession::compactRebuild(ApplyResult &Res) {
  counter("delta.compactions").inc();
  return rebuildFromTexts(Res, ApplyResult::Mode::FullRebuild);
}

Status DeltaSession::recloseOrFallback(ApplyResult &Res) {
  const uint64_t PoolBefore = G->edgePoolSize();
  bool Abort = faultFires(fault::DeltaRecloseAbort);
  if (!Abort) {
    Deadline D = Opts.CloseDeadlineMillis != 0
                     ? Deadline::afterMillis(
                           static_cast<int64_t>(Opts.CloseDeadlineMillis))
                     : Deadline::infinite();
    Status CS = G->close(D);
    Abort = !CS.isOk() || G->aborted() || G->hasTopNode();
    if (Abort && getenv("STCFA_DELTA_DEBUG"))
      fprintf(stderr, "[reclose] status=%s aborted=%d top=%d\n",
              CS.toString().c_str(), (int)G->aborted(), (int)G->hasTopNode());
  }
  if (Abort) {
    // Governed abort (deadline/budget/fault) or the program widened out
    // of the exactness envelope: discard the surgered graph and rebuild
    // from the spliced source.  Never a wrong answer.
    counter("delta.fallback_full").inc();
    return rebuildFromTexts(Res, ApplyResult::Mode::FullRebuild);
  }
  Res.RecloseEdges = G->edgePoolSize() - PoolBefore;
  Res.M = ApplyResult::Mode::Delta;
  return Status::ok();
}

Status DeltaSession::rebuildFromTexts(ApplyResult &Res,
                                      ApplyResult::Mode Why) {
  if (!initFromTexts().isOk()) {
    // The rebuilt program itself falls outside the envelope (it widened,
    // or a letrec group the fragment parser rejects appeared).  Degrade
    // the session to text-only; the caller runs the full pipeline.
    destroyShadowState();
    TextOnly = true;
    Res.M = ApplyResult::Mode::FullPipeline;
    Res.NeedsFullPipeline = true;
    return Status::ok();
  }
  Res.M = Why;
  Res.RecloseEdges = 0;
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Views and shape
//===----------------------------------------------------------------------===//

uint32_t DeltaSession::numExprs() const {
  size_t N = Defs.size(); // one spine let per definition
  for (const DefRecord &D : Defs)
    N += D.Exprs.size();
  N += Body.Exprs.size();
  return static_cast<uint32_t>(N);
}

uint32_t DeltaSession::numLabels() const {
  size_t N = 0;
  for (const DefRecord &D : Defs)
    N += D.Labels.size();
  N += Body.Labels.size();
  return static_cast<uint32_t>(N);
}

std::string DeltaSession::currentSource() const {
  std::string Out;
  for (const DefRecord &D : Defs) {
    Out += D.Text;
    Out += '\n';
  }
  Out += Body.Text;
  Out += '\n';
  return Out;
}

Status DeltaSession::freezeView(DeltaView &Out) {
  if (TextOnly || !G)
    return Status::failedPrecondition(
        "session has no incremental state; rebuild via the full pipeline");
  // Canonical numbering, in fresh-parse creation order: each definition's
  // init subtree, then the body subtree, then the spine lets innermost
  // (last definition) first — the root is always the last canonical id.
  // A `letrec` binder precedes its init's binders, a `let` binder follows
  // them; the spine lets create none.
  std::vector<uint32_t> Exprs, Vars, Labels;
  Exprs.reserve(numExprs());
  Vars.reserve(M->numVars());
  Labels.reserve(numLabels());
  for (const DefRecord &D : Defs) {
    Exprs.insert(Exprs.end(), D.Exprs.begin(), D.Exprs.end());
    Labels.insert(Labels.end(), D.Labels.begin(), D.Labels.end());
    if (D.IsRec)
      Vars.push_back(D.Binder.index());
    Vars.insert(Vars.end(), D.Vars.begin(), D.Vars.end());
    if (!D.IsRec)
      Vars.push_back(D.Binder.index());
  }
  Exprs.insert(Exprs.end(), Body.Exprs.begin(), Body.Exprs.end());
  Labels.insert(Labels.end(), Body.Labels.begin(), Body.Labels.end());
  Vars.insert(Vars.end(), Body.Vars.begin(), Body.Vars.end());
  for (size_t K = Defs.size(); K-- != 0;)
    Exprs.push_back(Defs[K].Spine.index());

  // The frozen graph keeps no reference to its source, so queries against
  // this view never race the next edit's graph surgery (the serve layer
  // shares views across worker threads).
  const FrozenGraph::IdOrders Orders{Exprs, Vars, Labels};
  Status FS = Status::ok();
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(*G, FS, {}, &Orders);
  if (!F)
    return FS;
  Out.Frozen = std::move(F);
  Out.NumExprs = static_cast<uint32_t>(Exprs.size());
  Out.NumLabels = static_cast<uint32_t>(Labels.size());
  return Status::ok();
}
