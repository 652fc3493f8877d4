//===-- serve/Epoch.cpp - Versioned analysis epochs for serve mode --------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Epoch.h"

#include "core/LabelSetKernel.h"
#include "parser/Parser.h"
#include "sema/Infer.h"
#include "support/Diagnostics.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace stcfa;
using namespace stcfa::serve;

namespace {
/// Epochs are constructed on the reader thread but destroyed on whatever
/// thread drops the last reference, so the live count must be a real
/// atomic; the gauge mirrors its post-op value.
std::atomic<int64_t> LiveEpochs{0};

void recordEpochDelta(int64_t Delta) {
  static Gauge &G = gauge("serve.epochs_live");
  G.set(LiveEpochs.fetch_add(Delta, std::memory_order_relaxed) + Delta);
}
} // namespace

Epoch::Epoch(uint64_t Id, std::unique_ptr<Module> Mod,
             std::unique_ptr<HybridCFA> H)
    : EpochId(Id), EngineName(engineName(H->engine())), M(std::move(Mod)) {
  assert(H->engine() != HybridCFA::Engine::None &&
         "live epoch needs a served ladder");
  setShape(M->numExprs(), M->numLabels(), M->root());
  if (H->engine() == HybridCFA::Engine::Subtransitive) {
    F = H->frozen();
    Q = H->queryEngine();
    Hybrid = std::move(H);
  } else if (H->engine() == HybridCFA::Engine::Standard) {
    fillTable([&H](ExprId E) { return H->labelSet(E); });
  } else {
    // The partial rung answers the universal set everywhere: one row.
    Table = InternedLabelSets(CanonLabels, CanonExprs);
    if (CanonExprs != 0) {
      DenseBitset All(CanonLabels);
      for (uint32_t L = 0; L != CanonLabels; ++L)
        All.insert(L);
      Table.set(0, All);
      std::fill(Table.RowOf.begin(), Table.RowOf.end(), Table.RowOf[0]);
    }
  }
  recordEpochDelta(+1);
}

Epoch::Epoch(uint64_t Id, std::unique_ptr<LoadedSnapshot> S,
             std::string Src, size_t KernelThreshold)
    : EpochId(Id), EngineName("snapshot"), Source(std::move(Src)),
      Snap(std::move(S)) {
  serveFrozen(Snap->frozen(), KernelThreshold);
  if (auto Kern = Snap->adoptKernel())
    OwnedEngine->adoptKernel(std::move(Kern));
  setShape(F->numExprs(), F->numLabels(), Snap->rootExpr());
  recordEpochDelta(+1);
}

Epoch::Epoch(uint64_t Id, DeltaView V, std::string Src,
             size_t KernelThreshold)
    : EpochId(Id), EngineName("delta"), Source(std::move(Src)),
      View(std::move(V)) {
  assert(View.Frozen && "delta epoch needs a frozen view");
  serveFrozen(*View.Frozen, KernelThreshold);
  // Canonical numbering puts the outermost spine let — the program root —
  // last (it is the last expression a fresh parse creates).
  setShape(View.NumExprs, View.NumLabels, ExprId(View.NumExprs - 1));
  recordEpochDelta(+1);
}

Epoch::Epoch(uint64_t Id, std::unique_ptr<Module> Mod,
             std::unique_ptr<FrozenGraph> Frozen, size_t KernelThreshold)
    : EpochId(Id), EngineName("subtransitive"), M(std::move(Mod)),
      OwnedFrozen(std::move(Frozen)) {
  serveFrozen(*OwnedFrozen, KernelThreshold);
  setShape(M->numExprs(), M->numLabels(), M->root());
  recordEpochDelta(+1);
}

Epoch::Epoch(uint64_t Id, std::unique_ptr<Module> Mod, const char *Engine,
             const std::function<DenseBitset(ExprId)> &LabelSet)
    : EpochId(Id), EngineName(Engine), M(std::move(Mod)) {
  setShape(M->numExprs(), M->numLabels(), M->root());
  fillTable(LabelSet);
  recordEpochDelta(+1);
}

Epoch::~Epoch() { recordEpochDelta(-1); }

void Epoch::setShape(uint32_t Exprs, uint32_t Labels, ExprId Root) {
  CanonExprs = Exprs;
  CanonLabels = Labels;
  RootId = Root;
}

void Epoch::serveFrozen(const FrozenGraph &Frozen, size_t KernelThreshold) {
  F = &Frozen;
  OwnedEngine = std::make_unique<QueryEngine>(Frozen);
  OwnedEngine->setKernelThreshold(KernelThreshold);
  Q = OwnedEngine.get();
}

void Epoch::fillTable(const std::function<DenseBitset(ExprId)> &LabelSet) {
  Table = InternedLabelSets(CanonLabels, CanonExprs);
  for (uint32_t I = 0; I != CanonExprs; ++I)
    Table.set(I, LabelSet(ExprId(I)));
}

bool Epoch::tableHas(uint32_t E, uint32_t L) const {
  return (Table.pool().row(Table.RowOf[E])[L / 64] >> (L % 64)) & 1;
}

uint64_t Epoch::cost() const {
  uint64_t C = F ? F->numNodes() : CanonExprs;
  return C ? C : 1;
}

Status Epoch::labelsOf(ExprId E, const Deadline &D, DenseBitset &Out) const {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  // A kernel row, a walk, or a table row: all reads.
  Out = Q ? Q->labelsOf(E) : Table.pool().set(Table.RowOf[E.index()]);
  return Status::ok();
}

Status Epoch::isLabelIn(ExprId E, LabelId L, const Deadline &D,
                        bool &Out) const {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  Out = Q ? Q->isLabelIn(E, L) : tableHas(E.index(), L.index());
  return Status::ok();
}

Status Epoch::occurrencesOf(LabelId L, const Deadline &D,
                            std::vector<ExprId> &Out) const {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  if (Q) {
    Out = Q->occurrencesOf(L);
    return Status::ok();
  }
  Out.clear();
  for (uint32_t I = 0; I != CanonExprs; ++I)
    if (tableHas(I, L.index()))
      Out.push_back(ExprId(I));
  return Status::ok();
}

Status Epoch::allLabels(const Deadline &D, InternedLabelSets &Out) {
  if (!Q) {
    Out = InternedLabelSets(Table.pool(), CanonExprs);
    Out.RowOf = Table.RowOf;
    return Status::ok();
  }
  // A complete kernel is read-only: read its row ids with no lock.
  if (D.isInfinite())
    if (const LabelSetKernel *K = Q->publishedKernel()) {
      Out = K->allLabelSets();
      return Status::ok();
    }
  // Otherwise this batch may run the closure: one at a time.
  std::lock_guard<std::mutex> Lock(Mu);
  BatchControl BC;
  BC.D = D;
  BatchOutcome Outcome;
  Out = Q->allLabelSets(BC, Outcome);
  return Outcome.S;
}

Status Epoch::allLabels(const Deadline &D, std::vector<DenseBitset> &Out,
                        std::vector<char> &Done) {
  InternedLabelSets Sets;
  Status S = allLabels(D, Sets);
  Out.clear();
  Done.clear();
  for (uint32_t I = 0; I != Sets.RowOf.size(); ++I) {
    Out.push_back(Sets.pool().set(Sets.RowOf[I]));
    Done.push_back(Sets.Done.empty() || Sets.Done[I]);
  }
  return S;
}

Status Epoch::lint(const std::vector<std::string> &Passes, const Deadline &D,
                   LintResult &Out) {
  LintOptions LO;
  LO.Passes = Passes;
  LO.D = D;
  std::lock_guard<std::mutex> Lock(Mu);
  if (Status S = substrate(); !S.isOk())
    return S;
  Out = LintEngine(*M, *F).run(LO);
  return Status::ok();
}

Status LivePipeline::run(const std::string &Source, const HybridOptions &HO) {
  DiagnosticEngine Diags;
  M = parseProgram(Source, Diags);
  if (!M) {
    std::string Rendered = Diags.render();
    while (!Rendered.empty() && Rendered.back() == '\n')
      Rendered.pop_back();
    return Status::invalidArgument("parse failed: " + Rendered);
  }
  DiagnosticEngine InferDiags;
  (void)inferTypes(*M, InferDiags); // untyped programs still analyze
  auto Solved = std::make_unique<HybridCFA>(*M, HO);
  if (Status S = Solved->solve(); !S.isOk())
    return S;
  H = std::move(Solved);
  return Status::ok();
}

Status Epoch::substrate() {
  if (!F)
    return Status::failedPrecondition(
        "this pass requires the subtransitive engine; this epoch degraded "
        "to " +
        std::string(engine()));
  if (!M) {
    // A snapshot or delta epoch's first lint or slice: its frozen tables
    // are already canonical, so the module only has to supply expression
    // kinds, ranges and names.  A fresh parse of the source numbers them
    // exactly as the tables do.
    static Counter &Parses = counter("delta.epoch_parses");
    Span ParseSpan("serve.epoch_parse");
    Parses.inc();
    DiagnosticEngine Diags;
    std::unique_ptr<Module> Parsed = parseProgram(Source, Diags);
    if (!Parsed || Parsed->numExprs() != F->numExprs() ||
        Parsed->numVars() != F->numVars() ||
        Parsed->numLabels() != F->numLabels())
      return Status::internal(std::string(engine()) +
                              " epoch source does not match its frozen "
                              "tables");
    ParseSpan.arg("exprs", Parsed->numExprs());
    M = std::move(Parsed);
    std::string().swap(Source);
  }
  return Status::ok();
}

Status Epoch::dependenceGraph(const Deadline &D, const DependenceGraph *&Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  return buildDeps(D, Out);
}

Status Epoch::buildDeps(const Deadline &D, const DependenceGraph *&Out) {
  if (Deps) {
    Out = Deps.get();
    return Status::ok();
  }
  if (Status S = substrate(); !S.isOk())
    return S;
  DependenceGraph::Options DO;
  DO.D = D;
  Status BS = Status::ok();
  std::unique_ptr<DependenceGraph> DG = DependenceGraph::build(*M, *F, BS, DO);
  if (!DG)
    return BS; // governed abort or injected alloc failure; retryable
  Deps = std::move(DG);
  Out = Deps.get();
  return Status::ok();
}

Status Epoch::slice(ExprId Target, SliceDirection Dir, bool Witness,
                    const Deadline &D, SliceReply &Out) {
  if (D.expired())
    return Status::deadlineExceeded("slice deadline expired before start");
  std::lock_guard<std::mutex> Lock(Mu);
  const DependenceGraph *DG = nullptr;
  if (Status S = buildDeps(D, DG); !S.isOk())
    return S;
  SliceOptions SO;
  SO.Dir = Dir;
  SO.D = D;
  Slicer Sl(*DG);
  SliceResult R = Sl.sliceFrom(Target, SO);
  if (!R.S.isOk() && !R.Partial)
    return R.S;
  Out.Members = R.Exprs;
  Out.Partial = R.Partial;
  Out.Stop = R.S;
  Out.Deps = DG;
  Out.Witnesses.clear();
  if (Witness)
    for (ExprId Member : R.Exprs) {
      Out.Witnesses.emplace_back();
      if (Status WS = Sl.witnessFor(R, Member, Out.Witnesses.back());
          !WS.isOk())
        return WS;
    }
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// EpochManager
//===----------------------------------------------------------------------===//

std::shared_ptr<Epoch> EpochManager::current() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Cur;
}

uint64_t EpochManager::allocateId() {
  std::lock_guard<std::mutex> Lock(Mu);
  return ++NextId;
}

std::shared_ptr<Epoch> EpochManager::install(std::shared_ptr<Epoch> E) {
  static Counter &Retirements = counter("serve.epoch_retirements");
  std::shared_ptr<Epoch> Old;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Old = std::move(Cur);
    Cur = std::move(E);
  }
  if (Old)
    Retirements.inc();
  return Old;
}
