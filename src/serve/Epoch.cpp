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
    : EpochId(Id), M(std::move(Mod)), Hybrid(std::move(H)) {
  assert(Hybrid && Hybrid->engine() != HybridCFA::Engine::None &&
         "live epoch needs a served ladder");
  Q = Hybrid->queryEngine(); // null when the ladder degraded
  CanonExprs = M->numExprs();
  CanonLabels = M->numLabels();
  RootId = M->root();
  recordEpochDelta(+1);
}

Epoch::Epoch(uint64_t Id, std::unique_ptr<Module> Mod,
             std::unique_ptr<LoadedSnapshot> S, unsigned Threads,
             size_t KernelThreshold) // NOLINT(bugprone-easily-swappable-parameters)
    : EpochId(Id), M(std::move(Mod)), Snap(std::move(S)) {
  MappedEngine = std::make_unique<QueryEngine>(Snap->frozen(), Threads);
  MappedEngine->setKernelThreshold(KernelThreshold);
  if (auto Kern = Snap->adoptKernel())
    MappedEngine->adoptKernel(std::move(Kern));
  Q = MappedEngine.get();
  CanonExprs = M->numExprs();
  CanonLabels = M->numLabels();
  RootId = M->root();
  recordEpochDelta(+1);
}

Epoch::Epoch(uint64_t Id, DeltaView V, std::string Source, unsigned Threads,
             size_t KernelThreshold)
    : EpochId(Id), View(std::move(V)), DeltaSource(std::move(Source)) {
  assert(View.Frozen && "delta epoch needs a frozen view");
  DeltaOpts.Threads = Threads;
  DeltaOpts.KernelThreshold = KernelThreshold;
  MappedEngine = std::make_unique<QueryEngine>(*View.Frozen, Threads);
  MappedEngine->setKernelThreshold(KernelThreshold);
  Q = MappedEngine.get();
  CanonExprs = View.NumExprs;
  CanonLabels = View.NumLabels;
  // Canonical numbering puts the outermost spine let — the program root —
  // last (it is the last expression a fresh parse creates).
  RootId = ExprId(View.NumExprs - 1);
  recordEpochDelta(+1);
}

Epoch::~Epoch() { recordEpochDelta(-1); }

const char *Epoch::engine() const {
  if (View.Frozen)
    return "delta";
  if (Snap)
    return "snapshot";
  return engineName(Hybrid->engine());
}

const FrozenGraph *Epoch::frozen() const {
  if (View.Frozen)
    return View.Frozen.get();
  if (Snap)
    return &Snap->frozen();
  return Hybrid->frozen();
}

uint64_t Epoch::cost() const {
  const FrozenGraph *F = frozen();
  uint64_t C = F ? F->numNodes() : CanonExprs;
  return C ? C : 1;
}

DenseBitset Epoch::translateRow(const DenseBitset &ShadowRow) const {
  DenseBitset Out(CanonLabels);
  ShadowRow.forEach([&](uint32_t ShadowL) {
    uint32_t C = View.LabelFromShadow[ShadowL];
    if (C != ~0u)
      Out.insert(C);
  });
  return Out;
}

Status Epoch::labelsOf(ExprId E, const Deadline &D, DenseBitset &Out) {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  std::lock_guard<std::mutex> Lock(Mu);
  if (View.Frozen) {
    Out = translateRow(Q->labelsOf(ExprId(View.ExprToShadow[E.index()])));
    return Status::ok();
  }
  if (Q) {
    Out = Q->labelsOf(E);
    return Status::ok();
  }
  Out = Hybrid->labelSet(E); // table read / universal set on degraded rungs
  return Status::ok();
}

Status Epoch::isLabelIn(ExprId E, LabelId L, const Deadline &D, bool &Out) {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  std::lock_guard<std::mutex> Lock(Mu);
  if (View.Frozen) {
    Out = Q->isLabelIn(ExprId(View.ExprToShadow[E.index()]),
                       LabelId(View.LabelToShadow[L.index()]));
    return Status::ok();
  }
  if (Q) {
    Out = Q->isLabelIn(E, L);
    return Status::ok();
  }
  Out = Hybrid->labelSet(E).contains(L.index());
  return Status::ok();
}

Status Epoch::occurrencesOf(LabelId L, const Deadline &D,
                            std::vector<ExprId> &Out) {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  std::lock_guard<std::mutex> Lock(Mu);
  if (View.Frozen) {
    Out.clear();
    for (ExprId Shadow :
         Q->occurrencesOf(LabelId(View.LabelToShadow[L.index()]))) {
      uint32_t C = View.ExprFromShadow[Shadow.index()];
      if (C != ~0u)
        Out.push_back(ExprId(C));
    }
    std::sort(Out.begin(), Out.end(),
              [](ExprId A, ExprId B) { return A.index() < B.index(); });
    return Status::ok();
  }
  if (Q) {
    Out = Q->occurrencesOf(L);
    return Status::ok();
  }
  // Degraded sweep: one table read per occurrence, polled coarsely.
  Out.clear();
  for (uint32_t I = 0, E = CanonExprs; I != E; ++I) {
    if ((I & 1023u) == 0 && D.expired())
      return Status::deadlineExceeded("occurrence sweep exceeded deadline");
    if (Hybrid->labelSet(ExprId(I)).contains(L.index()))
      Out.push_back(ExprId(I));
  }
  return Status::ok();
}

Status Epoch::allLabels(const Deadline &D, std::vector<DenseBitset> &Out,
                        std::vector<char> &Done) {
  const uint32_t E = CanonExprs;
  std::unique_lock<std::mutex> Lock(Mu);
  // A complete kernel is read-only: its rows are copied after Mu is
  // released, so point queries do not wait behind a whole-program batch.
  if (Q && !View.Frozen && D.isInfinite())
    if (const LabelSetKernel *K = Q->completeKernel(E)) {
      Lock.unlock();
      Out.clear();
      Out.reserve(E);
      for (uint32_t I = 0; I != E; ++I)
        Out.push_back(K->labelsOf(ExprId(I)));
      Done.assign(E, 1);
      return Status::ok();
    }
  if (Q) {
    std::vector<ExprId> Es;
    Es.reserve(E);
    // A delta epoch batches over shadow ids in canonical order, so the
    // result and `Done` slots line up with canonical ids as-is.
    for (uint32_t I = 0; I != E; ++I)
      Es.push_back(View.Frozen ? ExprId(View.ExprToShadow[I]) : ExprId(I));
    Status BS = Status::ok();
    if (D.isInfinite()) {
      Out = Q->labelsOfBatch(Es);
      Done.assign(E, 1);
    } else {
      BatchControl BC;
      BC.D = D;
      BatchOutcome Outcome;
      Out = Q->labelsOfBatch(Es, BC, Outcome);
      Done = std::move(Outcome.Done);
      BS = Outcome.S;
    }
    if (View.Frozen)
      for (DenseBitset &Row : Out)
        Row = translateRow(Row);
    return BS;
  }
  Out.clear();
  Out.reserve(E);
  Done.assign(E, 0);
  for (uint32_t I = 0; I != E; ++I) {
    if ((I & 255u) == 0 && D.expired()) {
      Out.resize(E);
      return Status::deadlineExceeded("all-labels sweep exceeded deadline");
    }
    Out.push_back(Hybrid->labelSet(ExprId(I)));
    Done[I] = 1;
  }
  return Status::ok();
}

Status Epoch::lint(const std::vector<std::string> &Passes, const Deadline &D,
                   unsigned Threads, LintResult &Out) {
  LintOptions LO;
  LO.Passes = Passes;
  LO.D = D;
  LO.Threads = Threads;
  std::lock_guard<std::mutex> Lock(Mu);
  // A delta epoch lints the spliced source through the lazy full
  // pipeline, so the findings are bit-exact with a fresh full load of the
  // same text (tests/serve_edit_test.cpp proves it).
  const Module *LM = nullptr;
  const FrozenGraph *LF = nullptr;
  if (Status S = sliceSubstrate(D, LM, LF); !S.isOk())
    return S;
  Out = LintEngine(*LM, *LF).run(LO);
  return Status::ok();
}

Status LivePipeline::parse(const std::string &Source) {
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
  return Status::ok();
}

Status LivePipeline::solve(const HybridOptions &HO) {
  auto Solved = std::make_unique<HybridCFA>(*M, HO);
  if (Status S = Solved->solve(); !S.isOk())
    return S;
  H = std::move(Solved);
  return Status::ok();
}

Status Epoch::sliceSubstrate(const Deadline &D, const Module *&OutM,
                             const FrozenGraph *&OutF) {
  if (View.Frozen) {
    if (!Delta.H) {
      LivePipeline P; // published only once solved: failures retry
      HybridOptions HO = DeltaOpts;
      HO.D = D;
      if (Status S = P.parse(DeltaSource); !S.isOk())
        return S;
      if (Status S = P.solve(HO); !S.isOk())
        return S;
      Delta = std::move(P);
    }
    const FrozenGraph *F = Delta.H->frozen();
    if (!F || !F->status().isOk())
      return Status::failedPrecondition(
          "this pass requires the subtransitive engine; the delta epoch's "
          "full pipeline degraded to " +
          std::string(engineName(Delta.H->engine())));
    // The lazy pipeline reparses the spliced source, so its module ids
    // are exactly the canonical numbering clients already speak.
    OutM = Delta.M.get();
    OutF = F;
    return Status::ok();
  }
  const FrozenGraph *F = frozen();
  if (!F || !F->status().isOk())
    return Status::failedPrecondition(
        "this pass requires the subtransitive engine; this epoch degraded "
        "to " +
        std::string(engine()));
  OutM = M.get();
  OutF = F;
  return Status::ok();
}

Status Epoch::dependenceGraph(const Deadline &D, const DependenceGraph *&Out) {
  if (Deps) {
    Out = Deps.get();
    return Status::ok();
  }
  const Module *SM = nullptr;
  const FrozenGraph *SF = nullptr;
  if (Status S = sliceSubstrate(D, SM, SF); !S.isOk())
    return S;
  DependenceGraph::Options DO;
  DO.D = D;
  Status BS = Status::ok();
  std::unique_ptr<DependenceGraph> DG =
      DependenceGraph::build(*SM, *SF, BS, DO);
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
  if (Status S = dependenceGraph(D, DG); !S.isOk())
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
  Out.Witnesses.clear();
  if (Witness)
    for (ExprId Member : R.Exprs) {
      std::vector<WitnessStep> Steps;
      if (Status WS = Sl.witnessFor(R, Member, Steps); !WS.isOk())
        return WS;
      Out.Witnesses.push_back(Sl.renderWitness(Steps));
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
