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

Status Epoch::labelsOf(ExprId E, const Deadline &D, DenseBitset &Out) const {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  // A kernel row, a walk, a table read, or the universal set: all reads.
  Out = Q ? Q->labelsOf(E) : Hybrid->labelSet(E);
  return Status::ok();
}

Status Epoch::isLabelIn(ExprId E, LabelId L, const Deadline &D,
                        bool &Out) const {
  if (D.expired())
    return Status::deadlineExceeded("query deadline expired before start");
  Out = Q ? Q->isLabelIn(E, L) : Hybrid->labelSet(E).contains(L.index());
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

Status Epoch::allLabels(const Deadline &D, InternedLabelSets &Out) {
  const uint32_t E = CanonExprs;
  if (Q) {
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
  // Degraded rungs: one table read per occurrence, interned.
  Out = InternedLabelSets(CanonLabels, E);
  for (uint32_t I = 0; I != E; ++I) {
    if ((I & 255u) == 0 && D.expired()) {
      Out.Done.assign(I, 1); // the answered prefix
      Out.Done.resize(E, 0);
      return Status::deadlineExceeded("all-labels sweep exceeded deadline");
    }
    Out.set(I, Hybrid->labelSet(ExprId(I)));
  }
  return Status::ok();
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
                   unsigned Threads, LintResult &Out) {
  LintOptions LO;
  LO.Passes = Passes;
  LO.D = D;
  LO.Threads = Threads;
  std::lock_guard<std::mutex> Lock(Mu);
  const Module *LM = nullptr;
  const FrozenGraph *LF = nullptr;
  if (Status S = sliceSubstrate(LM, LF); !S.isOk())
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

Status Epoch::sliceSubstrate(const Module *&OutM, const FrozenGraph *&OutF) {
  const FrozenGraph *F = frozen();
  if (!F || !F->status().isOk())
    return Status::failedPrecondition(
        "this pass requires the subtransitive engine; this epoch degraded "
        "to " +
        std::string(engine()));
  if (!M) {
    // A delta epoch's first lint or slice: its view is already canonical,
    // so the module only has to supply expression kinds, ranges and
    // names.  A fresh parse of the spliced source numbers them exactly as
    // the view does.
    static Counter &Parses = counter("delta.epoch_parses");
    Span ParseSpan("serve.epoch_parse");
    Parses.inc();
    DiagnosticEngine Diags;
    std::unique_ptr<Module> Parsed = parseProgram(DeltaSource, Diags);
    if (!Parsed || Parsed->numExprs() != F->numExprs() ||
        Parsed->numVars() != F->numVars() ||
        Parsed->numLabels() != F->numLabels())
      return Status::internal(
          "delta epoch source does not match its frozen view");
    ParseSpan.arg("exprs", Parsed->numExprs());
    M = std::move(Parsed);
    std::string().swap(DeltaSource);
  }
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
  if (Status S = sliceSubstrate(SM, SF); !S.isOk())
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
