//===-- serve/Epoch.h - Versioned analysis epochs for serve mode *- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An `Epoch` is one immutable loaded analysis: the one answer path of
/// both the daemon and the `stcfa` driver.  It answers from a frozen
/// graph in the canonical numbering clients speak plus the query engine
/// over it (a live solve, an mmap-backed snapshot, or an incremental
/// `edit`'s `DeltaView`), or, when no graph exists (the hybrid's standard
/// and partial rungs, the driver's standard and unify analyses), from
/// one interned label-set table filled at construction.  A snapshot or
/// delta epoch parses its source on the first `lint` or `slice` (no
/// inference: no pass reads a type).  Epochs are reference-counted via
/// `shared_ptr`: a `load` installs a new epoch while requests already
/// dispatched keep answering against the one they resolved at accept
/// time; the old mapping is unmapped when the last such reference drains
/// (watch the `serve.epochs_live` gauge).
///
/// Point queries take no lock, nor does an `allLabels` over a complete
/// kernel or a table.  The internal mutex guards only what is still built
/// lazily: a governed or kernel-building `allLabels`, the first
/// `lint`/`slice` parse, and the cached dependence graph.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SERVE_EPOCH_H
#define STCFA_SERVE_EPOCH_H

#include "analysis/HybridCFA.h"
#include "ast/Module.h"
#include "core/LabelSetKernel.h"
#include "core/QueryEngine.h"
#include "delta/DeltaSession.h"
#include "lint/LintEngine.h"
#include "slice/Slicer.h"
#include "snapshot/Snapshot.h"
#include "support/Deadline.h"
#include "support/Status.h"

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace stcfa {
namespace serve {

/// The one live pipeline the daemon runs — behind a `load` that missed
/// the snapshot cache and a full-pipeline `edit`: parse, infer (untyped
/// programs still analyze), then solve the hybrid ladder.
struct LivePipeline {
  std::unique_ptr<Module> M;
  std::unique_ptr<HybridCFA> H;

  /// Runs the pipeline over \p Source into `M` and `H`: `InvalidArgument`
  /// carrying the rendered diagnostics when it does not parse, the
  /// ladder's status when no rung served (`H` then stays null).
  Status run(const std::string &Source, const HybridOptions &HO);
};

/// One loaded program at one version.  Immutable after construction
/// apart from the lazily parsed module, the cached dependence graph and
/// the engine's kernel while a batch builds it (all guarded by `Mu`).
class Epoch {
public:
  /// Live-pipeline epoch: \p H has been solved (some rung served).  A
  /// degraded rung's answers are copied into the table here and the
  /// ladder is released.
  Epoch(uint64_t Id, std::unique_ptr<Module> M, std::unique_ptr<HybridCFA> H);

  /// Mapped epoch: \p Snap passed validation and content-hash checks.
  /// The persisted kernel rows, when present, are adopted as the batch
  /// backend.  \p Source is the program text the snapshot was built from
  /// (empty when unknown): the first `lint` or `slice` parses it.
  Epoch(uint64_t Id, std::unique_ptr<LoadedSnapshot> Snap, std::string Source,
        size_t KernelThreshold);

  /// Delta epoch: published by an incremental `edit`.  The view's frozen
  /// snapshot is already in canonical numbering, so it serves queries
  /// like any other.  \p Source is the session's current (spliced)
  /// source text: the first `lint` or `slice` parses it into the module
  /// those walk, so their answers match a fresh load of the same text.
  Epoch(uint64_t Id, DeltaView V, std::string Source, size_t KernelThreshold);

  /// Same as the delta epoch above; the lane count is ignored.
  /// Benchmark-only: kept for `perfbench/ServeEdit.cpp`'s replay.
  Epoch(uint64_t Id, DeltaView V, std::string Source, unsigned,
        size_t KernelThreshold)
      : Epoch(Id, std::move(V), std::move(Source), KernelThreshold) {}

  /// Frozen-graph epoch over \p F, frozen from a closed graph of \p M
  /// (the driver's subtransitive and polyvariant analyses).
  Epoch(uint64_t Id, std::unique_ptr<Module> M, std::unique_ptr<FrozenGraph> F,
        size_t KernelThreshold);

  /// Graph-free epoch: \p LabelSet answers every occurrence of \p M once,
  /// here, into the table (the driver's standard and unification
  /// analyses).  \p Engine names the analysis for `engine()`.
  Epoch(uint64_t Id, std::unique_ptr<Module> M, const char *Engine,
        const std::function<DenseBitset(ExprId)> &LabelSet);

  ~Epoch();

  Epoch(const Epoch &) = delete;
  Epoch &operator=(const Epoch &) = delete;

  uint64_t id() const { return EpochId; }
  /// The parsed module; a snapshot or delta epoch has one only after its
  /// first `lint`, `slice` or `dependenceGraph`.
  const Module &module() const { return *M; }

  /// The serving engine: "snapshot" for a mapped epoch, "delta" for an
  /// edit's view, else the analysis or ladder rung ("subtransitive",
  /// "standard", "partial", "unify").
  const char *engine() const { return EngineName; }

  /// The CSR snapshot behind the query engine; null for a graph-free
  /// epoch (it answers from its table).
  const FrozenGraph *frozen() const { return F; }

  /// Admission cost in governor node units: CSR nodes when frozen,
  /// occurrence count for a graph-free epoch (its table reads scale with
  /// the program, not a graph).
  uint64_t cost() const;

  /// Canonical program shape (what clients address); a snapshot or delta
  /// epoch takes it from its frozen tables, not the (lazily parsed)
  /// module.
  uint32_t numExprs() const { return CanonExprs; }
  uint32_t numLabels() const { return CanonLabels; }
  ExprId root() const { return RootId; }

  //===--- queries (thread-safe) ------------------------------------------//

  /// Point queries: lock-free on every epoch.
  Status labelsOf(ExprId E, const Deadline &D, DenseBitset &Out) const;
  Status isLabelIn(ExprId E, LabelId L, const Deadline &D, bool &Out) const;
  Status occurrencesOf(LabelId L, const Deadline &D,
                       std::vector<ExprId> &Out) const;
  /// Every occurrence's set, interned; a governed batch's unanswered
  /// occurrences read the empty row (status says why).  Over a complete
  /// kernel or the table no lock is taken and the result borrows that
  /// pool, so it must not outlive the epoch; a governed or
  /// kernel-building batch holds the mutex.
  Status allLabels(const Deadline &D, InternedLabelSets &Out);

  /// `allLabels` materialised: one set per occurrence, `Done[I]` false
  /// for slots a governed batch left unanswered.
  Status allLabels(const Deadline &D, std::vector<DenseBitset> &Out,
                   std::vector<char> &Done);

  /// Runs the checker passes over the module and the frozen graph.  A
  /// graph-free epoch returns `FailedPrecondition` (lint needs the
  /// subtransitive graph's ports, which the cubic and partial rungs never
  /// build).
  Status lint(const std::vector<std::string> &Passes, const Deadline &D,
              LintResult &Out);

  /// Same as `lint(Passes, D, Out)`; the lane count is ignored.
  /// Benchmark-only: kept for `perfbench/ServeEdit.cpp`'s replay.
  Status lint(const std::vector<std::string> &Passes, const Deadline &D,
              unsigned, LintResult &Out) {
    return lint(Passes, D, Out);
  }

  /// The epoch's dependence graph, built on first demand and cached for
  /// the epoch's lifetime: what `slice` walks, and what the driver's
  /// `--dce` and `--export-deps` read.  Same precondition as `lint`.
  Status dependenceGraph(const Deadline &D, const DependenceGraph *&Out);

  /// One slice answer: member occurrence ids and (when requested) one
  /// witness chain per member, which each caller renders its own way.
  struct SliceReply {
    std::vector<ExprId> Members;
    /// Parallel to `Members`, or empty.
    std::vector<std::vector<WitnessStep>> Witnesses;
    bool Partial = false;
    /// Why a partial slice stopped early; Ok otherwise.
    Status Stop;
    /// The graph the chains walk (`Slicer::renderWitness` renders them
    /// over it); the epoch's, valid while it lives.
    const DependenceGraph *Deps = nullptr;
  };

  /// Demand-driven slice from \p Target over `dependenceGraph`.  A
  /// governed abort mid-traversal returns Ok with `Out.Partial` set
  /// (slices are usable under-approximations).
  Status slice(ExprId Target, SliceDirection Dir, bool Witness,
               const Deadline &D, SliceReply &Out);

private:
  void setShape(uint32_t Exprs, uint32_t Labels, ExprId Root);

  /// Serves from \p F through an engine of the epoch's own.
  void serveFrozen(const FrozenGraph &F, size_t KernelThreshold);

  /// Fills the table from \p LabelSet, one answer per occurrence.
  void fillTable(const std::function<DenseBitset(ExprId)> &LabelSet);
  /// True iff label \p L is in occurrence \p E's table row.
  bool tableHas(uint32_t E, uint32_t L) const;

  /// `dependenceGraph` for a caller that holds `Mu`.  The first call
  /// parses a snapshot or delta epoch's source.
  Status buildDeps(const Deadline &D, const DependenceGraph *&Out);

  /// Readies the module and frozen graph lint and the slice subsystem
  /// walk; `FailedPrecondition` for a graph-free epoch.  Caller holds
  /// `Mu`.
  Status substrate();

  uint64_t EpochId;
  const char *EngineName;
  /// Null for a snapshot or delta epoch until its first lint/slice (set
  /// under `Mu`); `Source` is the text it is parsed from, released once
  /// parsed.
  std::unique_ptr<Module> M;
  std::string Source;

  // What owns the frozen graph, by source: the ladder, the mapping, the
  // edit's view, or the epoch itself.  At most one is set.
  std::unique_ptr<HybridCFA> Hybrid;
  std::unique_ptr<LoadedSnapshot> Snap;
  DeltaView View;
  std::unique_ptr<FrozenGraph> OwnedFrozen;

  /// The frozen graph and the engine serving it; both null when the
  /// epoch answers from `Table`.
  const FrozenGraph *F = nullptr;
  std::unique_ptr<QueryEngine> OwnedEngine;
  QueryEngine *Q = nullptr;

  /// Every occurrence's answer when there is no graph.
  InternedLabelSets Table;

  /// Dependence graph, cached on its first successful build.
  std::unique_ptr<DependenceGraph> Deps;

  // Canonical shape, valid on every path.
  uint32_t CanonExprs = 0;
  uint32_t CanonLabels = 0;
  ExprId RootId = ExprId::invalid();

  std::mutex Mu; ///< serializes the lazily built state (see the file comment)
};

/// The daemon's epoch registry: one current epoch, swapped atomically on
/// `load`; superseded epochs live until their last in-flight reference
/// drains.
class EpochManager {
public:
  /// The epoch new requests resolve against; null before the first load.
  std::shared_ptr<Epoch> current() const;

  /// A fresh monotonically increasing epoch id (first id is 1).
  uint64_t allocateId();

  /// Installs \p E as current; counts `serve.epoch_retirements` when it
  /// supersedes one.  The returned previous epoch (possibly null) keeps
  /// the caller in control of where the old mapping is released.
  std::shared_ptr<Epoch> install(std::shared_ptr<Epoch> E);

private:
  mutable std::mutex Mu;
  std::shared_ptr<Epoch> Cur;
  uint64_t NextId = 0;
};

} // namespace serve
} // namespace stcfa

#endif // STCFA_SERVE_EPOCH_H
