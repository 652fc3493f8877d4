//===-- serve/Epoch.h - Versioned analysis epochs for serve mode *- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An `Epoch` is one immutable loaded analysis: a frozen graph in the
/// canonical numbering clients speak, the query engine over it, and the
/// parsed module lint and slice walk.  Three sources publish one: a live
/// hybrid pipeline (cache miss — the degradation ladder decides which
/// engine serves), an mmap-backed snapshot (cache hit — the crash-safe
/// warm-restart path), or an incremental `edit` (a `DeltaView`, whose
/// module is parsed on the first `lint` or `slice`).  Epochs
/// are reference-counted via `shared_ptr`: a `load` installs a new epoch
/// while requests already dispatched keep answering against the one they
/// resolved at accept time; the old mapping is unmapped when the last
/// such reference drains (watch the `serve.epochs_live` gauge).
///
/// Point queries take no lock, nor does an `allLabels` over a complete
/// kernel.  The internal mutex guards only what is still built lazily: a
/// governed or kernel-building `allLabels`, a delta epoch's first
/// `lint`/`slice` parse, and the cached dependence graph.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SERVE_EPOCH_H
#define STCFA_SERVE_EPOCH_H

#include "analysis/HybridCFA.h"
#include "ast/Module.h"
#include "core/QueryEngine.h"
#include "delta/DeltaSession.h"
#include "lint/LintEngine.h"
#include "slice/Slicer.h"
#include "snapshot/Snapshot.h"
#include "support/Deadline.h"
#include "support/Status.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace stcfa {
namespace serve {

/// The one live pipeline the daemon runs — behind a full `load` and a
/// full-pipeline `edit`: parse, infer (untyped programs still analyze),
/// then solve the hybrid
/// ladder.  Two steps, so a `load` can consult the snapshot cache with
/// the parsed module before paying for the solve.
struct LivePipeline {
  std::unique_ptr<Module> M;
  std::unique_ptr<HybridCFA> H;

  /// Parses and infers \p Source into `M`; `InvalidArgument` carrying the
  /// rendered diagnostics when it does not parse.
  Status parse(const std::string &Source);

  /// Solves the ladder over `M` into `H`; the ladder's status when no
  /// rung served (`H` then stays null).
  Status solve(const HybridOptions &HO);
};

/// One loaded program at one version.  Immutable after construction
/// apart from a delta epoch's lazily parsed module, the cached dependence
/// graph and the engine's kernel while a batch builds it (all guarded by
/// `Mu`).
class Epoch {
public:
  /// Live-pipeline epoch: \p H has been solved (some rung served).
  Epoch(uint64_t Id, std::unique_ptr<Module> M, std::unique_ptr<HybridCFA> H);

  /// Mapped epoch: \p Snap passed validation and content-hash checks and
  /// was frozen from a module with \p M's shape.  The persisted kernel
  /// rows, when present, are adopted as the batch backend.
  Epoch(uint64_t Id, std::unique_ptr<Module> M,
        std::unique_ptr<LoadedSnapshot> Snap, unsigned Threads,
        size_t KernelThreshold);

  /// Delta epoch: published by an incremental `edit`.  The view's frozen
  /// snapshot is already in canonical numbering, so it serves queries
  /// like any other.  \p Source is the session's current (spliced)
  /// source text: the first `lint` or `slice` parses it into the module
  /// those walk (no inference, no solve — they read only kinds, ranges
  /// and names), so their answers match a fresh load of the same text.
  Epoch(uint64_t Id, DeltaView V, std::string Source, unsigned Threads,
        size_t KernelThreshold);

  ~Epoch();

  Epoch(const Epoch &) = delete;
  Epoch &operator=(const Epoch &) = delete;

  uint64_t id() const { return EpochId; }
  /// The parsed module; a delta epoch has one only after its first
  /// `lint` or `slice`.
  const Module &module() const { return *M; }

  /// The serving engine: "snapshot" for a mapped epoch, else the hybrid
  /// ladder's rung ("subtransitive", "standard", "partial").
  const char *engine() const;

  /// The CSR snapshot behind the query engine; null when the ladder
  /// degraded past the subtransitive rung (no frozen tables exist).
  const FrozenGraph *frozen() const;

  /// Admission cost in governor node units: CSR nodes when frozen,
  /// occurrence count under a degraded engine (its table reads scale
  /// with the program, not a graph).
  uint64_t cost() const;

  /// Canonical program shape (what clients address); for a delta epoch
  /// these come from the view, not the (lazily parsed) module.
  uint32_t numExprs() const { return CanonExprs; }
  uint32_t numLabels() const { return CanonLabels; }
  ExprId root() const { return RootId; }

  //===--- queries (thread-safe) ------------------------------------------//

  /// Point queries: lock-free on every engine and rung.
  Status labelsOf(ExprId E, const Deadline &D, DenseBitset &Out) const;
  Status isLabelIn(ExprId E, LabelId L, const Deadline &D, bool &Out) const;
  Status occurrencesOf(LabelId L, const Deadline &D,
                       std::vector<ExprId> &Out) const;
  /// Every occurrence's set, interned; a governed batch's unanswered
  /// occurrences read the empty row (status says why).  Over a complete
  /// kernel no lock is taken and the result borrows the kernel's pool, so
  /// it must not outlive the epoch; a governed or kernel-building batch
  /// holds the mutex.
  Status allLabels(const Deadline &D, InternedLabelSets &Out);

  /// `allLabels` materialised: one set per occurrence, `Done[I]` false
  /// for slots a governed batch left unanswered.
  Status allLabels(const Deadline &D, std::vector<DenseBitset> &Out,
                   std::vector<char> &Done);

  /// Runs the checker passes over `sliceSubstrate`'s pair.  A degraded
  /// epoch returns `FailedPrecondition` (lint needs the subtransitive
  /// graph's ports, which the cubic and partial rungs never build).
  Status lint(const std::vector<std::string> &Passes, const Deadline &D,
              unsigned Threads, LintResult &Out);

  /// One slice answer, serve-shaped: canonical member occurrence ids and
  /// (when requested) one rendered witness chain per member.
  struct SliceReply {
    std::vector<ExprId> Members;
    std::vector<std::string> Witnesses; ///< parallel to Members, or empty
    bool Partial = false;
  };

  /// Demand-driven slice from \p Target over the epoch's dependence
  /// graph (built lazily, cached for the epoch's lifetime).  Same
  /// precondition as `lint`.  A governed abort mid-traversal returns Ok
  /// with `Out.Partial` set (slices are usable under-approximations).
  Status slice(ExprId Target, SliceDirection Dir, bool Witness,
               const Deadline &D, SliceReply &Out);

private:
  /// The (module, frozen graph) pair `lint` and the slice subsystem
  /// consume; `FailedPrecondition` explaining why when the epoch has no
  /// usable frozen tables.  A delta epoch parses its spliced source here
  /// on first demand.  Caller holds `Mu`.
  Status sliceSubstrate(const Module *&OutM, const FrozenGraph *&OutF);

  /// Builds (or returns the cached) dependence graph.  Caller holds `Mu`.
  Status dependenceGraph(const Deadline &D, const DependenceGraph *&Out);

  uint64_t EpochId;
  /// Null for a delta epoch until its first lint/slice (set under `Mu`).
  std::unique_ptr<Module> M;
  // Live path (cache miss): the ladder owns graph/frozen/engine.
  std::unique_ptr<HybridCFA> Hybrid;
  // Mapped and delta paths: the snapshot or the view owns the tables,
  // `MappedEngine` queries them.  `DeltaSource` is the text the delta
  // epoch's module is parsed from (released once parsed).
  std::unique_ptr<LoadedSnapshot> Snap;
  DeltaView View;
  std::string DeltaSource;
  std::unique_ptr<QueryEngine> MappedEngine;

  // Slice subsystem (all flavours): dependence graph cached on first
  // successful build.
  std::unique_ptr<DependenceGraph> Deps;

  /// The engine serving point/batch queries, or null when degraded.
  QueryEngine *Q = nullptr;

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
