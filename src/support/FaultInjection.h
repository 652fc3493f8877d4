//===-- support/FaultInjection.h - Deterministic fault points ---*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, compile-time-gated fault injection for the resource
/// governor.  Pipeline stages name their failure points — budget
/// exhaustion, simulated allocation failure, injected timeout or
/// cancellation — and the fault-injection test suite arms one site at a
/// time, runs the full pipeline, and asserts that the armed site degrades
/// into the documented `Status` instead of crashing.
///
/// Every site is declared once in the central registry
/// (`registeredFaultSites()`), so the test suite can iterate all of them
/// without grepping the source.  A stage polls its site with
///
/// \code
///   if (faultFires(fault::CloseNodeBudget)) { ... same path as the real
///                                             failure ... }
/// \endcode
///
/// placed on the *same branch* the organic failure takes, so injection
/// exercises the production unwind code, not a parallel test-only path.
///
/// Gating: when `STCFA_FAULT_INJECTION` is 0 (production),
/// `faultFires()` is a `constexpr false` and every check folds away at
/// compile time.  When 1 (the default for this repo, so tier-1 ctest
/// exercises the suite), a disarmed check is one relaxed atomic load —
/// and no site sits on the point-query DFS hot path anyway.
///
/// Arming is process-global and single-site (the suite runs sites one at
/// a time); `armFault(Site, SkipHits)` optionally lets the first
/// `SkipHits` polls pass, so a site inside a loop can be triggered
/// mid-stream deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_FAULTINJECTION_H
#define STCFA_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <span>
#include <string_view>

#ifndef STCFA_FAULT_INJECTION
#define STCFA_FAULT_INJECTION 0
#endif

namespace stcfa {

/// What an armed site simulates when it fires.
enum class FaultKind : uint8_t {
  Budget,    ///< a node/edge budget reports exhaustion
  Alloc,     ///< an allocation reports failure
  Timeout,   ///< a deadline reports expiry
  Cancel,    ///< a cancellation token reports cancellation
  Corrupt,   ///< a stage silently produces a wrong answer (test canary)
};

/// One registered fault point.
struct FaultSite {
  std::string_view Name;  ///< e.g. "close.node-budget"
  FaultKind Kind;
  std::string_view Description;
};

/// Site names, shared between the checks and the registry so a typo is a
/// link error rather than a silently dead site.
namespace fault {
inline constexpr std::string_view CloseNodeBudget = "close.node-budget";
inline constexpr std::string_view CloseEdgeBudget = "close.edge-budget";
inline constexpr std::string_view CloseDeadline = "close.deadline";
inline constexpr std::string_view CloseCancel = "close.cancel";
inline constexpr std::string_view CloseAlloc = "close.alloc";
inline constexpr std::string_view FreezeDeadline = "freeze.deadline";
inline constexpr std::string_view FreezeAlloc = "freeze.alloc";
inline constexpr std::string_view QueryBatchDeadline = "query.batch-deadline";
inline constexpr std::string_view QueryBatchCancel = "query.batch-cancel";
inline constexpr std::string_view KernelAlloc = "kernel.alloc";
/// Polled once per kernel poll stride; the site keeps the name it had
/// when the kernel polled once per DAG level.
inline constexpr std::string_view KernelCancel = "kernel.level-cancel";
inline constexpr std::string_view KernelRowCorrupt = "kernel.row-corrupt";
inline constexpr std::string_view HybridSubtransitiveBudget =
    "hybrid.subtransitive-budget";
inline constexpr std::string_view HybridFreezeAlloc = "hybrid.freeze-alloc";
inline constexpr std::string_view HybridStandardDeadline =
    "hybrid.standard-deadline";
inline constexpr std::string_view SnapshotWriteAlloc = "snapshot.write-alloc";
inline constexpr std::string_view SnapshotMapFail = "snapshot.map-fail";
inline constexpr std::string_view SnapshotTruncate = "snapshot.truncate";
inline constexpr std::string_view SnapshotHeaderCorrupt =
    "snapshot.header-corrupt";
inline constexpr std::string_view SnapshotCsrBitFlip = "snapshot.csr-bit-flip";
inline constexpr std::string_view ServeAcceptAlloc = "serve.accept-alloc";
inline constexpr std::string_view ServeRequestParse = "serve.request-parse";
inline constexpr std::string_view ServeReplyWrite = "serve.reply-write";
inline constexpr std::string_view DeltaDiffAlloc = "delta.diff-alloc";
inline constexpr std::string_view DeltaRecloseAbort = "delta.reclose-abort";
inline constexpr std::string_view DeltaInstallRace = "delta.install-race";
inline constexpr std::string_view SliceAlloc = "slice.alloc";
inline constexpr std::string_view SliceWitnessCorrupt = "slice.witness-corrupt";
} // namespace fault

/// All registered fault points (stable order).  Available even in
/// production builds, where no site can fire.
std::span<const FaultSite> registeredFaultSites();

/// True when fault injection is compiled in.
constexpr bool faultInjectionEnabled() { return STCFA_FAULT_INJECTION != 0; }

#if STCFA_FAULT_INJECTION

/// Arms the registered site \p Name; its first `SkipHits` polls pass,
/// then every poll fires until `disarmFaults()`.  Returns false (and
/// arms nothing) for an unregistered name.
bool armFault(std::string_view Name, uint64_t SkipHits = 0);

/// Disarms whatever is armed.
void disarmFaults();

/// Polls the site \p Name: true iff it is armed and its skip count is
/// exhausted.  Threads may poll concurrently.
bool faultFires(std::string_view Name);

/// True while some site is armed.
bool anyFaultArmed();

#else

inline bool armFault(std::string_view, uint64_t = 0) { return false; }
inline void disarmFaults() {}
inline constexpr bool faultFires(std::string_view) { return false; }
inline constexpr bool anyFaultArmed() { return false; }

#endif // STCFA_FAULT_INJECTION

} // namespace stcfa

#endif // STCFA_SUPPORT_FAULTINJECTION_H
