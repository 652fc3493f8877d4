//===-- support/FaultInjection.cpp - Deterministic fault points -----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include <atomic>

using namespace stcfa;

namespace {

// The central registry.  Adding a governed failure point means adding a
// row here and polling `faultFires(fault::...)` on the production
// failure branch; the fault-injection suite iterates this table.
constexpr FaultSite Sites[] = {
    {fault::CloseNodeBudget, FaultKind::Budget,
     "close phase reports the node budget exhausted"},
    {fault::CloseEdgeBudget, FaultKind::Budget,
     "close phase reports the edge budget exhausted"},
    {fault::CloseDeadline, FaultKind::Timeout,
     "close phase reports its deadline expired"},
    {fault::CloseCancel, FaultKind::Cancel,
     "close phase observes a cancellation request"},
    {fault::CloseAlloc, FaultKind::Alloc,
     "close phase reports a node-arena allocation failure"},
    {fault::FreezeDeadline, FaultKind::Timeout,
     "CSR compaction reports its deadline expired"},
    {fault::FreezeAlloc, FaultKind::Alloc,
     "CSR compaction reports an array allocation failure"},
    {fault::QueryBatchDeadline, FaultKind::Timeout,
     "a batched query observes its deadline expired between items"},
    {fault::QueryBatchCancel, FaultKind::Cancel,
     "a batched query observes a cancellation request between items"},
    {fault::KernelAlloc, FaultKind::Alloc,
     "the label-set kernel reports a schedule allocation failure"},
    {fault::KernelCancel, FaultKind::Cancel,
     "the label-set kernel observes a cancellation request at a poll "
     "(every 256 components of its sweep)"},
    {fault::KernelRowCorrupt, FaultKind::Corrupt,
     "the label-set kernel silently flips one bit in a finished row — a "
     "canary proving the differential fuzz suite can catch a wrong answer"},
    {fault::HybridSubtransitiveBudget, FaultKind::Budget,
     "the hybrid's subtransitive rung reports budget exhaustion"},
    {fault::HybridFreezeAlloc, FaultKind::Alloc,
     "the hybrid's freeze step reports an allocation failure"},
    {fault::HybridStandardDeadline, FaultKind::Timeout,
     "the hybrid's standard-CFA rung reports its deadline expired"},
    {fault::SnapshotWriteAlloc, FaultKind::Alloc,
     "the snapshot writer reports a serialization-buffer allocation failure"},
    {fault::SnapshotMapFail, FaultKind::Alloc,
     "the snapshot loader reports an mmap failure"},
    {fault::SnapshotTruncate, FaultKind::Corrupt,
     "the snapshot writer silently truncates the file's trailing bytes — a "
     "canary proving the loader rejects short files with a Status error"},
    {fault::SnapshotHeaderCorrupt, FaultKind::Corrupt,
     "the snapshot writer silently corrupts one header byte — a canary "
     "proving the loader's header validation rejects the file"},
    {fault::SnapshotCsrBitFlip, FaultKind::Corrupt,
     "the snapshot writer silently flips one bit in a CSR section after "
     "checksumming — a canary proving section checksums catch bit rot"},
    {fault::ServeAcceptAlloc, FaultKind::Alloc,
     "the daemon's request reader reports a line-buffer allocation failure"},
    {fault::ServeRequestParse, FaultKind::Alloc,
     "the daemon's request parser reports a mid-parse allocation failure"},
    {fault::ServeReplyWrite, FaultKind::Alloc,
     "the daemon's reply writer reports a serialization failure (the reply "
     "degrades to a minimal static error line)"},
    {fault::DeltaDiffAlloc, FaultKind::Alloc,
     "the edit-delta diff stage reports an allocation failure; the edit "
     "falls back to a full rebuild"},
    {fault::DeltaRecloseAbort, FaultKind::Timeout,
     "the edit-delta governed re-close reports its deadline expired; the "
     "edit falls back to a full rebuild"},
    {fault::DeltaInstallRace, FaultKind::Corrupt,
     "the daemon's edit-install generation check observes a concurrent "
     "epoch install; the edit falls back to a full reload"},
    {fault::SliceAlloc, FaultKind::Alloc,
     "the dependence-graph builder reports an adjacency-array allocation "
     "failure"},
    {fault::SliceWitnessCorrupt, FaultKind::Corrupt,
     "the slicer silently corrupts one witness parent link — a canary "
     "proving witness validation rejects a broken explanation instead of "
     "reporting it"},
};

#if STCFA_FAULT_INJECTION
// Armed state: a pointer into `Sites` plus a countdown of polls to let
// pass before firing.  Serve workers poll concurrently, so both are
// atomics; arming happens quiescently (tests arm before running).
std::atomic<const FaultSite *> Armed{nullptr};
std::atomic<uint64_t> SkipsLeft{0};
#endif

} // namespace

std::span<const FaultSite> stcfa::registeredFaultSites() { return Sites; }

#if STCFA_FAULT_INJECTION

bool stcfa::armFault(std::string_view Name, uint64_t SkipHits) {
  for (const FaultSite &S : Sites) {
    if (S.Name == Name) {
      SkipsLeft.store(SkipHits, std::memory_order_relaxed);
      Armed.store(&S, std::memory_order_release);
      return true;
    }
  }
  return false;
}

void stcfa::disarmFaults() {
  Armed.store(nullptr, std::memory_order_release);
}

bool stcfa::anyFaultArmed() {
  return Armed.load(std::memory_order_acquire) != nullptr;
}

bool stcfa::faultFires(std::string_view Name) {
  const FaultSite *S = Armed.load(std::memory_order_acquire);
  if (!S || S->Name != Name)
    return false;
  // Let the first SkipHits polls pass (deterministic mid-loop firing).
  uint64_t Left = SkipsLeft.load(std::memory_order_relaxed);
  while (Left != 0) {
    if (SkipsLeft.compare_exchange_weak(Left, Left - 1,
                                        std::memory_order_relaxed))
      return false;
  }
  return true;
}

#endif // STCFA_FAULT_INJECTION
