//===-- core/Condensation.h - SCC condensation of the graph -----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strongly-connected-component condensation of a `FrozenGraph`'s CSR
/// adjacency, cached across queries and consumed by the label-set kernel.
///
/// The computation is one iterative Tarjan pass.  Component ids are
/// assigned in *completion* order, which gives the invariant every
/// consumer relies on: every SCC reachable from component `C` has a
/// smaller id than `C`, so a single ascending-id sweep sees all
/// successors of a component finalized before the component itself
/// (reverse topological order of the condensed DAG).
///
/// The node -> component map may be *adopted* instead of computed: a
/// persisted snapshot (src/snapshot/) stores the map verbatim, and the
/// mmap-backed `FrozenGraph` view wraps the mapped array without copying
/// it, so warm loads skip the Tarjan pass entirely.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_CORE_CONDENSATION_H
#define STCFA_CORE_CONDENSATION_H

#include <cstdint>
#include <span>
#include <vector>

namespace stcfa {

/// The SCC partition of a directed graph over dense `uint32_t` node ids.
class Condensation {
public:
  /// Condenses the forward CSR `(Offsets, Targets)`: the successors of
  /// node `N` are `Targets[Offsets[N] .. Offsets[N + 1])`.
  Condensation(uint32_t NumNodes, std::span<const uint32_t> Offsets,
               std::span<const uint32_t> Targets);

  /// Adopts a precomputed node -> component map (a snapshot section)
  /// without copying; \p Map must outlive this object and satisfy the
  /// reverse-topological id invariant above.
  Condensation(std::span<const uint32_t> Map, uint32_t NumSccs)
      : SccOf(Map), NumSccs(NumSccs) {}

  uint32_t numNodes() const { return static_cast<uint32_t>(SccOf.size()); }
  uint32_t numSccs() const { return NumSccs; }

  /// The component of node \p N.  Ids are in reverse topological order:
  /// everything reachable from a component has a strictly smaller id.
  uint32_t sccOf(uint32_t N) const { return SccOf[N]; }

  /// The full node -> component map.
  std::span<const uint32_t> map() const { return SccOf; }

private:
  /// Backing storage when the map is computed here; empty when adopted.
  std::vector<uint32_t> Owned;
  /// The map itself: views `Owned` or an external (mmap-backed) array.
  std::span<const uint32_t> SccOf;
  uint32_t NumSccs = 0;
};

} // namespace stcfa

#endif // STCFA_CORE_CONDENSATION_H
