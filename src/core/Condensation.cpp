//===-- core/Condensation.cpp - SCC condensation of the graph -------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Condensation.h"

#include <algorithm>

using namespace stcfa;

Condensation::Condensation(uint32_t NumNodes,
                           std::span<const uint32_t> Offsets,
                           std::span<const uint32_t> Targets) {
  // One iterative Tarjan pass over the CSR rows.
  Owned.assign(NumNodes, ~0u);
  std::vector<uint32_t> Index(NumNodes, 0), Low(NumNodes, 0);
  std::vector<bool> OnStack(NumNodes, false);
  std::vector<uint32_t> TarjanStack;
  uint32_t NextIndex = 1;
  const uint32_t *Base = Targets.data();

  struct Frame {
    uint32_t Node;
    const uint32_t *Next;
    const uint32_t *End;
  };
  std::vector<Frame> Frames;
  auto enter = [&](uint32_t N) {
    Index[N] = Low[N] = NextIndex++;
    TarjanStack.push_back(N);
    OnStack[N] = true;
    Frames.push_back({N, Base + Offsets[N], Base + Offsets[N + 1]});
  };

  for (uint32_t Root = 0; Root != NumNodes; ++Root) {
    if (Index[Root] != 0)
      continue;
    enter(Root);
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      if (F.Next != F.End) {
        uint32_t S = *F.Next++;
        if (Index[S] == 0)
          enter(S);
        else if (OnStack[S])
          Low[F.Node] = std::min(Low[F.Node], Index[S]);
        continue;
      }
      uint32_t N = F.Node;
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().Node] = std::min(Low[Frames.back().Node], Low[N]);
      if (Low[N] != Index[N])
        continue;
      // N is an SCC root: pop its component.
      uint32_t Scc = NumSccs++;
      while (true) {
        uint32_t W = TarjanStack.back();
        TarjanStack.pop_back();
        OnStack[W] = false;
        Owned[W] = Scc;
        if (W == N)
          break;
      }
    }
  }
  SccOf = Owned;
}
