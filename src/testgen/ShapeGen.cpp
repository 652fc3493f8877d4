//===-- testgen/ShapeGen.cpp - Condensation-shape stress generator --------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "testgen/ShapeGen.h"

#include "support/ParseNumber.h"

#include <cassert>
#include <numeric>
#include <vector>

using namespace stcfa;

namespace {

/// Deterministic xorshift (same recurrence as gen/Generators.cpp: no
/// std::random, reproducibility across standard libraries matters).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x9e3779b97f4a7c15ULL) {}

  uint64_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  }

  /// Uniform in [0, Bound).
  uint32_t below(uint32_t Bound) {
    assert(Bound > 0);
    return static_cast<uint32_t>(next() % Bound);
  }

private:
  uint64_t State;
};

/// Seed-driven Fisher–Yates permutation of [1, N]: perturbs node-id
/// assignment (and therefore row order) without changing the shape.
std::vector<int> permutation(int N, Rng &R) {
  std::vector<int> P(static_cast<size_t>(N));
  std::iota(P.begin(), P.end(), 1);
  for (int I = N - 1; I > 0; --I)
    std::swap(P[static_cast<size_t>(I)],
              P[R.below(static_cast<uint32_t>(I + 1))]);
  return P;
}

/// Closing lines append the literal and the number separately: GCC 12
/// misreads a one-character literal prepended to a temporary string
/// (`"r" + num(N)`) as an overlapping copy and fails -O3 builds with
/// -Wrestrict.
std::string num(int I) { return std::to_string(I); }

/// wide:N — N independent identities all passed through one shared
/// conduit `fs`, whose parameter joins every `w i` label.  The
/// condensation is one fat level of independent consumers.
std::string makeWide(int N, Rng &R) {
  std::string Out = "let fs = fn x => x;\n";
  for (int I : permutation(N, R)) {
    std::string S = num(I);
    Out += "let w" + S + " = fn x => x;\n";
    Out += "let a" + S + " = fs w" + S + ";\n";
    Out += "let r" + S + " = a" + S + " 0;\n";
  }
  Out += "r";
  Out += num(N) + "\n";
  return Out;
}

/// deep:N — a single wrapper chain: `f i` calls `f i-1`, so the result
/// of each layer flows into the next and the condensation is a path of
/// length ~N with one component per level.
std::string makeDeep(int N, Rng &) {
  std::string Out = "let f0 = fn x => x;\n";
  for (int I = 1; I <= N; ++I)
    Out += "let f" + num(I) + " = fn x => f" + num(I - 1) + " x;\n";
  Out += "f";
  Out += num(N) + " 0\n";
  return Out;
}

/// diamond:N — N stacked diamond blocks: two parallel wrappers `l i`,
/// `r i` around the previous merge point `m i-1`, re-joined by `m i`.
/// Levels alternate width 2 (the branches) and width 1 (the merge).
std::string makeDiamond(int N, Rng &) {
  std::string Out = "let m0 = fn x => x;\n";
  for (int I = 1; I <= N; ++I) {
    std::string S = num(I), P = num(I - 1);
    Out += "let l" + S + " = fn x => m" + P + " x;\n";
    Out += "let r" + S + " = fn x => m" + P + " x;\n";
    Out += "let m" + S + " = fn x => l" + S + " (r" + S + " x);\n";
  }
  Out += "m";
  Out += num(N) + " 0\n";
  return Out;
}

/// skewed:N — a wide N-way join (as in wide:N) whose joined result
/// seeds a depth-N wrapper chain (as in deep:N): one fat level, then a
/// long skinny tail.  The seed picks which joined alias anchors the
/// tail.
std::string makeSkewed(int N, Rng &R) {
  std::string Out = "let j = fn x => x;\n";
  for (int I : permutation(N, R)) {
    std::string S = num(I);
    Out += "let s" + S + " = fn x => x;\n";
    Out += "let u" + S + " = j s" + S + ";\n";
  }
  Out += "let d0 = u" + num(1 + static_cast<int>(R.below(
                                    static_cast<uint32_t>(N)))) +
         ";\n";
  for (int I = 1; I <= N; ++I)
    Out += "let d" + num(I) + " = fn x => d" + num(I - 1) + " x;\n";
  Out += "d";
  Out += num(N) + " 0\n";
  return Out;
}

} // namespace

const char *stcfa::shapeName(CondShape S) {
  switch (S) {
  case CondShape::Wide:
    return "wide";
  case CondShape::Deep:
    return "deep";
  case CondShape::Diamond:
    return "diamond";
  case CondShape::Skewed:
    return "skewed";
  }
  return "wide";
}

bool stcfa::parseShapeSpec(const std::string &Spec, ShapeSpec &Out) {
  size_t Colon = Spec.find(':');
  if (Colon == std::string::npos || Colon + 1 == Spec.size())
    return false;
  std::string Name = Spec.substr(0, Colon);
  ShapeSpec S;
  if (Name == "wide")
    S.Shape = CondShape::Wide;
  else if (Name == "deep")
    S.Shape = CondShape::Deep;
  else if (Name == "diamond")
    S.Shape = CondShape::Diamond;
  else if (Name == "skewed")
    S.Shape = CondShape::Skewed;
  else
    return false;

  std::string_view Rest = std::string_view(Spec).substr(Colon + 1);
  size_t Colon2 = Rest.find(':');
  if (!parseDecimal(Rest.substr(0, Colon2), S.N) || S.N < 1)
    return false;
  if (Colon2 != std::string_view::npos &&
      !parseDecimal(Rest.substr(Colon2 + 1), S.Seed))
    return false;
  Out = S;
  return true;
}

std::string stcfa::shapeSpecString(const ShapeSpec &Spec) {
  return std::string(shapeName(Spec.Shape)) + ":" + std::to_string(Spec.N) +
         ":" + std::to_string(Spec.Seed);
}

std::string stcfa::makeShapeProgram(const ShapeSpec &Spec) {
  assert(Spec.N >= 1 && "shape size must be positive");
  Rng R(Spec.Seed);
  switch (Spec.Shape) {
  case CondShape::Wide:
    return makeWide(Spec.N, R);
  case CondShape::Deep:
    return makeDeep(Spec.N, R);
  case CondShape::Diamond:
    return makeDiamond(Spec.N, R);
  case CondShape::Skewed:
    return makeSkewed(Spec.N, R);
  }
  return makeWide(Spec.N, R);
}
