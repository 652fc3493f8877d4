//===-- testgen/ShapeGen.h - Condensation-shape stress generator *- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generators for programs whose *condensation DAGs* hit
/// shapes the bench corpus (`cubic:N`, `lexgen`, `joinpoint:N`) never
/// produces.  The label-set kernel sweeps that DAG's components and
/// reads every cross-component edge, so these are the stress workloads
/// for the kernel, its prefix contract and the differential fuzz suite:
///
///   * **wide:N** — N independent functions joined through one shared
///     conduit: a DAG that is almost all one massive level — maximum
///     width, minimum depth.
///   * **deep:N** — one wrapper chain of length N: a DAG that is a
///     skinny path, one or two components per level — maximum depth.
///   * **diamond:N** — N stacked diamonds (two parallel branches
///     re-joining per block): alternating width-2 / width-1 levels.
///   * **skewed:N** — a wide N-way join feeding a depth-N wrapper
///     chain: one fat level then a long skinny tail.
///
/// All programs are well-typed, monomorphic, and deterministic in
/// `(shape, N, seed)` — the seed only permutes emission order and join
/// choices, never the shape class.  Specs parse from the driver syntax
/// `wide:N[:seed]` (`stcfa --corpus=wide:64`, `--gen-shape=deep:500`).
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_TESTGEN_SHAPEGEN_H
#define STCFA_TESTGEN_SHAPEGEN_H

#include <cstdint>
#include <string>

namespace stcfa {

/// The condensation-DAG shape families.
enum class CondShape : uint8_t { Wide, Deep, Diamond, Skewed };

/// Spec name of a family: "wide" | "deep" | "diamond" | "skewed".
const char *shapeName(CondShape S);

/// Number of shape families (for iteration in smokes/benches).
inline constexpr int NumCondShapes = 4;

/// A parsed `<family>:<N>[:<seed>]` spec.
struct ShapeSpec {
  CondShape Shape = CondShape::Wide;
  /// Size parameter: leaves (wide), chain length (deep), blocks
  /// (diamond), fan width == tail depth (skewed).
  int N = 16;
  uint64_t Seed = 1;
};

/// Parses `wide:64`, `deep:500:7`, ... into \p Out.  Returns false (and
/// leaves \p Out untouched) unless the family name is known and N >= 1.
bool parseShapeSpec(const std::string &Spec, ShapeSpec &Out);

/// Renders \p Spec back to its canonical `<family>:<N>:<seed>` form.
std::string shapeSpecString(const ShapeSpec &Spec);

/// Emits the program for \p Spec; deterministic in the whole spec.
std::string makeShapeProgram(const ShapeSpec &Spec);

} // namespace stcfa

#endif // STCFA_TESTGEN_SHAPEGEN_H
