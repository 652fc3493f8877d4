//===-- perfbench/Gen.h - Seeded inputs for the stcfa benchmark -----------===//
///
/// \file
/// Every input the benchmark feeds the program is generated here from the
/// run seed; the program under test sees only the generated text.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// One `cli_export` input: its family spec (for the report) and text.
struct CliProgram {
  std::string Spec;
  std::string Source;
};

/// The `cli_export` draw: a fixed mix of families and sizes (so every seed
/// costs about the same), with the seed choosing the shape permutations,
/// the random programs and the order they run in.
std::vector<CliProgram> cliPrograms(uint64_t Seed);

/// A program made of one-line top-level definitions over `Int -> Int`
/// functions and `(Int -> Int) -> Int -> Int` combinators, plus a tuple
/// body.  It is also the benchmark's own model of the daemon's spliced
/// source: `randomEdit` applies a type-preserving edit to the model and
/// returns the matching `edit` request parameters, so `source()` is the
/// text a fresh `load` of the edited program would read.
class WebProgram {
public:
  WebProgram(uint64_t Seed, int Defs);

  std::string source() const;

  /// Applies one random edit and returns its JSON `params` object; \p Op
  /// gets the verb.  Every ten edits in a row hold exactly 7 `replace`
  /// and one each of `insert`, `delete` and `rename` (a `delete` with no
  /// unreferenced definition to remove becomes a `replace`), in seeded
  /// order, so the op mix does not vary with the seed.
  std::string randomEdit(std::mt19937_64 &R, std::string &Op);

private:
  enum class Kind : uint8_t { Fn, Comb };
  struct Def {
    std::string Name;
    Kind K = Kind::Fn;
    std::string Text;
    std::vector<std::string> Refs;
  };

  /// A fresh right-hand side for a definition of kind \p K at position
  /// \p Pos (it may reference only earlier definitions).
  void makeDef(std::mt19937_64 &R, Def &D, size_t Pos);
  std::string pickRef(std::mt19937_64 &R, size_t Pos, Kind K);
  void retain(const Def &D, int Delta);
  void renameEverywhere(const std::string &From, const std::string &To);

  std::vector<Def> Order; ///< textual order
  std::vector<std::string> BodyRefs;
  std::map<std::string, int> RefCount; ///< references from defs and body
  uint64_t Fresh = 0;
  std::vector<unsigned> Deck; ///< the rest of the current ten edit kinds
};

} // namespace perfbench

#endif // PERFBENCH_GEN_H
