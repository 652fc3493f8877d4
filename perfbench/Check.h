//===-- perfbench/Check.h - Oracles for every answer the benchmark gets ---===//
///
/// \file
/// The correctness gate runs outside the timed regions and outside
/// `setup_s`.  Label sets are judged by the standard (cubic) analysis of
/// the same source (Proposition 1); lint and slice replies by a fresh
/// full pipeline over the same text, exactly what a fresh `load` runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include "analysis/HybridCFA.h"
#include "ast/Module.h"
#include "serve/Json.h"
#include "support/DenseBitset.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Standard 0-CFA of one source text: one label set per occurrence.
struct Truth {
  std::unique_ptr<stcfa::Module> M;
  std::vector<stcfa::DenseBitset> Sets;
  /// Occurrences per label, built on first use by `occurrences`.
  std::vector<std::vector<uint32_t>> Occ;

  /// Parses, infers and solves \p Source; false if it does not parse.
  bool compute(const std::string &Source);
  uint32_t numExprs() const { return uint32_t(Sets.size()); }
  const std::vector<uint32_t> &occurrences(uint32_t Label);
};

/// Checks `stcfa <file> --query=all-labels` output set-for-set: one line
/// per occurrence with a non-empty set, in id order.  Returns "" when it
/// matches, else the first difference.
std::string checkAllLabelsText(const std::string &Out, const Truth &T);

/// Checks one successful `query` reply (`labels`, `is-label-in`,
/// `occurrences` or `all-labels`) whose request carried \p Expr and
/// \p Label; "" when it matches.
std::string checkQueryReply(const stcfa::serve::JsonValue &Result,
                            const std::string &Kind, uint32_t Expr,
                            uint32_t Label, Truth &T);

/// The reply's `result` member when `ok` is true; else null with \p Why.
const stcfa::serve::JsonValue *okResult(const stcfa::serve::JsonValue &Reply,
                                        std::string &Why);

/// A fresh full pipeline over one text: what `load` builds.
struct FreshLoad {
  std::unique_ptr<stcfa::Module> M;
  std::unique_ptr<stcfa::HybridCFA> H;
  bool compute(const std::string &Source);
  /// Lint findings rendered as the daemon renders them, one per line.
  std::string lintRows();
  /// Backward-slice members of \p Target, as the daemon lists them.
  std::vector<uint32_t> sliceMembers(uint32_t Target);
};

/// The daemon's `lint` reply findings in `lintRows` form.
std::string lintRowsOfReply(const stcfa::serve::JsonValue &Result);

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
