//===-- support/ParseNumber.h - Checked decimal parsing ---------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `parseDecimal`, the one checked parser behind every numeric
/// command-line value (flag values, corpus and shape-spec suffixes):
/// decimal digits only — no sign, no whitespace — and a value above the
/// caller's bound (or above what the type holds) is rejected instead of
/// wrapping or throwing.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_PARSENUMBER_H
#define STCFA_SUPPORT_PARSENUMBER_H

#include <charconv>
#include <limits>
#include <string_view>
#include <type_traits>

namespace stcfa {

/// Parses \p S as a decimal number in `[0, Max]` into \p Out; false (with
/// \p Out untouched) when \p S is empty, holds anything but digits, or
/// names a larger value.
template <typename T>
bool parseDecimal(std::string_view S, T &Out,
                  T Max = std::numeric_limits<T>::max()) {
  static_assert(std::is_integral_v<T>, "decimal parsing needs an integer");
  if (S.empty() || S.find_first_not_of("0123456789") != std::string_view::npos)
    return false;
  T V{};
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  if (Ec != std::errc() || End != S.data() + S.size() || V > Max)
    return false;
  Out = V;
  return true;
}

} // namespace stcfa

#endif // STCFA_SUPPORT_PARSENUMBER_H
