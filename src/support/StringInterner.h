//===-- support/StringInterner.h - Pooled string identities -----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns strings so identifiers can be compared and hashed as integers.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_STRINGINTERNER_H
#define STCFA_SUPPORT_STRINGINTERNER_H

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace stcfa {

/// An interned string; valid only together with the interner it came from.
class Symbol {
public:
  constexpr Symbol() : Value(~0u) {}
  constexpr explicit Symbol(uint32_t V) : Value(V) {}

  constexpr bool isValid() const { return Value != ~0u; }
  constexpr uint32_t index() const { return Value; }

  friend constexpr bool operator==(Symbol A, Symbol B) {
    return A.Value == B.Value;
  }
  friend constexpr bool operator!=(Symbol A, Symbol B) {
    return A.Value != B.Value;
  }
  friend constexpr bool operator<(Symbol A, Symbol B) {
    return A.Value < B.Value;
  }

private:
  uint32_t Value;
};

/// Owns a pool of unique strings and maps them to dense `Symbol`s.
class StringInterner {
public:
  /// Interns \p Text, returning the existing symbol if already present.
  Symbol intern(std::string_view Text) {
    auto It = Index.find(Text);
    if (It != Index.end())
      return It->second;
    Symbol S(static_cast<uint32_t>(Pool.size()));
    Pool.emplace_back(Text);
    Index.emplace(Pool.back(), S);
    return S;
  }

  /// Returns the text of \p S.
  std::string_view text(Symbol S) const {
    assert(S.isValid() && S.index() < Pool.size() && "unknown symbol");
    return Pool[S.index()];
  }

  /// Number of distinct interned strings.
  size_t size() const { return Pool.size(); }

private:
  /// Hashes `std::string` keys and `std::string_view` probes alike, so a
  /// lookup builds no temporary string.
  struct TextHash {
    using is_transparent = void;
    size_t operator()(std::string_view Text) const {
      return std::hash<std::string_view>{}(Text);
    }
  };

  std::vector<std::string> Pool;
  std::unordered_map<std::string, Symbol, TextHash, std::equal_to<>> Index;
};

} // namespace stcfa

namespace std {
template <> struct hash<stcfa::Symbol> {
  size_t operator()(stcfa::Symbol S) const {
    return static_cast<size_t>(S.index());
  }
};
} // namespace std

#endif // STCFA_SUPPORT_STRINGINTERNER_H
