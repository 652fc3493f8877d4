//===-- serve/Json.h - Hardened JSON for the serve protocol -----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal JSON value, parser, and serializer for the daemon protocol
/// (docs/SERVE.md).  The parser is hardened for hostile stdin: bounded
/// nesting depth, strict syntax (no trailing garbage, no raw control
/// bytes inside strings — embedded NULs are rejected, not truncated),
/// and every failure is a `Status` (`InvalidArgument` for malformed
/// text, `OutOfMemory` for the injected `serve.request-parse` fault) —
/// never a crash or an exception.
///
/// This is deliberately *not* a general-purpose JSON library: it exists
/// so the one subsystem that consumes untrusted bytes does not lean on
/// the test-only parsers in the suite.  Numbers keep integer/double
/// distinction because the protocol traffics in ids and indices.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SERVE_JSON_H
#define STCFA_SERVE_JSON_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace stcfa {
namespace serve {

/// A parsed JSON value.  Object member order is preserved (the protocol
/// never depends on it, but deterministic serialization helps tests).
class JsonValue {
public:
  enum class Kind : uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool B) {
    JsonValue V;
    V.K = Kind::Bool;
    V.BoolVal = B;
    return V;
  }
  static JsonValue number(int64_t I) {
    JsonValue V;
    V.K = Kind::Number;
    V.IsInt = true;
    V.IntVal = I;
    V.NumVal = static_cast<double>(I);
    return V;
  }
  static JsonValue number(double D) {
    JsonValue V;
    V.K = Kind::Number;
    V.NumVal = D;
    return V;
  }
  static JsonValue string(std::string S) {
    JsonValue V;
    V.K = Kind::String;
    V.Str = std::move(S);
    return V;
  }
  static JsonValue array() {
    JsonValue V;
    V.K = Kind::Array;
    return V;
  }
  static JsonValue object() {
    JsonValue V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return BoolVal; }
  double asDouble() const { return NumVal; }
  /// True when the number was written as an integer and fits int64.
  bool isInt() const { return K == Kind::Number && IsInt; }
  int64_t asInt() const { return IntVal; }
  const std::string &asString() const { return Str; }

  const std::vector<JsonValue> &items() const { return Arr; }
  std::vector<JsonValue> &items() { return Arr; }
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Obj;
  }

  /// Object member lookup; null when absent or this is not an object.
  const JsonValue *field(std::string_view Name) const {
    for (const auto &[Key, Val] : Obj)
      if (Key == Name)
        return &Val;
    return nullptr;
  }

  void push(JsonValue V) { Arr.push_back(std::move(V)); }
  void set(std::string Name, JsonValue V) {
    Obj.emplace_back(std::move(Name), std::move(V));
  }

private:
  Kind K = Kind::Null;
  bool BoolVal = false;
  bool IsInt = false;
  int64_t IntVal = 0;
  double NumVal = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;
};

/// Parse limits; the line reader already caps total bytes, so these bound
/// only the shapes a small input can still abuse (deep nesting).
struct JsonLimits {
  /// Maximum container nesting depth before the parser refuses.
  uint32_t MaxDepth = 64;
};

/// Parses exactly one JSON value spanning all of \p Text (trailing
/// whitespace allowed, trailing garbage is an error).  On failure \p Out
/// is unspecified and the status carries a byte offset in its message.
Status parseJson(std::string_view Text, JsonValue &Out,
                 const JsonLimits &Limits = {});

/// Serializes \p V on one line (no newline appended).  Strings are
/// escaped so the output never contains raw control bytes — replies stay
/// newline-delimited whatever the payload holds.
std::string renderJson(const JsonValue &V);
void renderJson(const JsonValue &V, std::string &Out);
/// Appends \p S as a quoted, escaped JSON string, as `renderJson` writes
/// a string value.
void renderJsonString(std::string_view S, std::string &Out);

} // namespace serve
} // namespace stcfa

#endif // STCFA_SERVE_JSON_H
