//===-- serve/Json.cpp - Hardened JSON for the serve protocol -------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Json.h"

#include "support/FaultInjection.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace stcfa;
using namespace stcfa::serve;

namespace {

/// Recursive-descent parser over a bounded buffer.  Every entry point
/// checks the depth and the injected allocation fault before it grows a
/// container, so hostile input degrades into a `Status`, never a crash.
class Parser {
public:
  Parser(std::string_view Text, const JsonLimits &Limits)
      : Text(Text), Limits(Limits) {}

  Status run(JsonValue &Out) {
    skipWs();
    Status S = parseValue(Out, 0);
    if (!S.isOk())
      return S;
    skipWs();
    if (Pos != Text.size())
      return err("trailing bytes after JSON value");
    return Status::ok();
  }

private:
  Status err(const char *Why) const {
    return Status::invalidArgument(std::string(Why) + " at byte " +
                                   std::to_string(Pos));
  }

  bool done() const { return Pos >= Text.size(); }
  char peek() const { return Text[Pos]; }

  void skipWs() {
    while (!done()) {
      char C = Text[Pos];
      if (C != ' ' && C != '\t' && C != '\n' && C != '\r')
        break;
      ++Pos;
    }
  }

  bool consume(char C) {
    if (done() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool consumeWord(std::string_view W) {
    if (Text.substr(Pos, W.size()) != W)
      return false;
    Pos += W.size();
    return true;
  }

  Status parseValue(JsonValue &Out, uint32_t Depth) {
    if (Depth > Limits.MaxDepth)
      return err("nesting exceeds the depth limit");
    if (done())
      return err("unexpected end of input");
    switch (peek()) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"': {
      std::string S;
      if (Status St = parseString(S); !St.isOk())
        return St;
      Out = JsonValue::string(std::move(S));
      return Status::ok();
    }
    case 't':
      if (consumeWord("true")) {
        Out = JsonValue::boolean(true);
        return Status::ok();
      }
      return err("invalid literal");
    case 'f':
      if (consumeWord("false")) {
        Out = JsonValue::boolean(false);
        return Status::ok();
      }
      return err("invalid literal");
    case 'n':
      if (consumeWord("null")) {
        Out = JsonValue::null();
        return Status::ok();
      }
      return err("invalid literal");
    default:
      return parseNumber(Out);
    }
  }

  Status parseObject(JsonValue &Out, uint32_t Depth) {
    // Mid-parse allocation failure: the same unwind an organic OOM while
    // growing the member vector would take.
    if (faultFires(fault::ServeRequestParse))
      return Status::outOfMemory("request parse: allocation failed");
    ++Pos; // '{'
    Out = JsonValue::object();
    skipWs();
    if (consume('}'))
      return Status::ok();
    for (;;) {
      skipWs();
      if (done() || peek() != '"')
        return err("expected object key string");
      std::string Key;
      if (Status S = parseString(Key); !S.isOk())
        return S;
      skipWs();
      if (!consume(':'))
        return err("expected ':' after object key");
      skipWs();
      JsonValue Val;
      if (Status S = parseValue(Val, Depth + 1); !S.isOk())
        return S;
      Out.set(std::move(Key), std::move(Val));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return Status::ok();
      return err("expected ',' or '}' in object");
    }
  }

  Status parseArray(JsonValue &Out, uint32_t Depth) {
    if (faultFires(fault::ServeRequestParse))
      return Status::outOfMemory("request parse: allocation failed");
    ++Pos; // '['
    Out = JsonValue::array();
    skipWs();
    if (consume(']'))
      return Status::ok();
    for (;;) {
      skipWs();
      JsonValue Val;
      if (Status S = parseValue(Val, Depth + 1); !S.isOk())
        return S;
      Out.push(std::move(Val));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return Status::ok();
      return err("expected ',' or ']' in array");
    }
  }

  static int hexDigit(char C) {
    if (C >= '0' && C <= '9')
      return C - '0';
    if (C >= 'a' && C <= 'f')
      return C - 'a' + 10;
    if (C >= 'A' && C <= 'F')
      return C - 'A' + 10;
    return -1;
  }

  Status parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (!done()) {
      unsigned char C = static_cast<unsigned char>(Text[Pos]);
      if (C == '"') {
        ++Pos;
        return Status::ok();
      }
      if (C < 0x20) // raw control byte — embedded NULs land here
        return err("raw control byte inside string");
      if (C != '\\') {
        Out += static_cast<char>(C);
        ++Pos;
        continue;
      }
      ++Pos; // backslash
      if (done())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return err("truncated \\u escape");
        uint32_t Code = 0;
        for (int I = 0; I != 4; ++I) {
          int D = hexDigit(Text[Pos + I]);
          if (D < 0)
            return err("invalid \\u escape");
          Code = Code * 16 + static_cast<uint32_t>(D);
        }
        Pos += 4;
        // UTF-8 encode the BMP code point; surrogates are passed through
        // as replacement-free three-byte sequences (the protocol never
        // round-trips them, and rejecting would complicate nothing).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return err("invalid escape sequence");
      }
    }
    return err("unterminated string");
  }

  Status parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (consume('-')) {
    }
    bool Digits = false;
    while (!done() && peek() >= '0' && peek() <= '9') {
      ++Pos;
      Digits = true;
    }
    if (!Digits)
      return err("invalid number");
    bool Integral = true;
    if (consume('.')) {
      Integral = false;
      bool Frac = false;
      while (!done() && peek() >= '0' && peek() <= '9') {
        ++Pos;
        Frac = true;
      }
      if (!Frac)
        return err("invalid number (bare decimal point)");
    }
    if (!done() && (peek() == 'e' || peek() == 'E')) {
      Integral = false;
      ++Pos;
      if (!done() && (peek() == '+' || peek() == '-'))
        ++Pos;
      bool Exp = false;
      while (!done() && peek() >= '0' && peek() <= '9') {
        ++Pos;
        Exp = true;
      }
      if (!Exp)
        return err("invalid number (empty exponent)");
    }
    std::string Tok(Text.substr(Start, Pos - Start));
    if (Integral) {
      errno = 0;
      char *End = nullptr;
      long long I = std::strtoll(Tok.c_str(), &End, 10);
      if (errno == 0 && End && *End == '\0') {
        Out = JsonValue::number(static_cast<int64_t>(I));
        return Status::ok();
      }
      // Out-of-int64-range integers fall through to double.
    }
    char *End = nullptr;
    double D = std::strtod(Tok.c_str(), &End);
    if (!End || *End != '\0' || !std::isfinite(D))
      return err("number out of range");
    Out = JsonValue::number(D);
    return Status::ok();
  }

  std::string_view Text;
  const JsonLimits &Limits;
  size_t Pos = 0;
};

} // namespace

Status stcfa::serve::parseJson(std::string_view Text, JsonValue &Out,
                               const JsonLimits &Limits) {
  return Parser(Text, Limits).run(Out);
}

void stcfa::serve::renderJsonString(std::string_view S, std::string &Out) {
  Out += '"';
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  Out += '"';
}

void stcfa::serve::renderJson(const JsonValue &V, std::string &Out) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    Out += "null";
    return;
  case JsonValue::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    return;
  case JsonValue::Kind::Number:
    if (V.isInt()) {
      Out += std::to_string(V.asInt());
    } else {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.17g", V.asDouble());
      Out += Buf;
    }
    return;
  case JsonValue::Kind::String:
    renderJsonString(V.asString(), Out);
    return;
  case JsonValue::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JsonValue &E : V.items()) {
      if (!First)
        Out += ',';
      First = false;
      renderJson(E, Out);
    }
    Out += ']';
    return;
  }
  case JsonValue::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Key, Val] : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      renderJsonString(Key, Out);
      Out += ':';
      renderJson(Val, Out);
    }
    Out += '}';
    return;
  }
  }
}

std::string stcfa::serve::renderJson(const JsonValue &V) {
  std::string Out;
  renderJson(V, Out);
  return Out;
}
