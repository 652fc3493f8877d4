//===-- support/Diagnostics.h - Source locations and errors -----*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source locations plus an error sink shared by the lexer, parser, scope
/// resolver, and type checker.  The project does not use exceptions; every
/// front-end stage records diagnostics here and callers check `hasErrors`.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SUPPORT_DIAGNOSTICS_H
#define STCFA_SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace stcfa {

/// A 1-based line/column position in a source buffer.
struct SourceLoc {
  uint32_t Line = 0;
  uint32_t Col = 0;

  bool isValid() const { return Line != 0; }

  friend bool operator==(SourceLoc A, SourceLoc B) {
    return A.Line == B.Line && A.Col == B.Col;
  }
};

/// A half-open `[Begin, End)` span of source text.  `End` is the position
/// one past the last character (SARIF's exclusive `endColumn` convention);
/// a degenerate range with `End == Begin` means "only the start position
/// is known" (programmatically built ASTs, pre-span diagnostics).
struct SourceRange {
  SourceLoc Begin;
  SourceLoc End;

  bool isValid() const { return Begin.isValid(); }
  /// True when the range carries a real extent, not just a point.
  bool hasExtent() const { return End.isValid() && !(End == Begin); }

  friend bool operator==(SourceRange A, SourceRange B) {
    return A.Begin == B.Begin && A.End == B.End;
  }
};

/// One reported problem.
struct Diagnostic {
  SourceLoc Loc;
  std::string Message;
  /// The full span; `Range.Begin == Loc` always, `Range.End` may equal
  /// `Loc` when the reporter only knew a point.
  SourceRange Range;
};

/// Accumulates diagnostics across front-end stages.
class DiagnosticEngine {
public:
  /// Records an error at \p Loc.
  void error(SourceLoc Loc, std::string Message) {
    Diags.push_back({Loc, std::move(Message), {Loc, Loc}});
  }

  /// Records an error spanning \p Range.  (A separate name, not an
  /// overload: brace-initialised call sites like `error({3, 14}, ...)`
  /// would otherwise be ambiguous between a point and a range.)
  void errorRange(SourceRange Range, std::string Message) {
    Diags.push_back({Range.Begin, std::move(Message), Range});
  }

  bool hasErrors() const { return !Diags.empty(); }
  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Renders all diagnostics as `line:col: message` lines; diagnostics
  /// carrying a real extent render it as `line:col-line:col: message`.
  std::string render() const {
    std::string Out;
    for (const Diagnostic &D : Diags) {
      Out += std::to_string(D.Loc.Line) + ":" + std::to_string(D.Loc.Col);
      if (D.Range.hasExtent()) {
        // Not `"-" + std::to_string(..)`: GCC 12 -O3 misreads a one-char
        // literal prepended to a temporary as an overlapping copy
        // (-Wrestrict), which fails Release builds.
        Out += '-';
        Out += std::to_string(D.Range.End.Line) + ":" +
               std::to_string(D.Range.End.Col);
      }
      Out += ": " + D.Message + "\n";
    }
    return Out;
  }

private:
  std::vector<Diagnostic> Diags;
};

} // namespace stcfa

#endif // STCFA_SUPPORT_DIAGNOSTICS_H
