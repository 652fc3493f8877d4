//===-- lint/Render.cpp - Text/JSON/SARIF diagnostic renderers ------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "lint/Render.h"

using namespace stcfa;

namespace {

void jsonEscape(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        static const char Hex[] = "0123456789abcdef";
        Out += "\\u00";
        Out += Hex[(C >> 4) & 0xf];
        Out += Hex[C & 0xf];
      } else {
        Out += C;
      }
    }
  }
}

std::string quoted(std::string_view S) {
  std::string Out = "\"";
  jsonEscape(Out, S);
  Out += "\"";
  return Out;
}

std::string locText(std::string_view InputName, SourceRange R) {
  std::string Out(InputName);
  if (!R.isValid())
    return Out;
  // One-char separators are appended on their own: GCC 12 -O3 flags
  // `":" + std::to_string(..)` with a false -Wrestrict.
  Out += ':';
  Out += std::to_string(R.Begin.Line) + ":" + std::to_string(R.Begin.Col);
  if (R.hasExtent()) {
    Out += '-';
    Out += std::to_string(R.End.Line) + ":" + std::to_string(R.End.Col);
  }
  return Out;
}

/// `"startLine":L,"startColumn":C[,"endLine":L,"endColumn":C]`, or empty
/// when the range is invalid (programmatic AST with no locations).
std::string regionJson(SourceRange R) {
  if (!R.isValid())
    return {};
  std::string Out = "\"startLine\":" + std::to_string(R.Begin.Line) +
                    ",\"startColumn\":" + std::to_string(R.Begin.Col);
  if (R.hasExtent())
    Out += ",\"endLine\":" + std::to_string(R.End.Line) +
           ",\"endColumn\":" + std::to_string(R.End.Col);
  return Out;
}

} // namespace

std::string stcfa::renderLintText(const LintResult &R,
                                  std::string_view InputName) {
  std::string Out;
  for (const LintPassReport &Report : R.Reports) {
    for (const LintDiagnostic &D : Report.Findings) {
      Out += locText(InputName, D.Range) + ": " +
             lintSeverityName(D.Severity) + ": " + D.Message + " [" +
             D.RuleId + "]\n";
      for (const LintNote &N : D.Notes)
        Out += "  note: " + locText(InputName, N.Range) + ": " + N.Message +
               "\n";
    }
  }
  for (const LintPassReport &Report : R.Reports)
    if (Report.Partial)
      Out += std::string(Report.Info->Id) +
             ": partial results (" + Report.PassStatus.toString() + ")\n";
  Out += "lint: " + std::to_string(R.NumErrors) + " error(s), " +
         std::to_string(R.NumWarnings) + " warning(s), " +
         std::to_string(R.NumNotes) + " note(s)\n";
  return Out;
}

std::string stcfa::renderLintJson(const LintResult &R,
                                  std::string_view InputName) {
  std::string Out = "{\n  \"tool\": \"stcfa-lint\",\n  \"input\": " +
                    quoted(InputName) + ",\n  \"passes\": [";
  bool FirstPass = true;
  for (const LintPassReport &Report : R.Reports) {
    Out += FirstPass ? "\n" : ",\n";
    FirstPass = false;
    Out += "    {\"pass\": " + quoted(Report.Info->Id) +
           ", \"status\": " + quoted(statusCodeName(Report.PassStatus.code())) +
           ", \"partial\": " + (Report.Partial ? "true" : "false") +
           ", \"millis\": " + std::to_string(Report.Millis) +
           ", \"findings\": [";
    bool FirstFinding = true;
    for (const LintDiagnostic &D : Report.Findings) {
      Out += FirstFinding ? "\n" : ",\n";
      FirstFinding = false;
      Out += "      {\"rule\": " + quoted(D.RuleId) +
             ", \"severity\": " + quoted(lintSeverityName(D.Severity));
      if (std::string Region = regionJson(D.Range); !Region.empty())
        Out += ", " + Region;
      Out += ", \"message\": " + quoted(D.Message);
      if (!D.Notes.empty()) {
        Out += ", \"notes\": [";
        bool FirstNote = true;
        for (const LintNote &N : D.Notes) {
          Out += FirstNote ? "" : ", ";
          FirstNote = false;
          Out += "{";
          if (std::string Region = regionJson(N.Range); !Region.empty())
            Out += Region + ", ";
          Out += "\"message\": " + quoted(N.Message) + "}";
        }
        Out += "]";
      }
      Out += "}";
    }
    Out += FirstFinding ? "]}" : "\n    ]}";
  }
  Out += FirstPass ? "],\n" : "\n  ],\n";
  Out += "  \"summary\": {\"errors\": " + std::to_string(R.NumErrors) +
         ", \"warnings\": " + std::to_string(R.NumWarnings) +
         ", \"notes\": " + std::to_string(R.NumNotes) + "}\n}\n";
  return Out;
}

std::string stcfa::renderLintSarif(const LintResult &R,
                                   std::string_view InputName) {
  std::string Uri(InputName.empty() ? "stdin" : InputName);

  // Rule table over *all* registered passes so `ruleIndex` is stable no
  // matter which subset ran.
  std::span<const LintPassInfo> All = LintEngine::passes();
  auto ruleIndex = [&](const std::string &Id) {
    for (size_t I = 0; I != All.size(); ++I)
      if (Id == All[I].Id)
        return I;
    return size_t(0);
  };

  std::string Out =
      "{\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"stcfa-lint\",\n"
      "          \"informationUri\": "
      "\"https://doi.org/10.1145/258915.258924\",\n"
      "          \"rules\": [";
  bool First = true;
  for (const LintPassInfo &P : All) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "            {\"id\": " + quoted(P.Id) +
           ", \"shortDescription\": {\"text\": " + quoted(P.Summary) +
           "}, \"defaultConfiguration\": {\"level\": " +
           quoted(lintSeverityName(P.DefaultSeverity)) + "}}";
  }
  Out += "\n          ]\n"
         "        }\n"
         "      },\n"
         "      \"invocations\": [\n"
         "        {\"executionSuccessful\": " +
         std::string(R.anyPartial() ? "false" : "true") +
         ", \"properties\": {\"partialPasses\": [";
  First = true;
  for (const LintPassReport &Report : R.Reports)
    if (Report.Partial) {
      Out += First ? "" : ", ";
      First = false;
      Out += quoted(Report.Info->Id);
    }
  Out += "]}}\n"
         "      ],\n"
         "      \"results\": [";
  First = true;
  for (const LintPassReport &Report : R.Reports) {
    for (const LintDiagnostic &D : Report.Findings) {
      Out += First ? "\n" : ",\n";
      First = false;
      Out += "        {\"ruleId\": " + quoted(D.RuleId) +
             ", \"ruleIndex\": " + std::to_string(ruleIndex(D.RuleId)) +
             ", \"level\": " + quoted(lintSeverityName(D.Severity)) +
             ", \"message\": {\"text\": " + quoted(D.Message) + "}";
      if (D.Range.isValid()) {
        Out += ", \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": " +
               quoted(Uri) + "}, \"region\": {" + regionJson(D.Range) + "}}}]";
      }
      bool AnyNote = false;
      for (const LintNote &N : D.Notes)
        AnyNote |= N.Range.isValid();
      if (AnyNote) {
        Out += ", \"relatedLocations\": [";
        bool FirstNote = true;
        for (const LintNote &N : D.Notes) {
          if (!N.Range.isValid())
            continue;
          Out += FirstNote ? "" : ", ";
          FirstNote = false;
          Out += "{\"physicalLocation\": {\"artifactLocation\": {\"uri\": " +
                 quoted(Uri) + "}, \"region\": {" + regionJson(N.Range) +
                 "}}, \"message\": {\"text\": " + quoted(N.Message) + "}}";
        }
        Out += "]";
      }
      Out += "}";
    }
  }
  Out += First ? "]\n" : "\n      ]\n";
  Out += "    }\n"
         "  ]\n"
         "}\n";
  return Out;
}
