//===-- tests/out_writer_test.cpp - Bounded-buffer writer tests -----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `OutWriter` and the driver's label-set line built on it.  Every line
/// is checked against the format the driver used to print it with,
/// `printf("%-18s %s\n", describeExpr(..), "{n1, n2, ...}")`, rebuilt here
/// with `snprintf`.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ast/Printer.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "core/SubtransitiveGraph.h"
#include "support/OutWriter.h"
#include "testgen/ShapeGen.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

using namespace stcfa;

namespace {

/// `printf("%-18s %s\n", Name, Set)`, as the driver printed a line.
std::string printfLine(const std::string &Name, const std::string &Set) {
  int N = std::snprintf(nullptr, 0, "%-18s %s\n", Name.c_str(), Set.c_str());
  std::string Out(static_cast<size_t>(N) + 1, '\0');
  std::snprintf(Out.data(), Out.size(), "%-18s %s\n", Name.c_str(),
                Set.c_str());
  Out.pop_back();
  return Out;
}

/// The set rendering the driver printed: `{n1, n2, ...}`.
std::string printfSet(const Module &M, const DenseBitset &Set) {
  std::string Out = "{";
  bool First = true;
  Set.forEach([&](uint32_t L) {
    if (!First)
      Out += ", ";
    First = false;
    Out += describeLabel(M, LabelId(L));
  });
  return Out + "}";
}

/// \p Set as `writeLabelSet` renders it, newline included: the text
/// `writeLabelSetLine` appends.
template <typename NameFn>
std::string setLine(const DenseBitset &Set, NameFn &&Name) {
  std::string Out;
  OutWriter W(Out);
  writeLabelSet(W, Set, Name);
  W.put('\n');
  W.flush();
  return Out;
}

/// Every occurrence's label set, through the frozen graph.
std::vector<DenseBitset> allLabelSets(const Module &M) {
  SubtransitiveGraph G(M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine QE(F, 1);
  std::vector<ExprId> Es;
  for (uint32_t I = 0; I != M.numExprs(); ++I)
    Es.push_back(ExprId(I));
  return QE.labelsOfBatch(Es);
}

/// The `--query=all-labels` output of \p M written through \p W, and the
/// same output rebuilt in the old printf format; \p Keep picks the lines
/// (all by default).  Empty sets print no line.
template <typename KeepFn>
void writeAllLabels(const Module &M, OutWriter &W, std::string &Expected,
                    size_t &LongestLine, KeepFn Keep) {
  std::vector<DenseBitset> Sets = allLabelSets(M);
  auto Name = [&](uint32_t L) { return describeLabel(M, LabelId(L)); };
  LongestLine = 0;
  for (uint32_t I = 0; I != M.numExprs(); ++I) {
    if (Sets[I].empty() || !Keep(I, Sets[I]))
      continue;
    std::string Line =
        printfLine(describeExpr(M, ExprId(I)), printfSet(M, Sets[I]));
    LongestLine = std::max(LongestLine, Line.size());
    Expected += Line;
    writeLabelSetLine(W, describeExpr(M, ExprId(I)), setLine(Sets[I], Name));
  }
}

void writeAllLabels(const Module &M, OutWriter &W, std::string &Expected,
                    size_t &LongestLine) {
  writeAllLabels(M, W, Expected, LongestLine,
                 [](uint32_t, const DenseBitset &) { return true; });
}

std::unique_ptr<Module> shapeModule(const std::string &Spec) {
  ShapeSpec S;
  EXPECT_TRUE(parseShapeSpec(Spec, S)) << Spec;
  return parseAndInfer(makeShapeProgram(S));
}

} // namespace

TEST(OutWriter, AppendsCharsStringsAndDecimals) {
  std::string Out = "head:";
  {
    OutWriter W(Out);
    W.put('x');
    W.put(std::string_view(" y "));
    W.putUInt(0);
    W.put(',');
    W.putUInt(4294967295u);
    W.put(',');
    W.putUInt(18446744073709551615ull);
    EXPECT_EQ(W.bytes(), 37u); // the bytes appended, not the sink's head
  }
  EXPECT_EQ(Out, "head:x y 0,4294967295,18446744073709551615");
}

TEST(OutWriter, PadsLikePrintfAndNeverTruncates) {
  for (const std::string &Name :
       {std::string(""), std::string("app@1(2:3)"), std::string(17, 'a'),
        std::string(18, 'b'), std::string(19, 'c'),
        std::string("a_very_long_expression_name@12345(678:90)")}) {
    std::string Out;
    {
      OutWriter W(Out);
      DenseBitset Set(3);
      Set.insert(0);
      Set.insert(2);
      writeLabelSetLine(W, Name, setLine(Set, [](uint32_t L) {
                          return L == 0 ? std::string_view("fn#0(x)")
                                        : std::string_view("g");
                        }));
    }
    EXPECT_EQ(Out, printfLine(Name, "{fn#0(x), g}")) << Name;
  }
}

TEST(OutWriter, LabelSetLinesMatchPrintfOnShapeFamilies) {
  for (const char *Spec :
       {"wide:40", "deep:40", "diamond:12", "skewed:30", "wide:7:3"}) {
    std::unique_ptr<Module> M = shapeModule(Spec);
    ASSERT_NE(M, nullptr);
    std::string Out, Expected;
    size_t Longest = 0;
    {
      OutWriter W(Out);
      writeAllLabels(*M, W, Expected, Longest);
    }
    EXPECT_FALSE(Expected.empty()) << Spec;
    EXPECT_EQ(Out, Expected) << Spec;
  }
}

TEST(OutWriter, SkipsEmptySets) {
  // `fn y => y` is never applied: its parameter occurrence and body have
  // empty sets, so fewer lines than occurrences print.
  std::unique_ptr<Module> M =
      parseAndInfer("let id = fn x => x in let k = fn y => y in id id");
  ASSERT_NE(M, nullptr);
  std::string Out, Expected;
  size_t Longest = 0;
  {
    OutWriter W(Out);
    writeAllLabels(*M, W, Expected, Longest);
  }
  EXPECT_EQ(Out, Expected);
  size_t Lines = 0;
  for (char C : Out)
    Lines += C == '\n';
  EXPECT_GT(Lines, 0u);
  EXPECT_LT(Lines, M->numExprs());
}

TEST(OutWriter, LinesLongerThanTheBufferStreamWhole) {
  // wide:4096 has occurrences holding every label: ~81 KB lines, longer
  // than the writer's buffer.  Its whole output is ~670 MB, so a sample
  // is written: the first few 4096-label lines, and every 512th line.
  std::unique_ptr<Module> M = shapeModule("wide:4096");
  ASSERT_NE(M, nullptr);
  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  std::string Expected;
  size_t Longest = 0;
  uint64_t Written = 0;
  {
    OutWriter W(F);
    uint32_t FullSets = 0;
    writeAllLabels(*M, W, Expected, Longest,
                   [&](uint32_t I, const DenseBitset &Set) {
                     if (Set.count() >= 4096 && FullSets < 3) {
                       ++FullSets;
                       return true;
                     }
                     return I % 512 == 0;
                   });
    EXPECT_EQ(FullSets, 3u);
    EXPECT_TRUE(W.finish());
    EXPECT_EQ(W.error(), 0);
    Written = W.bytes();
  }
  EXPECT_GT(Longest, OutWriter::BufferBytes);
  EXPECT_EQ(Written, Expected.size());
  std::string Read(Expected.size(), '\0');
  std::rewind(F);
  ASSERT_EQ(std::fread(Read.data(), 1, Read.size(), F), Read.size());
  EXPECT_EQ(std::fgetc(F), EOF);
  std::fclose(F);
  EXPECT_TRUE(Read == Expected); // not EXPECT_EQ: a diff would be megabytes
}

TEST(OutWriter, FailingSinkReportsItsErrorOnce) {
  // A write larger than the buffer fails inside the writer's own fwrite.
  {
    std::FILE *F = std::fopen("/dev/full", "w");
    ASSERT_NE(F, nullptr);
    OutWriter W(F);
    W.put(std::string(OutWriter::BufferBytes + 1, 'x'));
    EXPECT_EQ(W.error(), ENOSPC);
    W.put("later bytes are dropped");
    EXPECT_FALSE(W.finish());
    EXPECT_EQ(W.error(), ENOSPC);
    std::fclose(F);
  }
  // A short write that stdio still buffers fails only at finish().
  {
    std::FILE *F = std::fopen("/dev/full", "w");
    ASSERT_NE(F, nullptr);
    OutWriter W(F);
    W.put("tiny\n");
    W.flush();
    EXPECT_EQ(W.error(), 0);
    EXPECT_FALSE(W.finish());
    EXPECT_EQ(W.error(), ENOSPC);
    std::fclose(F);
  }
}
