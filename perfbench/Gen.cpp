//===-- perfbench/Gen.cpp - Seeded inputs for the stcfa benchmark ---------===//

#include "Gen.h"

#include "Bench.h"

#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "testgen/ShapeGen.h"

#include <algorithm>

using namespace perfbench;

std::vector<CliProgram> perfbench::cliPrograms(uint64_t Seed) {
  std::mt19937_64 R(Seed * 0x9E3779B97F4A7C15ull + 11);
  auto shape = [&](stcfa::CondShape S, int N) {
    stcfa::ShapeSpec Spec;
    Spec.Shape = S;
    Spec.N = N;
    Spec.Seed = R() % 1000 + 1;
    return CliProgram{stcfa::shapeSpecString(Spec),
                      stcfa::makeShapeProgram(Spec)};
  };
  auto random = [&]() {
    // No refs and no datatypes: with either, the driver's default
    // by-type congruence answers a sound superset and the Prop. 1
    // equality check would not apply.
    stcfa::RandomProgramOptions RO;
    RO.Seed = R() % 100000 + 1;
    RO.NumBindings = 400;
    RO.UseRefs = false;
    RO.UseEffects = false;
    RO.UseDatatypes = false;
    return CliProgram{"random:" + std::to_string(RO.Seed) + ":400",
                      stcfa::makeRandomProgram(RO)};
  };

  // Large output per expression: cubic, wide, skewed.  Small: deep,
  // lexgen, random.  Sizes keep each invocation well under a second.
  std::vector<CliProgram> Ps;
  Ps.push_back({"cubic:150", stcfa::makeCubicFamily(150)});
  Ps.push_back({"cubic:250", stcfa::makeCubicFamily(250)});
  Ps.push_back(shape(stcfa::CondShape::Wide, 400));
  Ps.push_back(shape(stcfa::CondShape::Skewed, 300));
  Ps.push_back(shape(stcfa::CondShape::Deep, 600));
  Ps.push_back({"lexgen:95", stcfa::makeLexgenLike(95)});
  Ps.push_back(random());
  Ps.push_back(random());
  return Ps;
}

//===----------------------------------------------------------------------===//
// WebProgram
//===----------------------------------------------------------------------===//

namespace {

bool isIdentChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_' || C == '\'';
}

/// Replaces whole-identifier occurrences of \p From with \p To.
std::string replaceIdent(const std::string &Text, const std::string &From,
                         const std::string &To) {
  std::string Out;
  size_t I = 0;
  while (I < Text.size()) {
    size_t J = Text.find(From, I);
    if (J == std::string::npos)
      break;
    bool Left = J == 0 || !isIdentChar(Text[J - 1]);
    bool Right =
        J + From.size() == Text.size() || !isIdentChar(Text[J + From.size()]);
    Out.append(Text, I, J - I);
    Out += Left && Right ? To : From;
    I = J + From.size();
  }
  Out.append(Text, I, std::string::npos);
  return Out;
}

} // namespace

WebProgram::WebProgram(uint64_t Seed, int Defs) {
  std::mt19937_64 R(Seed * 0xD1B54A32D192ED03ull + 7);
  for (int I = 0; I != Defs; ++I) {
    Def D;
    // One combinator in sixteen: the shared `g` parameters are the join
    // points that make label sets grow with the program.
    D.K = I >= 8 && R() % 16 == 0 ? Kind::Comb : Kind::Fn;
    D.Name = (D.K == Kind::Comb ? "h" : "f") + std::to_string(I);
    makeDef(R, D, Order.size());
    retain(D, +1);
    Order.push_back(std::move(D));
  }
  for (int I = 0; I != 8; ++I) {
    BodyRefs.push_back(pickRef(R, Order.size(), Kind::Fn));
    ++RefCount[BodyRefs.back()];
  }
}

std::string WebProgram::pickRef(std::mt19937_64 &R, size_t Pos, Kind K) {
  // Mostly local references (the last 32 definitions of the kind), some
  // anywhere earlier: a program with locality and long-range flow.
  std::vector<size_t> Near, All;
  for (size_t I = 0; I != Pos; ++I)
    if (Order[I].K == K)
      All.push_back(I);
  if (All.empty())
    return "";
  for (size_t I = All.size() > 32 ? All.size() - 32 : 0; I != All.size(); ++I)
    Near.push_back(All[I]);
  const std::vector<size_t> &From = R() % 5 == 0 ? All : Near;
  return Order[From[R() % From.size()]].Name;
}

void WebProgram::makeDef(std::mt19937_64 &R, Def &D, size_t Pos) {
  D.Refs.clear();
  auto ref = [&](Kind K) {
    std::string N = pickRef(R, Pos, K);
    if (!N.empty())
      D.Refs.push_back(N);
    return N;
  };
  const std::string C = std::to_string(R() % 9 + 1);
  if (D.K == Kind::Comb) {
    std::string F = ref(Kind::Fn);
    D.Text = "let " + D.Name + " = fn g => fn x => g (" +
             (F.empty() ? "x + " + C : F + " x") + ");";
    return;
  }
  const unsigned Form = R() % 10;
  std::string Body;
  if (Form < 3) {
    std::string F = ref(Kind::Fn);
    Body = F.empty() ? "fn x => x + " + C : "fn x => " + F + " (x + " + C + ")";
  } else if (Form < 5) {
    std::string F = ref(Kind::Fn), G = ref(Kind::Fn);
    Body = F.empty() ? "fn x => x * " + C
                     : "fn x => " + F + " (" + G + " x)";
  } else if (Form < 8) {
    std::string H = ref(Kind::Comb), F = ref(Kind::Fn);
    if (H.empty() || F.empty())
      Body = F.empty() ? "fn x => x - " + C : "fn x => " + F + " x";
    else
      Body = H + " " + F;
  } else {
    std::string F = ref(Kind::Fn), G = ref(Kind::Fn);
    Body = F.empty() ? "fn x => x + " + C
                     : "fn x => if x < " + C + " then " + F + " x else " + G +
                           " (x - 1)";
  }
  D.Text = "let " + D.Name + " = " + Body + ";";
}

void WebProgram::retain(const Def &D, int Delta) {
  for (const std::string &N : D.Refs)
    RefCount[N] += Delta;
}

std::string WebProgram::source() const {
  // One definition per line, exactly as the daemon's edit session joins
  // its spliced texts, so lint line/col positions agree with a fresh load.
  std::string Out;
  for (const Def &D : Order) {
    Out += D.Text;
    Out += '\n';
  }
  Out += "(";
  for (size_t I = 0; I != BodyRefs.size(); ++I)
    Out += (I ? ", " : "") + BodyRefs[I] + " " + std::to_string(I + 1);
  Out += ")\n";
  return Out;
}

void WebProgram::renameEverywhere(const std::string &From,
                                  const std::string &To) {
  for (Def &D : Order) {
    if (D.Name == From)
      D.Name = To;
    if (std::find(D.Refs.begin(), D.Refs.end(), From) == D.Refs.end() &&
        D.Name != To)
      continue;
    D.Text = replaceIdent(D.Text, From, To);
    std::replace(D.Refs.begin(), D.Refs.end(), From, To);
  }
  std::replace(BodyRefs.begin(), BodyRefs.end(), From, To);
  RefCount[To] = RefCount[From];
  RefCount.erase(From);
}

std::string WebProgram::randomEdit(std::mt19937_64 &R, std::string &Op) {
  if (Deck.empty()) {
    for (unsigned K = 0; K != 10; ++K)
      Deck.push_back(K);
    std::shuffle(Deck.begin(), Deck.end(), R);
  }
  const unsigned Roll = Deck.back();
  Deck.pop_back();
  if (Roll == 7) {
    // insert: a fresh function, placed anywhere; it may only reference
    // definitions before it.
    Op = "insert";
    size_t Pos = R() % (Order.size() + 1);
    Def D;
    D.Name = "n" + std::to_string(++Fresh);
    makeDef(R, D, Pos);
    retain(D, +1);
    std::string P = "{\"op\":\"insert\",\"text\":" + jsonQuote(D.Text);
    if (Pos != Order.size())
      P += ",\"before\":\"" + Order[Pos].Name + "\"";
    Order.insert(Order.begin() + Pos, std::move(D));
    return P + "}";
  }
  if (Roll == 8) {
    // delete: only a definition nothing references.
    std::vector<size_t> Dead;
    for (size_t I = 0; I != Order.size(); ++I)
      if (RefCount[Order[I].Name] == 0)
        Dead.push_back(I);
    if (!Dead.empty() && Order.size() > 16) {
      Op = "delete";
      size_t Pos = Dead[R() % Dead.size()];
      retain(Order[Pos], -1);
      std::string Name = Order[Pos].Name;
      RefCount.erase(Name);
      Order.erase(Order.begin() + Pos);
      return "{\"op\":\"delete\",\"name\":\"" + Name + "\"}";
    }
  }
  if (Roll == 9) {
    Op = "rename";
    Def &D = Order[R() % Order.size()];
    std::string From = D.Name;
    std::string To = "r" + std::to_string(++Fresh);
    renameEverywhere(From, To);
    return "{\"op\":\"rename\",\"name\":\"" + From + "\",\"new_name\":\"" +
           To + "\"}";
  }
  // replace: same name, same type, new body.
  Op = "replace";
  size_t Pos = R() % Order.size();
  Def &D = Order[Pos];
  retain(D, -1);
  makeDef(R, D, Pos);
  retain(D, +1);
  return "{\"op\":\"replace\",\"name\":\"" + D.Name +
         "\",\"text\":" + jsonQuote(D.Text) + "}";
}
