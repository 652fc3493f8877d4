//===-- gen/Generators.cpp - Benchmark program generators -----------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "gen/Generators.h"

#include <cassert>
#include <vector>

using namespace stcfa;

namespace {

/// Appends every piece to \p Out in order.  Building lines this way
/// instead of as `"lit" + S + ...` chains avoids the temporaries whose
/// prepend GCC 12 misreads as an overlapping copy (`-Wrestrict` under
/// -O3).
template <typename... Ts> void append(std::string &Out, const Ts &...Pieces) {
  (Out += ... += Pieces);
}

} // namespace

std::string stcfa::makeCubicFamily(int N) {
  assert(N >= 1 && "family size must be positive");
  // The paper (Section 10):
  //   fun fs x = x            fun bs x = x
  //   fun fi x = x            fun bi x = x
  //   val xi = bi(fs fi)      val yi = (bs bi) fi
  // The `fs`/`bs` parameters join the flows of all copies, which is what
  // drives the standard algorithm superlinear.
  std::string Out;
  Out += "let fs = fn x => x;\n";
  Out += "let bs = fn x => x;\n";
  for (int I = 1; I <= N; ++I) {
    std::string S = std::to_string(I);
    append(Out, "let f", S, " = fn x => x;\n");
    append(Out, "let b", S, " = fn x => x;\n");
    append(Out, "let x", S, " = b", S, " (fs f", S, ");\n");
    append(Out, "let y", S, " = (bs b", S, ") f", S, ";\n");
  }
  append(Out, "y", std::to_string(N), "\n");
  return Out;
}

std::string stcfa::makeJoinPointFamily(int N) {
  assert(N >= 1 && "family size must be positive");
  // fun f x = x  applied from n sites; x acts as a join point combining
  // information from all of them (Section 2's motivating fragment).
  std::string Out = "let f = fn x => x;\n";
  for (int I = 1; I <= N; ++I) {
    std::string S = std::to_string(I);
    append(Out, "let g", S, " = fn u", S, " => u", S, ";\n");
    append(Out, "let r", S, " = f g", S, ";\n");
  }
  append(Out, "r", std::to_string(N), "\n");
  return Out;
}

std::string stcfa::makeEffectsFamily(int N) {
  assert(N >= 1 && "family size must be positive");
  std::string Out;
  // The effectful core and a chain of wrappers around it; every wi is
  // (transitively) side-effecting.
  Out += "let w0 = fn x => #2 (print \"effect\", x);\n";
  for (int I = 1; I <= N; ++I) {
    std::string S = std::to_string(I), P = std::to_string(I - 1);
    Out += "let w" + S + " = fn x => w" + P + " x;\n";
  }
  // Pure functions of the same shape.
  Out += "let p0 = fn x => x;\n";
  for (int I = 1; I <= N; ++I) {
    std::string S = std::to_string(I), P = std::to_string(I - 1);
    Out += "let p" + S + " = fn x => p" + P + " x;\n";
  }
  std::string S = std::to_string(N);
  Out += "w" + S + " 1 + p" + S + " 2\n";
  return Out;
}

std::string stcfa::makeCalledOnceFamily(int N) {
  assert(N >= 1 && "family size must be positive");
  std::string Out;
  for (int I = 1; I <= N; ++I) {
    std::string S = std::to_string(I);
    // `once_i` has exactly one call site; `twice_i` has two; `shared_i`
    // flows to one call site but through a join variable.
    Out += "let once" + S + " = fn x => x + " + S + ";\n";
    Out += "let twice" + S + " = fn x => x * " + S + ";\n";
    Out += "let a" + S + " = once" + S + " 1;\n";
    Out += "let b" + S + " = twice" + S + " 2;\n";
    Out += "let c" + S + " = twice" + S + " 3;\n";
  }
  Out += "a1 + b1 + c1\n";
  return Out;
}

std::string stcfa::makeDispatchFamily(int N) {
  assert(N >= 1 && "family size must be positive");
  std::string Out = "let g0 = fn x => x;\n"
                    "let d0 = g0;\n"
                    "let c0 = d0 0;\n";
  for (int I = 1; I <= N; ++I) {
    std::string S = std::to_string(I), P = std::to_string(I - 1);
    append(Out, "let g", S, " = fn x => x + ", S, ";\n");
    append(Out, "let d", S, " = if c", P, " < ", S, " then d", P, " else g", S,
           ";\n");
    append(Out, "let c", S, " = d", S, " ", S, ";\n");
  }
  append(Out, "c", std::to_string(N), "\n");
  return Out;
}

namespace {

/// Deterministic xorshift generator (no std::random: reproducibility
/// across standard library implementations matters for the tests).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 0x9e3779b97f4a7c15ULL) {}

  uint64_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  }

  /// Uniform in [0, Bound).
  uint32_t below(uint32_t Bound) {
    assert(Bound > 0);
    return static_cast<uint32_t>(next() % Bound);
  }

  bool flip() { return next() & 1; }

private:
  uint64_t State;
};

/// Emits one random binding per step, maintaining pools of names grouped
/// by type so every reference is well-typed.
class RandomProgramBuilder {
public:
  explicit RandomProgramBuilder(const RandomProgramOptions &Opts)
      : Opts(Opts), R(Opts.Seed) {}

  std::string run() {
    std::string Out;
    if (Opts.UseDatatypes)
      Out += "data GFunList = GNil | GCons(Int -> Int, GFunList);\n";
    // Seed pools so choices are always possible.
    Out += "let a0 = fn x => x;\n";
    Out += "let a1 = fn x => x + 1;\n";
    FnPool = {"a0", "a1"};
    Out += "let h0 = fn f => fn x => f x;\n";
    HofPool = {"h0"};
    if (Opts.UseDatatypes) {
      Out += "let l0 = GCons(a0, GNil);\n";
      ListPool = {"l0"};
    }

    for (int I = 0; I != Opts.NumBindings; ++I)
      Out += emitBinding();

    // The body forces a little evaluation of everything interesting.
    Out += pickFn() + " 1 + " + pickFn() + " 2 + (" + pickHof() + " " +
           pickFn() + ") 3\n";
    return Out;
  }

private:
  std::string fresh(const char *Prefix) {
    return std::string(Prefix) + std::to_string(NextId++);
  }

  const std::string &pickFn() { return FnPool[R.below(FnPool.size())]; }
  const std::string &pickHof() { return HofPool[R.below(HofPool.size())]; }
  const std::string &pickList() { return ListPool[R.below(ListPool.size())]; }

  std::string emitBinding() {
    enum Choice {
      NewFn,
      Compose,
      NewHof,
      ApplyHof,
      IfJoin,
      TupleProj,
      ListConsCase,
      RefCell,
      MutualPair,
      EffectfulFn,
      NumChoices
    };
    while (true) {
      Choice C = static_cast<Choice>(R.below(NumChoices));
      switch (C) {
      case NewFn: {
        std::string N = fresh("a");
        std::string Body = R.flip() ? "x" : ("x + " + std::to_string(R.below(9)));
        std::string Out = "let " + N + " = fn x => " + Body + ";\n";
        FnPool.push_back(N);
        return Out;
      }
      case Compose: {
        std::string N = fresh("a");
        std::string Out = "let " + N + " = fn x => " + pickFn() + " (" +
                          pickFn() + " x);\n";
        FnPool.push_back(N);
        return Out;
      }
      case NewHof: {
        std::string N = fresh("h");
        std::string Out;
        if (R.flip())
          Out = "let " + N + " = fn f => fn x => f (f x);\n";
        else
          Out = "let " + N + " = fn f => fn x => " + pickFn() + " (f x);\n";
        HofPool.push_back(N);
        return Out;
      }
      case ApplyHof: {
        std::string N = fresh("a");
        std::string Out =
            "let " + N + " = " + pickHof() + " " + pickFn() + ";\n";
        FnPool.push_back(N);
        return Out;
      }
      case IfJoin: {
        if (!Opts.UseIf)
          continue;
        std::string N = fresh("a");
        std::string Out = "let " + N + " = if " +
                          std::to_string(R.below(9)) + " < " +
                          std::to_string(R.below(9)) + " then " + pickFn() +
                          " else " + pickFn() + ";\n";
        FnPool.push_back(N);
        return Out;
      }
      case TupleProj: {
        if (!Opts.UseTuples)
          continue;
        std::string T = fresh("t");
        std::string N = fresh("a");
        std::string Out = "let " + T + " = (" + pickFn() + ", " + pickFn() +
                          ");\n";
        Out += "let " + N + " = #" + (R.flip() ? "1" : "2") + " " + T +
               ";\n";
        FnPool.push_back(N);
        return Out;
      }
      case ListConsCase: {
        if (!Opts.UseDatatypes)
          continue;
        std::string L = fresh("l");
        std::string N = fresh("a");
        std::string Out = "let " + L + " = GCons(" + pickFn() + ", " +
                          pickList() + ");\n";
        Out += "let " + N + " = case " + L + " of GNil => " + pickFn() +
               " | GCons(hd, tl) => hd end;\n";
        ListPool.push_back(L);
        FnPool.push_back(N);
        return Out;
      }
      case RefCell: {
        if (!Opts.UseRefs)
          continue;
        std::string C2 = fresh("r");
        std::string N = fresh("a");
        std::string Out = "let " + C2 + " = ref " + pickFn() + ";\n";
        if (R.flip())
          Out += "let u" + C2 + " = " + C2 + " := " + pickFn() + ";\n";
        Out += "let " + N + " = !" + C2 + ";\n";
        FnPool.push_back(N);
        return Out;
      }
      case MutualPair: {
        std::string A = fresh("m");
        std::string B2 = fresh("m");
        std::string Out = "letrec " + A + " = fn n => if n < 1 then " +
                          pickFn() + " n else " + B2 + " (n - 1)\n" +
                          "and " + B2 + " = fn n => " + A + " (n - 1);\n";
        FnPool.push_back(A);
        FnPool.push_back(B2);
        return Out;
      }
      case EffectfulFn: {
        if (!Opts.UseEffects)
          continue;
        std::string N = fresh("a");
        std::string Out = "let " + N + " = fn x => #2 (print \"e\", " +
                          pickFn() + " x);\n";
        FnPool.push_back(N);
        return Out;
      }
      case NumChoices:
        break;
      }
    }
  }

  RandomProgramOptions Opts;
  Rng R;
  int NextId = 2;
  std::vector<std::string> FnPool;   // Int -> Int
  std::vector<std::string> HofPool;  // (Int -> Int) -> Int -> Int
  std::vector<std::string> ListPool; // GFunList
};

} // namespace

std::string stcfa::makeRandomProgram(const RandomProgramOptions &Opts) {
  RandomProgramBuilder B(Opts);
  return B.run();
}
