//===-- types/Type.cpp - Hash-consed monotypes ----------------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "types/Type.h"

#include <algorithm>

using namespace stcfa;

TypeId TypeTable::get(TypeKind Kind, uint32_t VarNum, Symbol Name,
                      std::span<const TypeId> Args) {
  assert((Args.empty() || Args.data() < ArgPool.data() ||
          Args.data() >= ArgPool.data() + ArgPool.size()) &&
         "arguments alias the pool");
  if ((Nodes.size() + 1) * 4 >= Index.size() * 3)
    growIndex();
  const size_t Mask = Index.size() - 1;
  size_t I = static_cast<size_t>(hashType(Kind, VarNum, Name, Args)) & Mask;
  for (; Index[I] != 0; I = (I + 1) & Mask) {
    const Type &T = Nodes[Index[I] - 1];
    if (T.Kind == Kind && T.VarNum == VarNum && T.Name == Name &&
        T.NumArgs == Args.size() &&
        std::equal(Args.begin(), Args.end(), ArgPool.begin() + T.FirstArg))
      return TypeId(Index[I] - 1);
  }
  TypeId Id(static_cast<uint32_t>(Nodes.size()));
  Nodes.push_back({Kind, VarNum, Name, static_cast<uint32_t>(ArgPool.size()),
                   static_cast<uint32_t>(Args.size())});
  ArgPool.insert(ArgPool.end(), Args.begin(), Args.end());
  Index[I] = Id.index() + 1;
  return Id;
}

void TypeTable::growIndex() {
  Index.assign(Index.empty() ? 64 : Index.size() * 2, 0);
  const size_t Mask = Index.size() - 1;
  for (uint32_t Id = 0; Id != Nodes.size(); ++Id) {
    const Type &T = Nodes[Id];
    size_t I =
        static_cast<size_t>(hashType(T.Kind, T.VarNum, T.Name, args(T))) &
        Mask;
    while (Index[I] != 0)
      I = (I + 1) & Mask;
    Index[I] = Id + 1;
  }
}

uint64_t TypeTable::hashType(TypeKind Kind, uint32_t VarNum, Symbol Name,
                             std::span<const TypeId> Args) {
  uint64_t H = hashCombine(static_cast<uint64_t>(Kind),
                           (uint64_t(VarNum) << 32) | (Name.index() + 1));
  for (TypeId A : Args)
    H = hashCombine(H, A.index());
  return H;
}

uint32_t TypeTable::treeSize(TypeId Id) const {
  const Type &T = type(Id);
  uint32_t Size = 1;
  for (TypeId A : args(T))
    Size += treeSize(A);
  return Size;
}

uint32_t TypeTable::order(TypeId Id) const {
  const Type &T = type(Id);
  switch (T.Kind) {
  case TypeKind::Int:
  case TypeKind::Bool:
  case TypeKind::Unit:
  case TypeKind::String:
  case TypeKind::Var:
  case TypeKind::Data:
    return 0;
  case TypeKind::Arrow:
    return std::max(order(arg(T, 0)) + 1, order(arg(T, 1)));
  case TypeKind::Tuple:
  case TypeKind::Ref: {
    uint32_t Max = 0;
    for (TypeId A : args(T))
      Max = std::max(Max, order(A));
    return Max;
  }
  }
  assert(false && "unknown type kind");
  return 0;
}

uint32_t TypeTable::arity(TypeId Id) const {
  const Type &T = type(Id);
  if (T.Kind != TypeKind::Arrow)
    return 0;
  return 1 + arity(arg(T, 1));
}

std::string TypeTable::renderAtom(TypeId Id,
                                  const StringInterner &Strings) const {
  const Type &T = type(Id);
  if (T.Kind != TypeKind::Arrow && T.Kind != TypeKind::Ref)
    return render(Id, Strings);
  // Appended piecewise: `"(" + render(...)` trips GCC 12's -Wrestrict
  // false positive in -O3 builds.
  std::string Out = "(";
  Out += render(Id, Strings);
  Out += ")";
  return Out;
}

std::string TypeTable::render(TypeId Id, const StringInterner &Strings) const {
  const Type &T = type(Id);
  switch (T.Kind) {
  case TypeKind::Int:
    return "Int";
  case TypeKind::Bool:
    return "Bool";
  case TypeKind::Unit:
    return "Unit";
  case TypeKind::String:
    return "String";
  case TypeKind::Var:
    return "'t" + std::to_string(T.VarNum);
  case TypeKind::Data:
    return std::string(Strings.text(T.Name));
  case TypeKind::Ref:
    return "Ref " + renderAtom(arg(T, 0), Strings);
  case TypeKind::Arrow:
    return renderAtom(arg(T, 0), Strings) + " -> " +
           render(arg(T, 1), Strings);
  case TypeKind::Tuple: {
    std::string Out = "(";
    for (uint32_t I = 0; I != T.NumArgs; ++I) {
      if (I)
        Out += ", ";
      Out += render(arg(T, I), Strings);
    }
    return Out + ")";
  }
  }
  assert(false && "unknown type kind");
  return "?";
}
