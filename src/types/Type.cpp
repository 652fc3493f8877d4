//===-- types/Type.cpp - Hash-consed monotypes ----------------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "types/Type.h"

#include <algorithm>

using namespace stcfa;

TypeId TypeTable::get(Type T) {
  uint64_t H = hashType(T);
  std::vector<TypeId> &Bucket = Buckets[H];
  for (TypeId Id : Bucket) {
    const Type &Existing = Nodes[Id.index()];
    if (Existing.Kind == T.Kind && Existing.VarNum == T.VarNum &&
        Existing.Name == T.Name && Existing.Args == T.Args)
      return Id;
  }
  TypeId Id(static_cast<uint32_t>(Nodes.size()));
  Nodes.push_back(std::move(T));
  Bucket.push_back(Id);
  return Id;
}

uint64_t TypeTable::hashType(const Type &T) const {
  uint64_t H = hashCombine(static_cast<uint64_t>(T.Kind),
                           (uint64_t(T.VarNum) << 32) | (T.Name.index() + 1));
  for (TypeId A : T.Args)
    H = hashCombine(H, A.index());
  return H;
}

uint32_t TypeTable::treeSize(TypeId Id) const {
  const Type &T = type(Id);
  uint32_t Size = 1;
  for (TypeId A : T.Args)
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
    return std::max(order(T.Args[0]) + 1, order(T.Args[1]));
  case TypeKind::Tuple:
  case TypeKind::Ref: {
    uint32_t Max = 0;
    for (TypeId A : T.Args)
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
  return 1 + arity(T.Args[1]);
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
    return "Ref " + renderAtom(T.Args[0], Strings);
  case TypeKind::Arrow:
    return renderAtom(T.Args[0], Strings) + " -> " +
           render(T.Args[1], Strings);
  case TypeKind::Tuple: {
    std::string Out = "(";
    for (size_t I = 0; I != T.Args.size(); ++I) {
      if (I)
        Out += ", ";
      Out += render(T.Args[I], Strings);
    }
    return Out + ")";
  }
  }
  assert(false && "unknown type kind");
  return "?";
}
