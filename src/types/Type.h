//===-- types/Type.h - Hash-consed monotypes --------------------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consed monotypes.  The subtransitive algorithm itself never looks
/// at types (Section 4: "the algorithm only needs to know that the types
/// exist"), but the reproduction needs them for three things:
///
///   1. defining and *measuring* the bounded-type classes (type-tree size,
///      order, arity — the `k` and `k_avg` of Sections 1, 4 and 10),
///   2. the datatype congruences ≈1 and ≈2 of Section 6, which merge graph
///      nodes whose associated type is the same datatype, and
///   3. rejecting ill-typed inputs, since the termination guarantee only
///      holds for typed programs.
///
/// Types are interned in a `TypeTable`, so `TypeId` equality is type
/// equality.  Type variables are represented structurally (`Var k`); the
/// Hindley–Milner inference in `sema/Infer.h` layers a union-find binding
/// table over the variable indices.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_TYPES_TYPE_H
#define STCFA_TYPES_TYPE_H

#include "support/Hashing.h"
#include "support/Ids.h"
#include "support/StringInterner.h"

#include <cassert>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace stcfa {

enum class TypeKind : uint8_t {
  Int,
  Bool,
  Unit,
  String,
  Var,   // unification variable / generalised type parameter
  Arrow, // T1 -> T2
  Tuple, // (T1, ..., Tn), n >= 2
  Data,  // named datatype
  Ref,   // mutable cell
};

/// One interned type node.  Trivially copyable: the arguments live in the
/// owning table's pool (`TypeTable::args`), so a copy stays valid while
/// the table interns more types.
struct Type {
  TypeKind Kind;
  /// Var: variable number.  Arrow: unused.  Tuple: unused.  Data: unused.
  uint32_t VarNum = 0;
  /// Data: the datatype name.
  Symbol Name;
  /// Arrow: {param, result}.  Tuple: the fields.  Ref: {content}.  An
  /// offset and a count into the table's argument pool.
  uint32_t FirstArg = 0;
  uint32_t NumArgs = 0;
};

/// Interns types; owned by a `Module`.  Types and their arguments are two
/// flat arrays, and interning probes one open-addressing table of type
/// ids, so a lookup that hits allocates nothing.
class TypeTable {
public:
  TypeTable() {
    IntTy = get(TypeKind::Int, 0, Symbol(), {});
    BoolTy = get(TypeKind::Bool, 0, Symbol(), {});
    UnitTy = get(TypeKind::Unit, 0, Symbol(), {});
    StringTy = get(TypeKind::String, 0, Symbol(), {});
  }

  TypeId intType() const { return IntTy; }
  TypeId boolType() const { return BoolTy; }
  TypeId unitType() const { return UnitTy; }
  TypeId stringType() const { return StringTy; }

  TypeId varType(uint32_t VarNum) {
    return get(TypeKind::Var, VarNum, Symbol(), {});
  }
  TypeId arrowType(TypeId Param, TypeId Result) {
    const TypeId Args[] = {Param, Result};
    return get(TypeKind::Arrow, 0, Symbol(), Args);
  }
  /// \p Fields must not point into this table's argument pool.
  TypeId tupleType(std::span<const TypeId> Fields) {
    assert(Fields.size() >= 2 && "tuple types have at least two fields");
    return get(TypeKind::Tuple, 0, Symbol(), Fields);
  }
  TypeId tupleType(std::initializer_list<TypeId> Fields) {
    return tupleType(std::span(Fields.begin(), Fields.size()));
  }
  TypeId dataType(Symbol Name) {
    return get(TypeKind::Data, 0, Name, {});
  }
  TypeId refType(TypeId Content) {
    return get(TypeKind::Ref, 0, Symbol(), std::span(&Content, 1));
  }

  const Type &type(TypeId Id) const {
    assert(Id.isValid() && Id.index() < Nodes.size() && "bad type id");
    return Nodes[Id.index()];
  }

  /// The arguments of \p T.  The span dies with the next interning; read
  /// one argument at a time (`arg`) across calls that may intern.
  std::span<const TypeId> args(const Type &T) const {
    return {ArgPool.data() + T.FirstArg, T.NumArgs};
  }
  std::span<const TypeId> args(TypeId Id) const { return args(type(Id)); }
  TypeId arg(const Type &T, uint32_t I) const {
    assert(I < T.NumArgs && "type argument out of range");
    return ArgPool[T.FirstArg + I];
  }
  TypeId arg(TypeId Id, uint32_t I) const { return arg(type(Id), I); }

  uint32_t size() const { return static_cast<uint32_t>(Nodes.size()); }

  /// Tree size of the type (number of nodes, counting `Data` leaves as 1).
  /// This is the paper's type-size measure for the bounded-type classes.
  uint32_t treeSize(TypeId Id) const;

  /// Order: base types and datatypes have order 0; an arrow's order is
  /// `max(order(param) + 1, order(result))`; tuples/refs take the max of
  /// their fields.
  uint32_t order(TypeId Id) const;

  /// Arity under the paper's currying convention: the number of arrows on
  /// the result spine (`Int -> Int -> Int` has arity 2).
  uint32_t arity(TypeId Id) const;

  /// Renders the type as source syntax (`(Int -> Bool, IntList)`).
  std::string render(TypeId Id, const StringInterner &Strings) const;

private:
  TypeId get(TypeKind Kind, uint32_t VarNum, Symbol Name,
             std::span<const TypeId> Args);
  static uint64_t hashType(TypeKind Kind, uint32_t VarNum, Symbol Name,
                           std::span<const TypeId> Args);
  void growIndex();
  /// Like `render`, but parenthesizes arrows and refs so the result can be
  /// embedded on the left of `->`.
  std::string renderAtom(TypeId Id, const StringInterner &Strings) const;

  std::vector<Type> Nodes;
  std::vector<TypeId> ArgPool;
  /// Open addressing over `Nodes`: a slot holds type id + 1, 0 is empty.
  std::vector<uint32_t> Index;
  TypeId IntTy, BoolTy, UnitTy, StringTy;
};

} // namespace stcfa

#endif // STCFA_TYPES_TYPE_H
