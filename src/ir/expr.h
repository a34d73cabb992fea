// Word-level expression IR shared by every formal-path component.
//
// RTL netlists (src/rtl) and conditioned system-level models (src/slmc) both
// lower into this IR; the sequential equivalence checker (src/sec) builds its
// product machine over it and the bit-blaster (src/aig) converts it to an
// and-inverter graph.  Nodes are immutable, hash-consed, and owned by a
// Context arena, so structurally identical expressions are pointer-identical.
//
// Sorts: a Type is either a scalar bit-vector (depth == 0, width >= 1) or an
// array of `depth` elements of `width` bits each (a synchronous memory).
// Arrays occur only as state leaves plus Read/Write chains.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bitvec/bitvector.h"
#include "common/check.h"

namespace dfv::ir {

/// Operation kinds.  Arity and typing rules are enforced by Context builders.
enum class Op : std::uint8_t {
  // Leaves
  kConst,   ///< scalar constant (value stored in node)
  kInput,   ///< free input, named
  kState,   ///< current-state variable, named (scalar or array)
  // Scalar arithmetic (operands same width; result same width, wraps)
  kAdd, kSub, kMul, kUDiv, kURem, kSDiv, kSRem, kNeg,
  // Bitwise
  kAnd, kOr, kXor, kNot,
  // Shifts (amount = second operand, any width, clamps at result width)
  kShl, kLShr, kAShr,
  // Comparisons (result width 1)
  kEq, kNe, kULt, kULe, kSLt, kSLe,
  // Structure
  kMux,      ///< mux(sel[1], thenV, elseV)
  kConcat,   ///< concat(hi, lo); width = sum
  kExtract,  ///< extract(a) with [hi:lo] attributes
  kZExt, kSExt,  ///< widen to attribute width
  // Reductions (result width 1)
  kRedAnd, kRedOr, kRedXor,
  // Arrays
  kArrayRead,   ///< read(array, index) -> element
  kArrayWrite,  ///< write(array, index, value) -> array
};

/// Printable op mnemonic.
const char* opName(Op op);

/// Scalar or array sort.
struct Type {
  unsigned width = 1;  ///< element width in bits
  unsigned depth = 0;  ///< 0 = scalar; else number of array elements

  bool isArray() const { return depth != 0; }
  /// Bit width of an index that can address every element.
  unsigned indexWidth() const {
    DFV_CHECK(isArray());
    unsigned w = 1;
    while ((1ull << w) < depth) ++w;
    return w;
  }
  friend bool operator==(const Type& a, const Type& b) {
    return a.width == b.width && a.depth == b.depth;
  }
};

class Context;

/// An immutable IR node.  Obtain instances only through Context.
class Node {
 public:
  Op op() const { return op_; }
  const Type& type() const { return type_; }
  unsigned width() const { return type_.width; }
  std::uint64_t id() const { return id_; }
  const std::vector<const Node*>& operands() const { return operands_; }
  const Node* operand(unsigned i) const {
    DFV_CHECK(i < operands_.size());
    return operands_[i];
  }

  /// kConst only: the value.
  const bv::BitVector& constValue() const {
    DFV_CHECK(op_ == Op::kConst);
    return constVal_;
  }
  /// kInput/kState only: the declared name.
  const std::string& name() const {
    DFV_CHECK(op_ == Op::kInput || op_ == Op::kState);
    return name_;
  }
  /// kExtract: hi/lo; kZExt/kSExt: attr0 = target width.
  unsigned attr0() const { return attr0_; }
  unsigned attr1() const { return attr1_; }

  bool isLeaf() const {
    return op_ == Op::kConst || op_ == Op::kInput || op_ == Op::kState;
  }

 private:
  friend class Context;
  Node() = default;

  Op op_ = Op::kConst;
  Type type_;
  std::uint64_t id_ = 0;
  std::vector<const Node*> operands_;
  bv::BitVector constVal_;
  std::string name_;
  unsigned attr0_ = 0, attr1_ = 0;
};

using NodeRef = const Node*;

/// Arena + hash-consing factory for IR nodes.
///
/// All builder methods validate operand sorts and throw CheckError on misuse.
/// Light constant folding and identity simplification run on construction so
/// downstream passes see canonical graphs.
///
/// Thread safety: node construction is serialized on an internal mutex, so
/// concurrent builders (plan blocks run by a core::ParallelExecutor) may
/// share a Context.  Nodes are immutable once published, so reads
/// (operands(), constValue(), ...) are lock-free.  When two threads build
/// the same expression, the first intern wins and both observe the same
/// NodeRef.
/// Ids follow interning order, and operand canonicalization consults them,
/// so a check that must match its serial run bit for bit builds into a
/// Context of its own.
class Context {
 public:
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // ----- leaves ---------------------------------------------------------
  NodeRef constant(const bv::BitVector& v);
  NodeRef constantUint(unsigned width, std::uint64_t v) {
    return constant(bv::BitVector::fromUint(width, v));
  }
  NodeRef constantInt(unsigned width, std::int64_t v) {
    return constant(bv::BitVector::fromInt(width, v));
  }
  NodeRef zero(unsigned width) { return constantUint(width, 0); }
  NodeRef one(unsigned width) { return constantUint(width, 1); }
  NodeRef boolConst(bool b) { return constantUint(1, b ? 1 : 0); }

  /// Declares (or returns the existing) input of this name.  Redeclaration
  /// with a different sort throws.
  NodeRef input(const std::string& name, Type type);
  NodeRef input(const std::string& name, unsigned width) {
    return input(name, Type{width, 0});
  }
  /// Declares (or returns the existing) current-state leaf of this name.
  NodeRef state(const std::string& name, Type type);
  NodeRef state(const std::string& name, unsigned width) {
    return state(name, Type{width, 0});
  }

  // ----- scalar ops -------------------------------------------------------
  NodeRef add(NodeRef a, NodeRef b) { return binary(Op::kAdd, a, b); }
  NodeRef sub(NodeRef a, NodeRef b) { return binary(Op::kSub, a, b); }
  NodeRef mul(NodeRef a, NodeRef b) { return binary(Op::kMul, a, b); }
  NodeRef udiv(NodeRef a, NodeRef b) { return binary(Op::kUDiv, a, b); }
  NodeRef urem(NodeRef a, NodeRef b) { return binary(Op::kURem, a, b); }
  NodeRef sdiv(NodeRef a, NodeRef b) { return binary(Op::kSDiv, a, b); }
  NodeRef srem(NodeRef a, NodeRef b) { return binary(Op::kSRem, a, b); }
  NodeRef neg(NodeRef a) { return unary(Op::kNeg, a); }
  NodeRef bitAnd(NodeRef a, NodeRef b) { return binary(Op::kAnd, a, b); }
  NodeRef bitOr(NodeRef a, NodeRef b) { return binary(Op::kOr, a, b); }
  NodeRef bitXor(NodeRef a, NodeRef b) { return binary(Op::kXor, a, b); }
  NodeRef bitNot(NodeRef a) { return unary(Op::kNot, a); }
  NodeRef shl(NodeRef a, NodeRef amount) { return shift(Op::kShl, a, amount); }
  NodeRef lshr(NodeRef a, NodeRef amount) { return shift(Op::kLShr, a, amount); }
  NodeRef ashr(NodeRef a, NodeRef amount) { return shift(Op::kAShr, a, amount); }

  NodeRef eq(NodeRef a, NodeRef b) { return compare(Op::kEq, a, b); }
  NodeRef ne(NodeRef a, NodeRef b) { return compare(Op::kNe, a, b); }
  NodeRef ult(NodeRef a, NodeRef b) { return compare(Op::kULt, a, b); }
  NodeRef ule(NodeRef a, NodeRef b) { return compare(Op::kULe, a, b); }
  NodeRef slt(NodeRef a, NodeRef b) { return compare(Op::kSLt, a, b); }
  NodeRef sle(NodeRef a, NodeRef b) { return compare(Op::kSLe, a, b); }
  NodeRef ugt(NodeRef a, NodeRef b) { return ult(b, a); }
  NodeRef uge(NodeRef a, NodeRef b) { return ule(b, a); }
  NodeRef sgt(NodeRef a, NodeRef b) { return slt(b, a); }
  NodeRef sge(NodeRef a, NodeRef b) { return sle(b, a); }

  /// mux(sel, thenV, elseV): sel must be 1 bit; branches same scalar sort.
  NodeRef mux(NodeRef sel, NodeRef thenV, NodeRef elseV);
  NodeRef concat(NodeRef hi, NodeRef lo);
  NodeRef extract(NodeRef a, unsigned hi, unsigned lo);
  NodeRef zext(NodeRef a, unsigned newWidth);
  NodeRef sext(NodeRef a, unsigned newWidth);
  /// resize: trunc / zext / sext as needed.
  NodeRef resize(NodeRef a, unsigned newWidth, bool asSigned);
  NodeRef redAnd(NodeRef a) { return reduction(Op::kRedAnd, a); }
  NodeRef redOr(NodeRef a) { return reduction(Op::kRedOr, a); }
  NodeRef redXor(NodeRef a) { return reduction(Op::kRedXor, a); }

  /// Boolean helpers over 1-bit values.
  NodeRef logicalAnd(NodeRef a, NodeRef b);
  NodeRef logicalOr(NodeRef a, NodeRef b);
  NodeRef logicalNot(NodeRef a);
  NodeRef implies(NodeRef a, NodeRef b) { return logicalOr(logicalNot(a), b); }

  // ----- arrays -----------------------------------------------------------
  NodeRef arrayRead(NodeRef array, NodeRef index);
  NodeRef arrayWrite(NodeRef array, NodeRef index, NodeRef value);

  std::size_t nodeCount() const {
    std::scoped_lock lock(mu_);
    return nodes_.size();
  }

 private:
  NodeRef unary(Op op, NodeRef a);
  NodeRef binary(Op op, NodeRef a, NodeRef b);
  NodeRef compare(Op op, NodeRef a, NodeRef b);
  NodeRef shift(Op op, NodeRef a, NodeRef amount);
  NodeRef reduction(Op op, NodeRef a);
  NodeRef intern(std::unique_ptr<Node> n);
  /// Interns a non-leaf node.
  NodeRef make(Op op, Type type, std::vector<NodeRef> operands,
               unsigned attr0 = 0, unsigned attr1 = 0);
  NodeRef tryFold(Op op, const std::vector<NodeRef>& ops, unsigned attr0,
                  unsigned attr1);

  struct Key {
    Op op;
    Type type;
    std::vector<NodeRef> operands;
    bv::BitVector constVal;
    std::string name;
    unsigned attr0, attr1;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  mutable std::mutex mu_;  // guards the four containers below
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<Key, NodeRef, KeyHash> interned_;
  std::unordered_map<std::string, NodeRef> inputs_;
  std::unordered_map<std::string, NodeRef> states_;
};

}  // namespace dfv::ir
