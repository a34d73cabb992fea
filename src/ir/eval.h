// Concrete evaluation of IR expressions.
//
// The executable semantics of the IR, checked against the RTL simulator and
// the bit-blaster and used to replay SEC counterexamples.  `applyOp` is the
// one place scalar op semantics are written (constant folding and the DRC
// call it too); a `Tape` is the one executor — Evaluator and TsSimulator
// compile IR cones into one, rtl::Simulator its levelized netlist.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "ir/expr.h"

namespace dfv::ir {

/// A runtime value: a scalar bit-vector or an array of element bit-vectors.
struct Value {
  bv::BitVector scalar;
  std::vector<bv::BitVector> array;
  bool isArray = false;

  Value() = default;
  /*implicit*/ Value(bv::BitVector s) : scalar(std::move(s)) {}
  static Value makeArray(std::vector<bv::BitVector> elems) {
    Value v;
    v.array = std::move(elems);
    v.isArray = true;
    return v;
  }
  /// A depth-element array with every element the same scalar.
  static Value filledArray(unsigned width, unsigned depth,
                           const bv::BitVector& fill) {
    DFV_CHECK(fill.width() == width);
    Value v;
    v.array.assign(depth, fill);
    v.isArray = true;
    return v;
  }
  static Value zeroOf(const Type& t) {
    if (!t.isArray()) return Value(bv::BitVector(t.width));
    return filledArray(t.width, t.depth, bv::BitVector(t.width));
  }

  bool matches(const Type& t) const;
  friend bool operator==(const Value& a, const Value& b) {
    return a.isArray == b.isArray &&
           (a.isArray ? a.array == b.array : a.scalar == b.scalar);
  }
};

/// True for the ops applyOp implements: every op except the leaves and the
/// two array ops.
bool isScalarOp(Op op);

/// The concrete semantics of scalar op `op` applied to `in[0..arity)` with
/// attributes `attr0`/`attr1` (extract hi/lo, extension width): two-valued,
/// with SMT-LIB-totalized division (see bv::BitVector).
bv::BitVector applyOp(Op op, const bv::BitVector* const* in, unsigned attr0,
                      unsigned attr1);

/// A straight-line program over a dense arena of Value slots.
class Tape {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNone = ~Slot{0};

  /// dst := op(src...) — a scalar op through applyOp, kMux (copies the
  /// chosen Value), kArrayRead, or kArrayWrite (in place when dst ==
  /// src[0]).  A same-width kZExt is a copy.
  struct Instr {
    Op op = Op::kZExt;
    Slot dst = 0;
    std::array<Slot, 3> src{};  ///< unused operands point at slot 0
    unsigned attr0 = 0, attr1 = 0;
    Slot guard = kNone;  ///< when set, runs only if this 1-bit slot is 1
  };

  Slot addSlot(Value v) {
    slots_.push_back(std::move(v));
    return static_cast<Slot>(slots_.size() - 1);
  }
  Value& slot(Slot s) { return slots_[s]; }
  const Value& slot(Slot s) const { return slots_[s]; }

  void emit(const Instr& i) { code_.push_back(i); }
  std::size_t size() const { return code_.size(); }

  /// Runs instructions [begin, end) in order.
  void run(std::size_t begin, std::size_t end);

  /// Emits every not-yet-compiled node of `root`'s cone in post-order
  /// (iteratively, so cone depth is unbounded) and returns root's slot.
  /// `leaf` supplies the slot of each kInput/kState leaf; nodes compiled
  /// by earlier calls are reused.  Instruction sorts are checked here, once.
  Slot compile(NodeRef root, const std::function<Slot(NodeRef)>& leaf);

 private:
  std::vector<Value> slots_;
  std::vector<Instr> code_;
  std::unordered_map<NodeRef, Slot> nodeSlots_;
};

/// Binding of leaf nodes (inputs and states) to concrete values.
using Env = std::unordered_map<NodeRef, Value>;

/// Evaluates nodes under `env`.  Every kInput/kState leaf reachable from an
/// evaluated node must be bound with a value of its sort (CheckError
/// otherwise).  Each call compiles only the part of the cone earlier calls
/// did not, so shared subgraphs are evaluated once.
class Evaluator {
 public:
  explicit Evaluator(const Env& env) : env_(env) {}

  /// The value of `node`; the reference stays valid until the next call.
  const Value& eval(NodeRef node);

  /// One-shot convenience.
  static Value evaluate(NodeRef node, const Env& env) {
    Evaluator e(env);
    return e.eval(node);
  }

 private:
  const Env& env_;
  Tape tape_;
};

}  // namespace dfv::ir
