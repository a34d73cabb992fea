#include "ir/eval.h"

namespace dfv::ir {

bool Value::matches(const Type& t) const {
  if (t.isArray()) {
    if (!isArray || array.size() != t.depth) return false;
    for (const auto& e : array)
      if (e.width() != t.width) return false;
    return true;
  }
  return !isArray && scalar.width() == t.width;
}

bool isScalarOp(Op op) {
  switch (op) {
    case Op::kConst: case Op::kInput: case Op::kState:
    case Op::kArrayRead: case Op::kArrayWrite:
      return false;
    default:
      return true;
  }
}

bv::BitVector applyOp(Op op, const bv::BitVector* const* in, unsigned attr0,
                      unsigned attr1) {
  using bv::BitVector;
  auto b2v = [](bool b) { return BitVector::fromUint(1, b); };
  const BitVector& a = *in[0];
  switch (op) {
    case Op::kAdd: return a + *in[1];
    case Op::kSub: return a - *in[1];
    case Op::kMul: return a * *in[1];
    case Op::kUDiv: return a.udiv(*in[1]);
    case Op::kURem: return a.urem(*in[1]);
    case Op::kSDiv: return a.sdiv(*in[1]);
    case Op::kSRem: return a.srem(*in[1]);
    case Op::kNeg: return a.neg();
    case Op::kAnd: return a & *in[1];
    case Op::kOr: return a | *in[1];
    case Op::kXor: return a ^ *in[1];
    case Op::kNot: return ~a;
    case Op::kShl: return a.shl(*in[1]);
    case Op::kLShr: return a.lshr(*in[1]);
    case Op::kAShr: return a.ashr(*in[1]);
    case Op::kEq: return b2v(a == *in[1]);
    case Op::kNe: return b2v(a != *in[1]);
    case Op::kULt: return b2v(a.ult(*in[1]));
    case Op::kULe: return b2v(a.ule(*in[1]));
    case Op::kSLt: return b2v(a.slt(*in[1]));
    case Op::kSLe: return b2v(a.sle(*in[1]));
    case Op::kMux: return a.isZero() ? *in[2] : *in[1];
    case Op::kConcat: return BitVector::concat(a, *in[1]);
    case Op::kExtract: return a.extract(attr0, attr1);
    case Op::kZExt: return a.zext(attr0);
    case Op::kSExt: return a.sext(attr0);
    case Op::kRedAnd: return b2v(a.reduceAnd());
    case Op::kRedOr: return b2v(a.reduceOr());
    case Op::kRedXor: return b2v(a.reduceXor());
    default:
      DFV_UNREACHABLE("op " << opName(op) << " is not a scalar op");
  }
}

void Tape::run(std::size_t begin, std::size_t end) {
  Value* s = slots_.data();
  for (std::size_t pc = begin; pc < end; ++pc) {
    const Instr& i = code_[pc];
    if (i.guard != kNone && s[i.guard].scalar.isZero()) continue;
    Value& dst = s[i.dst];
    const Value& a = s[i.src[0]];
    switch (i.op) {
      case Op::kMux: {
        const Value& pick = a.scalar.isZero() ? s[i.src[2]] : s[i.src[1]];
        if (pick.isArray)
          dst = pick;
        else
          dst.scalar = pick.scalar;
        break;
      }
      case Op::kArrayRead: {
        // An out-of-range index (depth not a power of two) reads element 0,
        // matching the bit-blasted mux tree's default.
        const std::uint64_t idx = s[i.src[1]].scalar.toUint64();
        dst.scalar = a.array[idx < a.array.size() ? idx : 0];
        break;
      }
      case Op::kArrayWrite: {
        if (i.dst != i.src[0]) dst = a;
        const std::uint64_t idx = s[i.src[1]].scalar.toUint64();
        if (idx < dst.array.size()) dst.array[idx] = s[i.src[2]].scalar;
        break;
      }
      case Op::kZExt:
        if (a.scalar.width() == i.attr0) {
          dst.scalar = a.scalar;
          break;
        }
        [[fallthrough]];
      default: {
        const bv::BitVector* in[3] = {&a.scalar, &s[i.src[1]].scalar,
                                      &s[i.src[2]].scalar};
        dst.scalar = applyOp(i.op, in, i.attr0, i.attr1);
      }
    }
  }
}

Tape::Slot Tape::compile(NodeRef root,
                         const std::function<Slot(NodeRef)>& leaf) {
  // Iterative post-order: a node is emitted once all its operands have
  // slots.
  std::vector<NodeRef> stack{root};
  while (!stack.empty()) {
    NodeRef n = stack.back();
    if (nodeSlots_.count(n) != 0) {
      stack.pop_back();
      continue;
    }
    if (n->isLeaf()) {
      nodeSlots_.emplace(n, n->op() == Op::kConst
                                ? addSlot(Value(n->constValue()))
                                : leaf(n));
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (NodeRef o : n->operands())
      if (nodeSlots_.count(o) == 0) {
        stack.push_back(o);
        ready = false;
      }
    if (!ready) continue;
    stack.pop_back();
    // Sorts are fixed here (the result slot takes the node's), so the
    // executor never re-checks them.
    const auto& ops = n->operands();
    DFV_CHECK_MSG(ops[0]->type().isArray() == (n->op() == Op::kArrayRead ||
                                               n->op() == Op::kArrayWrite),
                  "ill-sorted " << opName(n->op()) << " node");
    Instr i{.op = n->op(),
            .dst = addSlot(Value::zeroOf(n->type())),
            .attr0 = n->attr0(),
            .attr1 = n->attr1()};
    for (std::size_t k = 0; k < ops.size(); ++k)
      i.src[k] = nodeSlots_.at(ops[k]);
    emit(i);
    nodeSlots_.emplace(n, i.dst);
  }
  return nodeSlots_.at(root);
}

const Value& Evaluator::eval(NodeRef node) {
  const std::size_t begin = tape_.size();
  const Tape::Slot s = tape_.compile(node, [&](NodeRef leaf) {
    auto it = env_.find(leaf);
    DFV_CHECK_MSG(it != env_.end(), "unbound leaf '" << leaf->name() << "'");
    DFV_CHECK_MSG(it->second.matches(leaf->type()),
                  "bound value for '" << leaf->name()
                                      << "' has the wrong sort");
    return tape_.addSlot(it->second);
  });
  tape_.run(begin, tape_.size());
  return tape_.slot(s);
}

}  // namespace dfv::ir
