#include "ir/expr.h"

#include <algorithm>

#include "ir/eval.h"

namespace dfv::ir {

const char* opName(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kInput: return "input";
    case Op::kState: return "state";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kUDiv: return "udiv";
    case Op::kURem: return "urem";
    case Op::kSDiv: return "sdiv";
    case Op::kSRem: return "srem";
    case Op::kNeg: return "neg";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kNot: return "not";
    case Op::kShl: return "shl";
    case Op::kLShr: return "lshr";
    case Op::kAShr: return "ashr";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kULt: return "ult";
    case Op::kULe: return "ule";
    case Op::kSLt: return "slt";
    case Op::kSLe: return "sle";
    case Op::kMux: return "mux";
    case Op::kConcat: return "concat";
    case Op::kExtract: return "extract";
    case Op::kZExt: return "zext";
    case Op::kSExt: return "sext";
    case Op::kRedAnd: return "redand";
    case Op::kRedOr: return "redor";
    case Op::kRedXor: return "redxor";
    case Op::kArrayRead: return "read";
    case Op::kArrayWrite: return "write";
  }
  DFV_UNREACHABLE("bad op");
}

std::size_t Context::KeyHash::operator()(const Key& k) const {
  std::size_t h = static_cast<std::size_t>(k.op) * 1000003u;
  h ^= std::hash<unsigned>()(k.type.width) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= std::hash<unsigned>()(k.type.depth) + 0x9e3779b9 + (h << 6) + (h >> 2);
  for (NodeRef n : k.operands)
    h ^= std::hash<const void*>()(n) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= k.constVal.hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= std::hash<std::string>()(k.name) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= std::hash<unsigned>()(k.attr0 * 31u + k.attr1);
  return h;
}

NodeRef Context::intern(std::unique_ptr<Node> n) {
  Key key{n->op_, n->type_, n->operands_, n->constVal_, n->name_, n->attr0_,
          n->attr1_};
  std::scoped_lock lock(mu_);
  auto it = interned_.find(key);
  if (it != interned_.end()) return it->second;
  n->id_ = nodes_.size();
  NodeRef ref = n.get();
  nodes_.push_back(std::move(n));
  interned_.emplace(std::move(key), ref);
  return ref;
}

NodeRef Context::make(Op op, Type type, std::vector<NodeRef> operands,
                      unsigned attr0, unsigned attr1) {
  auto n = std::unique_ptr<Node>(new Node());
  n->op_ = op;
  n->type_ = type;
  n->operands_ = std::move(operands);
  n->attr0_ = attr0;
  n->attr1_ = attr1;
  return intern(std::move(n));
}

NodeRef Context::constant(const bv::BitVector& v) {
  auto n = std::unique_ptr<Node>(new Node());
  n->op_ = Op::kConst;
  n->type_ = Type{v.width(), 0};
  n->constVal_ = v;
  return intern(std::move(n));
}

NodeRef Context::input(const std::string& name, Type type) {
  {
    std::scoped_lock lock(mu_);
    auto it = inputs_.find(name);
    if (it != inputs_.end()) {
      DFV_CHECK_MSG(it->second->type() == type,
                    "input '" << name << "' redeclared with different sort");
      return it->second;
    }
  }
  auto n = std::unique_ptr<Node>(new Node());
  n->op_ = Op::kInput;
  n->type_ = type;
  n->name_ = name;
  // intern() takes the lock itself; a racing declaration of the same name
  // dedups to the same node, so re-locking to publish is race-safe.  The
  // sort check re-runs on the emplace winner so a concurrent redeclaration
  // with a different sort still throws.
  NodeRef ref = intern(std::move(n));
  std::scoped_lock lock(mu_);
  auto it = inputs_.emplace(name, ref).first;
  DFV_CHECK_MSG(it->second->type() == type,
                "input '" << name << "' redeclared with different sort");
  return it->second;
}

NodeRef Context::state(const std::string& name, Type type) {
  {
    std::scoped_lock lock(mu_);
    auto it = states_.find(name);
    if (it != states_.end()) {
      DFV_CHECK_MSG(it->second->type() == type,
                    "state '" << name << "' redeclared with different sort");
      return it->second;
    }
  }
  auto n = std::unique_ptr<Node>(new Node());
  n->op_ = Op::kState;
  n->type_ = type;
  n->name_ = name;
  NodeRef ref = intern(std::move(n));
  std::scoped_lock lock(mu_);
  auto it = states_.emplace(name, ref).first;
  DFV_CHECK_MSG(it->second->type() == type,
                "state '" << name << "' redeclared with different sort");
  return it->second;
}

namespace {
bool isConst(NodeRef n) { return n->op() == Op::kConst; }
bool isZeroConst(NodeRef n) {
  return isConst(n) && n->constValue().isZero();
}
bool isOnesConst(NodeRef n) {
  return isConst(n) && n->constValue().isAllOnes();
}
}  // namespace

NodeRef Context::tryFold(Op op, const std::vector<NodeRef>& ops,
                         unsigned attr0, unsigned attr1) {
  // Constant folding: if every operand is a constant, evaluate directly.
  for (NodeRef n : ops)
    if (!isConst(n)) return nullptr;
  if (op == Op::kMux) return ops[0]->constValue().isZero() ? ops[2] : ops[1];
  const bv::BitVector* in[3] = {};
  for (std::size_t i = 0; i < ops.size(); ++i) in[i] = &ops[i]->constValue();
  return constant(applyOp(op, in, attr0, attr1));
}

NodeRef Context::unary(Op op, NodeRef a) {
  DFV_CHECK_MSG(!a->type().isArray(), opName(op) << " on array");
  if (NodeRef f = tryFold(op, {a}, 0, 0)) return f;
  return make(op, a->type(), {a});
}

NodeRef Context::binary(Op op, NodeRef a, NodeRef b) {
  DFV_CHECK_MSG(!a->type().isArray() && !b->type().isArray(),
                opName(op) << " on array");
  DFV_CHECK_MSG(a->width() == b->width(), opName(op) << " width mismatch: "
                                                     << a->width() << " vs "
                                                     << b->width());
  if (NodeRef f = tryFold(op, {a, b}, 0, 0)) return f;
  // Identity simplifications keep graphs (and the SAT encodings derived from
  // them) small without a separate rewriting pass.
  switch (op) {
    case Op::kAdd:
      if (isZeroConst(a)) return b;
      if (isZeroConst(b)) return a;
      break;
    case Op::kSub:
      if (isZeroConst(b)) return a;
      if (a == b) return zero(a->width());
      break;
    case Op::kMul:
      if (isZeroConst(a) || isZeroConst(b)) return zero(a->width());
      if (isConst(a) && a->constValue().toUint64() == 1 &&
          a->constValue().popcount() == 1)
        return b;
      if (isConst(b) && b->constValue().toUint64() == 1 &&
          b->constValue().popcount() == 1)
        return a;
      break;
    case Op::kAnd:
      if (isZeroConst(a) || isZeroConst(b)) return zero(a->width());
      if (isOnesConst(a)) return b;
      if (isOnesConst(b)) return a;
      if (a == b) return a;
      break;
    case Op::kOr:
      if (isZeroConst(a)) return b;
      if (isZeroConst(b)) return a;
      if (isOnesConst(a) || isOnesConst(b))
        return constant(bv::BitVector::allOnes(a->width()));
      if (a == b) return a;
      break;
    case Op::kXor:
      if (isZeroConst(a)) return b;
      if (isZeroConst(b)) return a;
      if (a == b) return zero(a->width());
      break;
    default:
      break;
  }
  // Canonical operand order for commutative ops improves sharing.
  if ((op == Op::kAdd || op == Op::kMul || op == Op::kAnd || op == Op::kOr ||
       op == Op::kXor) &&
      b->id() < a->id())
    std::swap(a, b);
  return make(op, a->type(), {a, b});
}

NodeRef Context::compare(Op op, NodeRef a, NodeRef b) {
  DFV_CHECK_MSG(!a->type().isArray() && !b->type().isArray(),
                opName(op) << " on array");
  DFV_CHECK_MSG(a->width() == b->width(), opName(op) << " width mismatch");
  if (NodeRef f = tryFold(op, {a, b}, 0, 0)) return f;
  if (a == b) {
    switch (op) {
      case Op::kEq: case Op::kULe: case Op::kSLe: return boolConst(true);
      case Op::kNe: case Op::kULt: case Op::kSLt: return boolConst(false);
      default: break;
    }
  }
  if ((op == Op::kEq || op == Op::kNe) && b->id() < a->id()) std::swap(a, b);
  return make(op, Type{1, 0}, {a, b});
}

NodeRef Context::shift(Op op, NodeRef a, NodeRef amount) {
  DFV_CHECK_MSG(!a->type().isArray() && !amount->type().isArray(),
                "shift on array");
  if (NodeRef f = tryFold(op, {a, amount}, 0, 0)) return f;
  if (isZeroConst(amount)) return a;
  return make(op, a->type(), {a, amount});
}

NodeRef Context::reduction(Op op, NodeRef a) {
  DFV_CHECK_MSG(!a->type().isArray(), "reduction on array");
  if (NodeRef f = tryFold(op, {a}, 0, 0)) return f;
  if (a->width() == 1) return a;  // all reductions are identity on 1 bit
  return make(op, Type{1, 0}, {a});
}

NodeRef Context::mux(NodeRef sel, NodeRef thenV, NodeRef elseV) {
  DFV_CHECK_MSG(sel->width() == 1 && !sel->type().isArray(),
                "mux selector must be 1 bit");
  DFV_CHECK_MSG(thenV->type() == elseV->type(), "mux branch sort mismatch");
  if (isConst(sel)) return sel->constValue().isZero() ? elseV : thenV;
  if (thenV == elseV) return thenV;
  // mux(s, mux(s, a, b), c) == mux(s, a, c) and symmetrically on the else
  // branch: collapses the nested guards produced by sequential guarded
  // assignments (critical for structural matching in SEC miters).
  if (thenV->op() == Op::kMux && thenV->operand(0) == sel)
    thenV = thenV->operand(1);
  if (elseV->op() == Op::kMux && elseV->operand(0) == sel)
    elseV = elseV->operand(2);
  if (thenV == elseV) return thenV;
  return make(Op::kMux, thenV->type(), {sel, thenV, elseV});
}

NodeRef Context::concat(NodeRef hi, NodeRef lo) {
  DFV_CHECK_MSG(!hi->type().isArray() && !lo->type().isArray(),
                "concat on array");
  if (NodeRef f = tryFold(Op::kConcat, {hi, lo}, 0, 0)) return f;
  return make(Op::kConcat, Type{hi->width() + lo->width(), 0}, {hi, lo});
}

NodeRef Context::extract(NodeRef a, unsigned hi, unsigned lo) {
  DFV_CHECK_MSG(!a->type().isArray(), "extract on array");
  DFV_CHECK_MSG(hi < a->width() && lo <= hi,
                "extract [" << hi << ':' << lo << "] of width " << a->width());
  if (hi == a->width() - 1 && lo == 0) return a;
  if (NodeRef f = tryFold(Op::kExtract, {a}, hi, lo)) return f;
  // extract(extract(x)) composes.
  if (a->op() == Op::kExtract)
    return extract(a->operand(0), a->attr1() + hi, a->attr1() + lo);
  return make(Op::kExtract, Type{hi - lo + 1, 0}, {a}, hi, lo);
}

NodeRef Context::zext(NodeRef a, unsigned newWidth) {
  DFV_CHECK_MSG(!a->type().isArray(), "zext on array");
  DFV_CHECK_MSG(newWidth >= a->width(), "zext to narrower width");
  if (newWidth == a->width()) return a;
  if (NodeRef f = tryFold(Op::kZExt, {a}, newWidth, 0)) return f;
  return make(Op::kZExt, Type{newWidth, 0}, {a}, newWidth);
}

NodeRef Context::sext(NodeRef a, unsigned newWidth) {
  DFV_CHECK_MSG(!a->type().isArray(), "sext on array");
  DFV_CHECK_MSG(newWidth >= a->width(), "sext to narrower width");
  if (newWidth == a->width()) return a;
  if (NodeRef f = tryFold(Op::kSExt, {a}, newWidth, 0)) return f;
  return make(Op::kSExt, Type{newWidth, 0}, {a}, newWidth);
}

NodeRef Context::resize(NodeRef a, unsigned newWidth, bool asSigned) {
  if (newWidth < a->width()) return extract(a, newWidth - 1, 0);
  return asSigned ? sext(a, newWidth) : zext(a, newWidth);
}

NodeRef Context::logicalAnd(NodeRef a, NodeRef b) {
  DFV_CHECK_MSG(a->width() == 1 && b->width() == 1, "logicalAnd needs 1-bit");
  return bitAnd(a, b);
}
NodeRef Context::logicalOr(NodeRef a, NodeRef b) {
  DFV_CHECK_MSG(a->width() == 1 && b->width() == 1, "logicalOr needs 1-bit");
  return bitOr(a, b);
}
NodeRef Context::logicalNot(NodeRef a) {
  DFV_CHECK_MSG(a->width() == 1, "logicalNot needs 1-bit");
  return bitNot(a);
}

NodeRef Context::arrayRead(NodeRef array, NodeRef index) {
  DFV_CHECK_MSG(array->type().isArray(), "arrayRead on scalar");
  DFV_CHECK_MSG(index->width() == array->type().indexWidth(),
                "index width " << index->width() << " != "
                               << array->type().indexWidth());
  return make(Op::kArrayRead, Type{array->type().width, 0}, {array, index});
}

NodeRef Context::arrayWrite(NodeRef array, NodeRef index, NodeRef value) {
  DFV_CHECK_MSG(array->type().isArray(), "arrayWrite on scalar");
  DFV_CHECK_MSG(index->width() == array->type().indexWidth(),
                "index width mismatch");
  DFV_CHECK_MSG(!value->type().isArray() &&
                    value->width() == array->type().width,
                "written value width mismatch");
  return make(Op::kArrayWrite, array->type(), {array, index, value});
}

}  // namespace dfv::ir
