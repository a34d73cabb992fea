#include "absint/domain.h"

#include <sstream>

#include "common/check.h"

namespace dfv::absint {

using bv::BitVector;

const BitVector& umin(const BitVector& a, const BitVector& b) {
  return a.ult(b) ? a : b;
}

const BitVector& umax(const BitVector& a, const BitVector& b) {
  return a.ult(b) ? b : a;
}

unsigned bitLength(const BitVector& v) {
  return v.width() - v.countLeadingZeros();
}

Fact Fact::top(unsigned width) { return Fact(width); }

Fact Fact::bottom(unsigned width) {
  Fact f(width);
  f.bottom_ = true;
  return f;
}

Fact Fact::constant(const BitVector& v) {
  Fact f(v.width());
  f.kb_.ones = v;
  f.kb_.zeros = ~v;
  f.iv_.lo = v;
  f.iv_.hi = v;
  return f;
}

Fact Fact::interval(const BitVector& lo, const BitVector& hi) {
  DFV_CHECK_MSG(lo.width() == hi.width() && lo.ule(hi),
                "malformed interval bounds");
  Fact f(lo.width());
  f.iv_.lo = lo;
  f.iv_.hi = hi;
  f.reduce();
  return f;
}

Fact Fact::knownBits(const BitVector& zeros, const BitVector& ones) {
  DFV_CHECK_MSG(zeros.width() == ones.width() && (zeros & ones).isZero(),
                "known-bits masks must be disjoint");
  Fact f(zeros.width());
  f.kb_.zeros = zeros;
  f.kb_.ones = ones;
  f.reduce();
  return f;
}

bool Fact::isTop() const {
  return !bottom_ && kb_.zeros.isZero() && kb_.ones.isZero() &&
         iv_.lo.isZero() && iv_.hi.isAllOnes();
}

const BitVector& Fact::constantValue() const {
  DFV_CHECK_MSG(isConstant(), "fact is not a singleton");
  return iv_.lo;
}

bool Fact::contains(const BitVector& v) const {
  if (bottom_ || v.width() != width()) return false;
  if (!(v & kb_.zeros).isZero()) return false;
  if (!(~v & kb_.ones).isZero()) return false;
  return iv_.lo.ule(v) && v.ule(iv_.hi);
}

unsigned Fact::provenTrailingZeros() const {
  if (bottom_) return width();
  unsigned n = 0;
  while (n < width() && kb_.zeros.bit(n)) ++n;
  return n;
}

bool Fact::provenZeroRange(unsigned hi, unsigned lo) const {
  DFV_CHECK(hi < width() && lo <= hi);
  if (bottom_) return true;
  for (unsigned i = lo; i <= hi; ++i)
    if (!kb_.zeros.bit(i)) return false;
  return true;
}

Fact Fact::join(const Fact& other) const {
  DFV_CHECK_MSG(width() == other.width(), "joining facts of unequal width");
  if (bottom_) return other;
  if (other.bottom_) return *this;
  Fact f(width());
  f.kb_.zeros = kb_.zeros & other.kb_.zeros;
  f.kb_.ones = kb_.ones & other.kb_.ones;
  f.iv_.lo = umin(iv_.lo, other.iv_.lo);
  f.iv_.hi = umax(iv_.hi, other.iv_.hi);
  f.reduce();
  DFV_CHECK(!f.bottom_);
  return f;
}

Fact Fact::meet(const Fact& other) const {
  DFV_CHECK_MSG(width() == other.width(), "meeting facts of unequal width");
  if (bottom_ || other.bottom_) return bottom(width());
  Fact f(width());
  f.kb_.zeros = kb_.zeros | other.kb_.zeros;
  f.kb_.ones = kb_.ones | other.kb_.ones;
  if (!(f.kb_.zeros & f.kb_.ones).isZero()) return bottom(width());
  f.iv_.lo = umax(iv_.lo, other.iv_.lo);
  f.iv_.hi = umin(iv_.hi, other.iv_.hi);
  if (f.iv_.hi.ult(f.iv_.lo)) return bottom(width());
  f.reduce();
  return f;
}

bool Fact::refines(const Fact& other) const {
  if (bottom_) return true;
  if (other.bottom_) return false;
  if (width() != other.width()) return false;
  // Every bit other proves, *this must prove the same way; our range must
  // sit inside other's.
  if (!(other.kb_.zeros & ~kb_.zeros).isZero()) return false;
  if (!(other.kb_.ones & ~kb_.ones).isZero()) return false;
  return other.iv_.lo.ule(iv_.lo) && iv_.hi.ule(other.iv_.hi);
}

void Fact::reduce() {
  if (bottom_) return;
  // Loop until stable: each direction only tightens, and the lattice is
  // finite, but two passes already reach a fixpoint for every case the
  // transfer functions produce; the loop guard is just insurance.
  for (int pass = 0; pass < 4; ++pass) {
    bool changed = false;
    // Known bits clamp the interval: `ones` is the least member of the
    // masks' concretization, ~zeros the greatest.
    const BitVector kbMin = kb_.ones;
    const BitVector kbMax = ~kb_.zeros;
    if (iv_.lo.ult(kbMin)) {
      iv_.lo = kbMin;
      changed = true;
    }
    if (kbMax.ult(iv_.hi)) {
      iv_.hi = kbMax;
      changed = true;
    }
    if (iv_.hi.ult(iv_.lo)) {
      bottom_ = true;
      return;
    }
    // The common leading prefix of lo and hi is known: every value between
    // them shares it.
    const BitVector diff = iv_.lo ^ iv_.hi;
    const unsigned firstDiff = bitLength(diff);  // bits >= firstDiff agree
    for (unsigned i = firstDiff; i < width(); ++i) {
      if (iv_.lo.bit(i)) {
        if (!kb_.ones.bit(i)) {
          kb_.ones.setBit(i, true);
          changed = true;
        }
      } else {
        if (!kb_.zeros.bit(i)) {
          kb_.zeros.setBit(i, true);
          changed = true;
        }
      }
    }
    if (!(kb_.zeros & kb_.ones).isZero()) {
      bottom_ = true;
      return;
    }
    if (!changed) return;
  }
}

std::string Fact::str() const {
  if (bottom_) return "<unreachable>";
  std::ostringstream os;
  os << '[' << iv_.lo.toString(16) << ',' << iv_.hi.toString(16) << ']';
  os << " bits=";
  if (width() <= 64) {
    for (unsigned i = width(); i-- > 0;) {
      os << (kb_.zeros.bit(i) ? '0' : kb_.ones.bit(i) ? '1' : '?');
      if (i != 0 && i % 4 == 0) os << '_';
    }
  } else {
    os << "zeros:" << kb_.zeros.toString(16) << " ones:"
       << kb_.ones.toString(16);
  }
  return os.str();
}

}  // namespace dfv::absint
