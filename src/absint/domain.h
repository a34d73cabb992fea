// The abstract domain for word-level static analysis: a reduced product of
// known-bits (per-bit proven 0/1 masks) and unsigned intervals.
//
// The paper's §3 divergence catalog is dominated by semantic width hazards —
// truncation, overflow wrap-around, reset-divergent state — that no purely
// structural rule can see.  This domain is the vocabulary for proving the
// facts those hazards hinge on: "the top five bits of this accumulator are
// always zero", "this saturating counter never exceeds 9".  dfv::absint sits
// directly above dfv::ir and feeds two consumers: dfv::inv's invariant
// miner (whose candidates are SAT-certified before SEC may use them) and the
// semantic design rules in dfv::drc.
//
// Soundness contract (property-tested exhaustively at small widths in
// tests/absint_test.cpp): a Fact denotes a set of bit-vector values, and
// every transfer function over-approximates the concrete ir::Evaluator —
// the concrete result is always a member of the abstract result.
#pragma once

#include <string>

#include "bitvec/bitvector.h"

namespace dfv::absint {

/// Per-bit knowledge: `zeros` masks bits proven 0, `ones` bits proven 1.
/// The two masks are always disjoint for a non-empty fact.
struct KnownBits {
  bv::BitVector zeros;
  bv::BitVector ones;
};

/// Inclusive unsigned range [lo, hi] with lo <= hi (unsigned order).
struct Interval {
  bv::BitVector lo;
  bv::BitVector hi;
};

/// One abstract value: the set of `width`-bit vectors consistent with both
/// the known-bits masks and the interval.  The empty set (bottom) arises
/// only from meets with contradictory branch predicates — i.e. under
/// provably dead mux arms — never from joins or transfer functions.
class Fact {
 public:
  /// All `width`-bit values.
  static Fact top(unsigned width);
  /// Exactly {v}.
  static Fact constant(const bv::BitVector& v);
  /// [lo, hi] with the implied known bits (common leading prefix).
  static Fact interval(const bv::BitVector& lo, const bv::BitVector& hi);
  /// Values matching the masks, with the implied interval.
  static Fact knownBits(const bv::BitVector& zeros, const bv::BitVector& ones);
  /// The empty set.
  static Fact bottom(unsigned width);

  unsigned width() const { return kb_.zeros.width(); }
  bool isBottom() const { return bottom_; }
  bool isTop() const;
  /// Singleton set?
  bool isConstant() const { return !bottom_ && iv_.lo == iv_.hi; }
  /// Requires isConstant().
  const bv::BitVector& constantValue() const;

  const KnownBits& kb() const { return kb_; }
  const Interval& iv() const { return iv_; }

  /// Membership test (the property the differential tests sweep).
  bool contains(const bv::BitVector& v) const;

  /// Number of bits proven (0 or 1).
  unsigned knownBitCount() const {
    return bottom_ ? width() : kb_.zeros.popcount() + kb_.ones.popcount();
  }
  /// Number of trailing bits proven zero.
  unsigned provenTrailingZeros() const;
  /// True when bits [hi:lo] are all proven zero.
  bool provenZeroRange(unsigned hi, unsigned lo) const;

  /// Least upper bound (set union, rounded up to the domain).
  Fact join(const Fact& other) const;
  /// Greatest lower bound (set intersection, may be bottom).
  Fact meet(const Fact& other) const;
  /// Containment in the abstract order: every value of *this is allowed by
  /// `other`.  (Used by tests; not a set-equality check.)
  bool refines(const Fact& other) const;

  /// "[0x0,0x7f8] bits=0000_0???_????_?000" (bit pattern for narrow widths,
  /// mask pair for wide ones) — the evidence string DRC diagnostics attach.
  std::string str() const;

  friend bool operator==(const Fact& a, const Fact& b) {
    return a.bottom_ == b.bottom_ && a.kb_.zeros == b.kb_.zeros &&
           a.kb_.ones == b.kb_.ones && a.iv_.lo == b.iv_.lo &&
           a.iv_.hi == b.iv_.hi;
  }

 private:
  explicit Fact(unsigned width)
      : kb_{bv::BitVector(width), bv::BitVector(width)},
        iv_{bv::BitVector(width), bv::BitVector::allOnes(width)} {}
  /// Mutual refinement of the two components (reduced product): known bits
  /// clamp the interval, the interval's common lo/hi prefix becomes known
  /// bits.  Detects emptiness.
  void reduce();

  KnownBits kb_;
  Interval iv_;
  bool bottom_ = false;
};

/// min/max in the unsigned order (operands must share a width).
const bv::BitVector& umin(const bv::BitVector& a, const bv::BitVector& b);
const bv::BitVector& umax(const bv::BitVector& a, const bv::BitVector& b);
/// Position of the highest set bit plus one; 0 for the zero vector.
unsigned bitLength(const bv::BitVector& v);

}  // namespace dfv::absint
