// Arbitrary-width bit-vector values with HDL (Verilog/VHDL-style) semantics.
//
// This is the reproduction of the datatype substrate the paper's Section 3.1
// calls for: RTL uses custom-sized bit-vectors while plain C/C++ models are
// stuck with int/long long, which masks overflow effects (Fig 1).  BitVector
// gives system-level models the same finite-precision, two's-complement,
// wrap-around arithmetic the RTL has, the way sc_int/sc_bigint do in SystemC.
//
// Semantics:
//  * A BitVector is a width (>= 1) plus that many bits.  Signedness is a
//    property of the *operation*, not the value (as in SMT-LIB / synthesized
//    netlists): sdiv vs udiv, slt vs ult, sext vs zext.
//  * Binary arithmetic/bitwise operators require equal widths and produce the
//    operand width, wrapping on overflow (the HDL assignment-context rule).
//    Width-extending forms (addFull, mulFull, ...) are provided separately.
//  * Division/remainder by zero follow the SMT-LIB convention (udiv -> all
//    ones, urem -> dividend) so every operation is total and deterministic;
//    Verilog would produce X, which a two-valued model cannot represent.
//
// Representation: 16 bytes — the width plus one inline limb for widths up
// to 64, or a pointer to ceil(width/64) heap limbs above that — so the
// values RTL nets, IR slots and transactions carry (nearly all <= 64 bits)
// never allocate.  The canonical form keeps all bits above `width` zero at
// all times; every mutating path re-normalizes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/check.h"

namespace dfv::bv {

/// An N-bit two's-complement bit-vector value, N >= 1.
class BitVector {
 public:
  /// Constructs a 1-bit zero.  (A zero-width vector is not representable.)
  BitVector() : width_(1), word_(0) {}

  /// Constructs a `width`-bit zero value.
  explicit BitVector(unsigned width) : width_(width), word_(0) {
    DFV_CHECK_MSG(width >= 1, "BitVector width must be >= 1");
    if (!isInline()) heap_ = new std::uint64_t[numWords()]();
  }

  BitVector(const BitVector& o) : width_(o.width_) {
    if (o.isInline())
      word_ = o.word_;
    else
      heap_ = copyLimbs(o);
  }
  /// A moved-from value is a 1-bit zero.
  BitVector(BitVector&& o) noexcept : width_(o.width_) {
    if (o.isInline())
      word_ = o.word_;
    else
      heap_ = o.heap_;
    o.width_ = 1;
    o.word_ = 0;
  }
  BitVector& operator=(const BitVector& o) {
    if (this == &o) return *this;
    if (isInline() && o.isInline()) {
      width_ = o.width_;
      word_ = o.word_;
      return *this;
    }
    assignSlow(o);
    return *this;
  }
  BitVector& operator=(BitVector&& o) noexcept {
    if (this == &o) return *this;
    if (!isInline()) delete[] heap_;
    width_ = o.width_;
    if (o.isInline())
      word_ = o.word_;
    else
      heap_ = o.heap_;
    o.width_ = 1;
    o.word_ = 0;
    return *this;
  }
  ~BitVector() {
    if (!isInline()) delete[] heap_;
  }

  /// Builds a `width`-bit value from the low `width` bits of `v`.
  static BitVector fromUint(unsigned width, std::uint64_t v);

  /// Builds a `width`-bit value from `v`, sign-extending or truncating.
  static BitVector fromInt(unsigned width, std::int64_t v);

  /// Builds a value with all `width` bits set.
  static BitVector allOnes(unsigned width);

  /// Parses "8'hff", "4'b1010", "12'd255", or plain decimal "255" (32-bit).
  /// Throws CheckError on malformed input or digits not fitting the base.
  static BitVector fromString(std::string_view text);

  unsigned width() const { return width_; }

  /// Reads bit `i` (0 = LSB).
  bool bit(unsigned i) const {
    DFV_CHECK_MSG(i < width_, "bit index " << i << " out of width " << width_);
    return (limbs()[i / 64] >> (i % 64)) & 1u;
  }

  /// Writes bit `i` (0 = LSB).
  void setBit(unsigned i, bool v) {
    DFV_CHECK_MSG(i < width_, "bit index " << i << " out of width " << width_);
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    if (v)
      limbs()[i / 64] |= mask;
    else
      limbs()[i / 64] &= ~mask;
  }

  /// The sign bit (MSB).
  bool msb() const { return bit(width_ - 1); }

  /// True iff every bit is zero.
  bool isZero() const { return isInline() ? word_ == 0 : isZeroSlow(); }

  /// True iff every bit is one.
  bool isAllOnes() const;

  /// Low 64 bits, zero-extended.
  std::uint64_t toUint64() const { return limbs()[0]; }

  /// Value as a signed 64-bit integer; requires width() <= 64 so the value is
  /// exactly representable.
  std::int64_t toInt64() const;

  /// Number of 1 bits.
  unsigned popcount() const;

  /// Number of leading (most-significant) zero bits; width() if zero.
  unsigned countLeadingZeros() const;

  // ----- width changes -------------------------------------------------
  /// Zero-extends (or is identity) to `newWidth` >= width().
  BitVector zext(unsigned newWidth) const;
  /// Sign-extends (or is identity) to `newWidth` >= width().
  BitVector sext(unsigned newWidth) const;
  /// Truncates to the low `newWidth` <= width() bits.
  BitVector trunc(unsigned newWidth) const;
  /// Resizes: truncates if narrower, zero-/sign-extends if wider.
  BitVector resize(unsigned newWidth, bool asSigned) const;

  /// Bits [hi:lo] inclusive, as a (hi-lo+1)-bit value (Verilog part-select).
  BitVector extract(unsigned hi, unsigned lo) const;

  /// {hi, lo}: `hi` becomes the most-significant part (Verilog concatenation).
  static BitVector concat(const BitVector& hi, const BitVector& lo);

  // ----- bitwise -------------------------------------------------------
  BitVector operator~() const;
  friend BitVector operator&(const BitVector& a, const BitVector& b);
  friend BitVector operator|(const BitVector& a, const BitVector& b);
  friend BitVector operator^(const BitVector& a, const BitVector& b);

  // ----- arithmetic (same-width, wrap-around) --------------------------
  friend BitVector operator+(const BitVector& a, const BitVector& b);
  friend BitVector operator-(const BitVector& a, const BitVector& b);
  friend BitVector operator*(const BitVector& a, const BitVector& b);
  /// Two's-complement negation (wraps at width: -INT_MIN == INT_MIN).
  BitVector neg() const;

  /// Full-precision forms: result width grows so no information is lost.
  BitVector addFull(const BitVector& b) const;   // width = max+1
  BitVector mulFull(const BitVector& b) const;   // width = wa+wb (unsigned)
  BitVector smulFull(const BitVector& b) const;  // width = wa+wb (signed)

  BitVector udiv(const BitVector& b) const;  // b==0 -> all ones
  BitVector urem(const BitVector& b) const;  // b==0 -> *this
  BitVector sdiv(const BitVector& b) const;  // truncating; b==0 per SMT-LIB
  BitVector srem(const BitVector& b) const;  // sign follows dividend

  // ----- shifts (shift amounts >= width yield 0 / sign-fill) -----------
  BitVector shl(unsigned amount) const;
  BitVector lshr(unsigned amount) const;
  BitVector ashr(unsigned amount) const;
  BitVector shl(const BitVector& amount) const;
  BitVector lshr(const BitVector& amount) const;
  BitVector ashr(const BitVector& amount) const;

  // ----- comparisons ---------------------------------------------------
  /// Structural equality: equal width AND equal bits.
  friend bool operator==(const BitVector& a, const BitVector& b) {
    if (a.width_ != b.width_) return false;
    return a.isInline() ? a.word_ == b.word_ : equalLimbs(a, b);
  }
  friend bool operator!=(const BitVector& a, const BitVector& b) {
    return !(a == b);
  }
  bool ult(const BitVector& b) const;
  bool ule(const BitVector& b) const;
  bool slt(const BitVector& b) const;
  bool sle(const BitVector& b) const;

  // ----- reductions ----------------------------------------------------
  bool reduceAnd() const { return isAllOnes(); }
  bool reduceOr() const { return !isZero(); }
  bool reduceXor() const { return popcount() & 1u; }

  // ----- formatting ----------------------------------------------------
  /// "8'hff"-style string; base in {2, 10, 16}.  Base 10 prints unsigned.
  std::string toString(unsigned base = 16) const;
  /// Decimal interpretation as signed two's-complement (arbitrary width).
  std::string toSignedDecimalString() const;

  /// FNV-1a over width and words, for hash containers.
  std::size_t hash() const;

 private:
  bool isInline() const { return width_ <= 64; }
  unsigned numWords() const { return (width_ + 63) / 64; }
  std::uint64_t* limbs() { return isInline() ? &word_ : heap_; }
  const std::uint64_t* limbs() const { return isInline() ? &word_ : heap_; }
  /// Zeroes bits above width_ in the top limb (canonical form).
  void normalize();
  static void checkSameWidth(const BitVector& a, const BitVector& b);
  static std::uint64_t* copyLimbs(const BitVector& o);
  static bool equalLimbs(const BitVector& a, const BitVector& b);
  void assignSlow(const BitVector& o);
  bool isZeroSlow() const;

  unsigned width_;
  union {
    std::uint64_t word_;   // width_ <= 64: the value
    std::uint64_t* heap_;  // width_ > 64: little-endian limbs
  };
};

static_assert(sizeof(BitVector) == 16, "BitVector must stay 16 bytes");

std::ostream& operator<<(std::ostream& os, const BitVector& v);

}  // namespace dfv::bv

template <>
struct std::hash<dfv::bv::BitVector> {
  std::size_t operator()(const dfv::bv::BitVector& v) const noexcept {
    return v.hash();
  }
};
