// Unit and property tests for dfv::bv::BitVector.
//
// The property tests compare every operation at widths <= 64 against a
// native-integer reference model (mask to width), and cross-check wide
// (multi-limb) arithmetic against identities and limb-composition.  The
// 128-bit reference sweep covers both representations (one inline limb up
// to 64 bits, heap limbs above) against unsigned __int128, and checks the
// canonical form (no bit set above the width) after every operation.

#include "bitvec/bitvector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>

namespace dfv::bv {
namespace {

std::uint64_t maskOf(unsigned w) {
  return w == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
}

std::int64_t signExtend(std::uint64_t v, unsigned w) {
  if (w < 64 && (v >> (w - 1)) & 1) v |= ~std::uint64_t{0} << w;
  return static_cast<std::int64_t>(v);
}

TEST(BitVector, DefaultIsOneBitZero) {
  BitVector v;
  EXPECT_EQ(v.width(), 1u);
  EXPECT_TRUE(v.isZero());
}

TEST(BitVector, ZeroWidthRejected) {
  EXPECT_THROW(BitVector(0), CheckError);
}

TEST(BitVector, FromUintTruncates) {
  EXPECT_EQ(BitVector::fromUint(8, 0x1ff).toUint64(), 0xffu);
  EXPECT_EQ(BitVector::fromUint(3, 9).toUint64(), 1u);
  EXPECT_EQ(BitVector::fromUint(64, ~std::uint64_t{0}).toUint64(),
            ~std::uint64_t{0});
}

TEST(BitVector, FromIntSignExtendsAcrossLimbs) {
  const BitVector v = BitVector::fromInt(100, -1);
  EXPECT_TRUE(v.isAllOnes());
  EXPECT_EQ(v.popcount(), 100u);
  const BitVector w = BitVector::fromInt(100, -2);
  EXPECT_EQ(w.popcount(), 99u);
  EXPECT_FALSE(w.bit(0));
}

TEST(BitVector, BitAccess) {
  BitVector v(130);
  v.setBit(0, true);
  v.setBit(64, true);
  v.setBit(129, true);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(64));
  EXPECT_TRUE(v.bit(129));
  EXPECT_FALSE(v.bit(1));
  EXPECT_EQ(v.popcount(), 3u);
  v.setBit(64, false);
  EXPECT_EQ(v.popcount(), 2u);
  EXPECT_THROW(v.bit(130), CheckError);
  EXPECT_THROW(v.setBit(130, true), CheckError);
}

TEST(BitVector, ToInt64) {
  EXPECT_EQ(BitVector::fromUint(8, 0xff).toInt64(), -1);
  EXPECT_EQ(BitVector::fromUint(8, 0x7f).toInt64(), 127);
  EXPECT_EQ(BitVector::fromUint(8, 0x80).toInt64(), -128);
  EXPECT_THROW(BitVector(65).toInt64(), CheckError);
}

TEST(BitVector, FromStringForms) {
  EXPECT_EQ(BitVector::fromString("8'hff"), BitVector::fromUint(8, 0xff));
  EXPECT_EQ(BitVector::fromString("4'b1010"), BitVector::fromUint(4, 10));
  EXPECT_EQ(BitVector::fromString("12'd255"), BitVector::fromUint(12, 255));
  EXPECT_EQ(BitVector::fromString("255"), BitVector::fromUint(32, 255));
  EXPECT_EQ(BitVector::fromString("16'hab_cd"), BitVector::fromUint(16, 0xabcd));
  EXPECT_THROW(BitVector::fromString("8'x12"), CheckError);
  EXPECT_THROW(BitVector::fromString("8'h"), CheckError);
  EXPECT_THROW(BitVector::fromString("4'b2"), CheckError);
  EXPECT_THROW(BitVector::fromString("0'h0"), CheckError);
}

TEST(BitVector, ToStringRoundTrip) {
  EXPECT_EQ(BitVector::fromUint(8, 0xff).toString(16), "8'hff");
  EXPECT_EQ(BitVector::fromUint(4, 10).toString(2), "4'b1010");
  EXPECT_EQ(BitVector::fromUint(12, 255).toString(10), "12'd255");
  EXPECT_EQ(BitVector::fromUint(3, 5).toString(10), "3'd5");
}

TEST(BitVector, SignedDecimalString) {
  EXPECT_EQ(BitVector::fromInt(8, -1).toSignedDecimalString(), "-1");
  EXPECT_EQ(BitVector::fromInt(8, -128).toSignedDecimalString(), "-128");
  EXPECT_EQ(BitVector::fromInt(8, 127).toSignedDecimalString(), "127");
  EXPECT_EQ(BitVector::fromInt(9, -1).toSignedDecimalString(), "-1");
}

TEST(BitVector, WidthMismatchThrows) {
  const BitVector a(8), b(9);
  EXPECT_THROW(a + b, CheckError);
  EXPECT_THROW(a & b, CheckError);
  EXPECT_THROW((void)a.ult(b), CheckError);
}

TEST(BitVector, ExtractConcat) {
  const BitVector v = BitVector::fromUint(32, 0xdeadbeef);
  EXPECT_EQ(v.extract(31, 16), BitVector::fromUint(16, 0xdead));
  EXPECT_EQ(v.extract(15, 0), BitVector::fromUint(16, 0xbeef));
  EXPECT_EQ(v.extract(23, 16), BitVector::fromUint(8, 0xad));
  EXPECT_EQ(v.extract(0, 0), BitVector::fromUint(1, 1));
  EXPECT_EQ(BitVector::concat(v.extract(31, 16), v.extract(15, 0)), v);
  EXPECT_THROW(v.extract(32, 0), CheckError);
  EXPECT_THROW(v.extract(3, 4), CheckError);
}

TEST(BitVector, ExtractAcrossLimbBoundary) {
  BitVector v(128);
  v.setBit(63, true);
  v.setBit(64, true);
  const BitVector mid = v.extract(70, 60);
  EXPECT_EQ(mid.width(), 11u);
  EXPECT_EQ(mid.toUint64(), 0b11000u);
}

TEST(BitVector, PaperFig1MaskAndShiftIdiom) {
  // The paper's §3.1.1 example: y = x & 0x00ff0000 selects bits [23:16];
  // extract() is the HDL-native way to express the same thing.
  const BitVector x = BitVector::fromUint(32, 0x12345678);
  const BitVector masked = (x & BitVector::fromUint(32, 0x00ff0000)).lshr(16);
  EXPECT_EQ(masked.trunc(8), x.extract(23, 16));
  EXPECT_EQ(x.extract(23, 16).toUint64(), 0x34u);
}

TEST(BitVector, DivisionByZeroConvention) {
  const BitVector a = BitVector::fromUint(8, 42);
  const BitVector z(8);
  EXPECT_EQ(a.udiv(z), BitVector::allOnes(8));
  EXPECT_EQ(a.urem(z), a);
}

TEST(BitVector, SignedDivisionTruncates) {
  auto sd = [](int x, int y) {
    return BitVector::fromInt(8, x).sdiv(BitVector::fromInt(8, y)).toInt64();
  };
  auto sr = [](int x, int y) {
    return BitVector::fromInt(8, x).srem(BitVector::fromInt(8, y)).toInt64();
  };
  EXPECT_EQ(sd(7, 2), 3);
  EXPECT_EQ(sd(-7, 2), -3);
  EXPECT_EQ(sd(7, -2), -3);
  EXPECT_EQ(sd(-7, -2), 3);
  EXPECT_EQ(sr(7, 2), 1);
  EXPECT_EQ(sr(-7, 2), -1);
  EXPECT_EQ(sr(7, -2), 1);
  EXPECT_EQ(sr(-7, -2), -1);
}

TEST(BitVector, NegWrapsAtMinimum) {
  const BitVector intMin = BitVector::fromInt(8, -128);
  EXPECT_EQ(intMin.neg(), intMin);  // two's-complement wrap
}

TEST(BitVector, ShiftsBeyondWidth) {
  const BitVector v = BitVector::fromInt(8, -2);
  EXPECT_TRUE(v.shl(8).isZero());
  EXPECT_TRUE(v.lshr(8).isZero());
  EXPECT_TRUE(v.ashr(8).isAllOnes());
  EXPECT_TRUE(v.ashr(100).isAllOnes());
  const BitVector pos = BitVector::fromInt(8, 2);
  EXPECT_TRUE(pos.ashr(8).isZero());
}

TEST(BitVector, ShiftByBitVectorClampsHugeAmounts) {
  const BitVector v = BitVector::allOnes(8);
  BitVector amount(128);
  amount.setBit(100, true);  // astronomically large
  EXPECT_TRUE(v.shl(amount).isZero());
  EXPECT_TRUE(v.lshr(amount).isZero());
  EXPECT_TRUE(v.ashr(amount).isAllOnes());
}

TEST(BitVector, CountLeadingZeros) {
  EXPECT_EQ(BitVector(8).countLeadingZeros(), 8u);
  EXPECT_EQ(BitVector::fromUint(8, 1).countLeadingZeros(), 7u);
  EXPECT_EQ(BitVector::fromUint(8, 0x80).countLeadingZeros(), 0u);
  BitVector wide(200);
  wide.setBit(3, true);
  EXPECT_EQ(wide.countLeadingZeros(), 196u);
}

TEST(BitVector, Reductions) {
  EXPECT_TRUE(BitVector::allOnes(5).reduceAnd());
  EXPECT_FALSE(BitVector::fromUint(5, 0x1e).reduceAnd());
  EXPECT_TRUE(BitVector::fromUint(5, 2).reduceOr());
  EXPECT_FALSE(BitVector(5).reduceOr());
  EXPECT_TRUE(BitVector::fromUint(5, 0b10110).reduceXor());
  EXPECT_FALSE(BitVector::fromUint(5, 0b10010).reduceXor());
}

TEST(BitVector, HashDistinguishesWidthAndValue) {
  EXPECT_NE(BitVector::fromUint(8, 1).hash(), BitVector::fromUint(9, 1).hash());
  EXPECT_NE(BitVector::fromUint(8, 1).hash(), BitVector::fromUint(8, 2).hash());
  EXPECT_EQ(BitVector::fromUint(8, 1).hash(), BitVector::fromUint(8, 1).hash());
}

// ---------------------------------------------------------------------------
// Property tests vs a native reference model at widths <= 64.
// ---------------------------------------------------------------------------

class BitVectorProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorProperty, ArithmeticMatchesNativeReference) {
  const unsigned w = GetParam();
  std::mt19937_64 rng(0xdf5 + w);
  for (int iter = 0; iter < 500; ++iter) {
    const std::uint64_t ra = rng() & maskOf(w);
    const std::uint64_t rb = rng() & maskOf(w);
    const BitVector a = BitVector::fromUint(w, ra);
    const BitVector b = BitVector::fromUint(w, rb);
    EXPECT_EQ((a + b).toUint64(), (ra + rb) & maskOf(w));
    EXPECT_EQ((a - b).toUint64(), (ra - rb) & maskOf(w));
    EXPECT_EQ((a * b).toUint64(), (ra * rb) & maskOf(w));
    EXPECT_EQ((a & b).toUint64(), ra & rb);
    EXPECT_EQ((a | b).toUint64(), ra | rb);
    EXPECT_EQ((a ^ b).toUint64(), ra ^ rb);
    EXPECT_EQ((~a).toUint64(), ~ra & maskOf(w));
    EXPECT_EQ(a.neg().toUint64(), (0 - ra) & maskOf(w));
    EXPECT_EQ(a.ult(b), ra < rb);
    EXPECT_EQ(a.ule(b), ra <= rb);
    EXPECT_EQ(a.slt(b), signExtend(ra, w) < signExtend(rb, w));
    EXPECT_EQ(a.sle(b), signExtend(ra, w) <= signExtend(rb, w));
    if (rb != 0) {
      EXPECT_EQ(a.udiv(b).toUint64(), ra / rb);
      EXPECT_EQ(a.urem(b).toUint64(), ra % rb);
    }
    const unsigned sh = static_cast<unsigned>(rng() % (w + 2));
    EXPECT_EQ(a.shl(sh).toUint64(), sh >= w ? 0 : (ra << sh) & maskOf(w));
    EXPECT_EQ(a.lshr(sh).toUint64(), sh >= w ? 0 : ra >> sh);
    const std::int64_t sa = signExtend(ra, w);
    const std::int64_t expAshr = sh >= w ? (sa < 0 ? -1 : 0) : (sa >> sh);
    EXPECT_EQ(a.ashr(sh).toInt64(), signExtend(
        static_cast<std::uint64_t>(expAshr) & maskOf(w), w));
  }
}

TEST_P(BitVectorProperty, SignedDivisionMatchesNativeReference) {
  const unsigned w = GetParam();
  if (w < 2) return;  // signed div on 1-bit values is degenerate
  std::mt19937_64 rng(0x5d1 + w);
  for (int iter = 0; iter < 300; ++iter) {
    const std::uint64_t ra = rng() & maskOf(w);
    const std::uint64_t rb = rng() & maskOf(w);
    if (rb == 0) continue;
    const std::int64_t sa = signExtend(ra, w), sb = signExtend(rb, w);
    if (sa == signExtend(std::uint64_t{1} << (w - 1), w) && sb == -1)
      continue;  // native UB; BitVector wraps (covered in NegWrapsAtMinimum)
    const BitVector a = BitVector::fromUint(w, ra);
    const BitVector b = BitVector::fromUint(w, rb);
    EXPECT_EQ(a.sdiv(b).toInt64(), signExtend(
        static_cast<std::uint64_t>(sa / sb) & maskOf(w), w));
    EXPECT_EQ(a.srem(b).toInt64(), signExtend(
        static_cast<std::uint64_t>(sa % sb) & maskOf(w), w));
  }
}

TEST_P(BitVectorProperty, ResizeRoundTrips) {
  const unsigned w = GetParam();
  std::mt19937_64 rng(0x7e5 + w);
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t ra = rng() & maskOf(w);
    const BitVector a = BitVector::fromUint(w, ra);
    EXPECT_EQ(a.zext(w + 37).trunc(w), a);
    EXPECT_EQ(a.sext(w + 37).trunc(w), a);
    EXPECT_EQ(a.zext(w + 100).toUint64(), w <= 64 ? ra : a.toUint64());
    if (w <= 63) {
      EXPECT_EQ(a.sext(64).toInt64(), signExtend(ra, w));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 8u, 16u, 31u, 32u,
                                           33u, 48u, 63u, 64u));

// Multi-limb properties via algebraic identities (no native reference exists).
class BitVectorWideProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorWideProperty, AlgebraicIdentities) {
  const unsigned w = GetParam();
  std::mt19937_64 rng(0xa11 + w);
  auto randomBv = [&] {
    BitVector v(w);
    for (unsigned i = 0; i < w; ++i)
      if (rng() & 1) v.setBit(i, true);
    return v;
  };
  for (int iter = 0; iter < 100; ++iter) {
    const BitVector a = randomBv(), b = randomBv(), c = randomBv();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));  // same width: associativity holds
    EXPECT_EQ(a - a, BitVector(w));
    EXPECT_EQ(a + a.neg(), BitVector(w));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a ^ b) ^ b, a);
    EXPECT_EQ(~(a & b), ~a | ~b);
    if (!b.isZero()) {
      // Division identity: a = q*b + r with r < b.
      const BitVector q = a.udiv(b), r = a.urem(b);
      EXPECT_TRUE(r.ult(b));
      EXPECT_EQ(q * b + r, a);
    }
    // Shifting composes.
    EXPECT_EQ(a.shl(3).shl(4), a.shl(7));
    EXPECT_EQ(a.lshr(5).lshr(6), a.lshr(11));
    // Concat/extract round-trip.
    EXPECT_EQ(BitVector::concat(a.extract(w - 1, w / 2),
                                a.extract(w / 2 - 1, 0)),
              a);
  }
}

TEST_P(BitVectorWideProperty, MulFullComposesFromLimbs) {
  const unsigned w = GetParam();
  std::mt19937_64 rng(0xf00 + w);
  for (int iter = 0; iter < 50; ++iter) {
    const std::uint64_t ra = rng(), rb = rng();
    const BitVector a = BitVector::fromUint(64, ra);
    const BitVector b = BitVector::fromUint(64, rb);
    const BitVector p = a.mulFull(b);
    ASSERT_EQ(p.width(), 128u);
    // Check against 128-bit reference via __int128.
    const unsigned __int128 ref =
        static_cast<unsigned __int128>(ra) * static_cast<unsigned __int128>(rb);
    EXPECT_EQ(p.extract(63, 0).toUint64(),
              static_cast<std::uint64_t>(ref));
    EXPECT_EQ(p.extract(127, 64).toUint64(),
              static_cast<std::uint64_t>(ref >> 64));
    // Signed full multiply vs sign-extended unsigned full multiply.
    const BitVector sp = a.smulFull(b);
    EXPECT_EQ(sp, (a.sext(128) * b.sext(128)));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorWideProperty,
                         ::testing::Values(65u, 96u, 128u, 200u, 257u));

// ---------------------------------------------------------------------------
// Every op at widths 1..128 vs an unsigned __int128 reference model.
// ---------------------------------------------------------------------------

using U128 = unsigned __int128;
using I128 = __int128;

U128 mask128(unsigned w) { return w == 128 ? ~U128{0} : (U128{1} << w) - 1; }

I128 signed128(U128 v, unsigned w) {
  const unsigned s = 128 - w;
  return static_cast<I128>(v << s) >> s;
}

// Built and read bit by bit, so the reference never goes through the limb
// code under test.
BitVector fromU128(unsigned w, U128 v) {
  BitVector r(w);
  for (unsigned i = 0; i < w; ++i)
    if ((v >> i) & 1) r.setBit(i, true);
  return r;
}

U128 toU128(const BitVector& v) {
  U128 r = 0;
  for (unsigned i = 0; i < v.width(); ++i)
    if (v.bit(i)) r |= U128{1} << i;
  return r;
}

// Width, value and canonical form: popcount() counts every stored bit, so a
// bit left set above the width shows up as a mismatch with bit().
::testing::AssertionResult holds(const BitVector& got, unsigned w, U128 want) {
  if (got.width() != w)
    return ::testing::AssertionFailure() << "width " << got.width();
  unsigned bits = 0;
  for (unsigned i = 0; i < w; ++i) bits += got.bit(i) ? 1 : 0;
  if (got.popcount() != bits)
    return ::testing::AssertionFailure() << "bits set above width " << w;
  if (toU128(got) != (want & mask128(w)) ||
      got != fromU128(w, want & mask128(w)))
    return ::testing::AssertionFailure() << "value " << got;
  return ::testing::AssertionSuccess();
}

class BitVectorReference : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorReference, EveryOpMatchesInt128) {
  const unsigned w = GetParam();
  const U128 m = mask128(w);
  std::mt19937_64 rng(0x128 + w);
  auto random = [&] { return ((U128{rng()} << 64) | rng()) & m; };
  const U128 minSigned = U128{1} << (w - 1);
  const U128 corners[] = {0, 1, m, minSigned, minSigned - 1, m - 1};
  for (int iter = 0; iter < 300; ++iter) {
    const U128 ra = iter < 36 ? corners[iter % 6] : random();
    const U128 rb = iter < 36 ? corners[iter / 6] & m : random();
    const BitVector a = fromU128(w, ra), b = fromU128(w, rb);
    const I128 sa = signed128(ra, w), sb = signed128(rb, w);
    SCOPED_TRACE(::testing::Message() << "w=" << w << " a=" << a << " b=" << b);

    EXPECT_TRUE(holds(a + b, w, ra + rb));
    EXPECT_TRUE(holds(a - b, w, ra - rb));
    EXPECT_TRUE(holds(a * b, w, ra * rb));
    EXPECT_TRUE(holds(a.neg(), w, 0 - ra));
    EXPECT_TRUE(holds(~a, w, ~ra));
    EXPECT_TRUE(holds(a & b, w, ra & rb));
    EXPECT_TRUE(holds(a | b, w, ra | rb));
    EXPECT_TRUE(holds(a ^ b, w, ra ^ rb));

    // Division totalized SMT-LIB style: x/0 = all ones, x%0 = x, and the
    // signed forms take the magnitudes' result with the operand signs.
    EXPECT_TRUE(holds(a.udiv(b), w, rb == 0 ? m : ra / rb));
    EXPECT_TRUE(holds(a.urem(b), w, rb == 0 ? ra : ra % rb));
    U128 sdiv, srem;
    if (rb == 0) {
      sdiv = sa < 0 ? 1 : m;
      srem = ra;
    } else if (w == 128 && ra == minSigned && rb == m) {
      sdiv = ra;  // INT_MIN / -1 wraps
      srem = 0;
    } else {
      sdiv = static_cast<U128>(sa / sb);
      srem = static_cast<U128>(sa % sb);
    }
    EXPECT_TRUE(holds(a.sdiv(b), w, sdiv));
    EXPECT_TRUE(holds(a.srem(b), w, srem));

    // Shifts by amounts below, at and above the width, as unsigned and as
    // same-width bit-vector amounts.
    const unsigned amounts[] = {0, static_cast<unsigned>(rng() % w), w - 1, w,
                                w + 1, 1000};
    for (unsigned amt : amounts) {
      SCOPED_TRACE(::testing::Message() << "shift " << amt);
      const U128 shl = amt >= w ? 0 : ra << amt;
      const U128 lshr = amt >= w ? 0 : ra >> amt;
      const U128 ashr = static_cast<U128>(amt >= w ? (sa < 0 ? -1 : 0)
                                                   : sa >> amt);
      EXPECT_TRUE(holds(a.shl(amt), w, shl));
      EXPECT_TRUE(holds(a.lshr(amt), w, lshr));
      EXPECT_TRUE(holds(a.ashr(amt), w, ashr));
      if (amt <= m) {
        const BitVector amtBv = fromU128(w, amt);
        EXPECT_TRUE(holds(a.shl(amtBv), w, shl));
        EXPECT_TRUE(holds(a.lshr(amtBv), w, lshr));
        EXPECT_TRUE(holds(a.ashr(amtBv), w, ashr));
      }
    }

    EXPECT_EQ(a == b, ra == rb);
    EXPECT_EQ(a != b, ra != rb);
    EXPECT_EQ(a.ult(b), ra < rb);
    EXPECT_EQ(a.ule(b), ra <= rb);
    EXPECT_EQ(a.slt(b), sa < sb);
    EXPECT_EQ(a.sle(b), sa <= sb);
    EXPECT_EQ(a.isZero(), ra == 0);
    EXPECT_EQ(a.isAllOnes(), ra == m);

    // Width changes, within the 128-bit reference.
    const unsigned wider = w + static_cast<unsigned>(rng() % (129 - w));
    EXPECT_TRUE(holds(a.zext(wider), wider, ra));
    EXPECT_TRUE(holds(a.sext(wider), wider, static_cast<U128>(sa)));
    const unsigned narrower = 1 + static_cast<unsigned>(rng() % w);
    EXPECT_TRUE(holds(a.trunc(narrower), narrower, ra));
    const unsigned lo = static_cast<unsigned>(rng() % w);
    const unsigned hi = lo + static_cast<unsigned>(rng() % (w - lo));
    EXPECT_TRUE(holds(a.extract(hi, lo), hi - lo + 1, ra >> lo));
    if (w < 128) {
      const unsigned wc = 1 + static_cast<unsigned>(rng() % (128 - w));
      const U128 rc = random() & mask128(wc);
      EXPECT_TRUE(holds(BitVector::concat(a, fromU128(wc, rc)), w + wc,
                        (ra << wc) | rc));
      EXPECT_TRUE(holds(BitVector::concat(fromU128(wc, rc), a), w + wc,
                        (rc << w) | ra));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorReference,
                         ::testing::Values(1u, 7u, 8u, 31u, 32u, 33u, 63u, 64u,
                                           65u, 100u, 127u, 128u));

// Copy, move and self-assignment across the inline/heap boundary (the ci
// preset runs this under ASan, which catches a leaked or doubly freed limb
// buffer).
TEST(BitVector, CopyMoveAndSelfAssignAcrossRepresentations) {
  std::mt19937_64 rng(0xc0b);
  const unsigned widths[] = {1, 8, 64, 65, 128, 200};
  auto random = [&](unsigned w) {
    BitVector v(w);
    for (unsigned i = 0; i < w; ++i)
      if (rng() & 1) v.setBit(i, true);
    return v;
  };
  for (unsigned wa : widths) {
    for (unsigned wb : widths) {
      SCOPED_TRACE(::testing::Message() << wa << " <-> " << wb);
      const BitVector a = random(wa), b = random(wb);
      BitVector c = a;  // copy construct
      EXPECT_EQ(c, a);
      c = b;  // copy assign across representations
      EXPECT_EQ(c, b);
      c = a;
      EXPECT_EQ(c, a);
      BitVector& alias = c;
      c = alias;  // self copy-assign
      EXPECT_EQ(c, a);
      c = std::move(alias);  // self move-assign
      EXPECT_EQ(c, a);
      BitVector d = std::move(c);  // move construct
      EXPECT_EQ(d, a);
      EXPECT_EQ(c, BitVector());  // moved-from: a 1-bit zero
      BitVector e = b;
      d = std::move(e);  // move assign across representations
      EXPECT_EQ(d, b);
      EXPECT_EQ(e, BitVector());
      e = d;  // a moved-from value is assignable
      EXPECT_EQ(e, b);
      EXPECT_EQ(e.hash(), b.hash());
    }
  }
}

}  // namespace
}  // namespace dfv::bv
