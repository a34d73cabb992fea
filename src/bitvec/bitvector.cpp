#include "bitvec/bitvector.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <ostream>

namespace dfv::bv {

namespace {
constexpr std::uint64_t kAll = ~std::uint64_t{0};

/// The low `w` bits set, 1 <= w <= 64.
constexpr std::uint64_t maskOf(unsigned w) { return kAll >> (64 - w); }

/// `v`'s low `w` bits sign-extended to 64, 1 <= w <= 64.
constexpr std::int64_t signedOf(std::uint64_t v, unsigned w) {
  const unsigned s = 64 - w;
  return static_cast<std::int64_t>(v << s) >> s;
}

/// The 64 bits of `limbs` (n limbs) starting at bit `pos`; zeros past the end.
std::uint64_t bitsAt(const std::uint64_t* limbs, unsigned n, unsigned pos) {
  const unsigned w = pos / 64, b = pos % 64;
  if (w >= n) return 0;
  std::uint64_t v = limbs[w] >> b;
  if (b != 0 && w + 1 < n) v |= limbs[w + 1] << (64 - b);
  return v;
}
}  // namespace

void BitVector::normalize() {
  const unsigned rem = width_ % 64;
  if (rem != 0) limbs()[numWords() - 1] &= kAll >> (64 - rem);
}

void BitVector::checkSameWidth(const BitVector& a, const BitVector& b) {
  DFV_CHECK_MSG(a.width_ == b.width_, "width mismatch: " << a.width_ << " vs "
                                                         << b.width_);
}

std::uint64_t* BitVector::copyLimbs(const BitVector& o) {
  auto* p = new std::uint64_t[o.numWords()];
  std::memcpy(p, o.heap_, o.numWords() * sizeof(std::uint64_t));
  return p;
}

bool BitVector::equalLimbs(const BitVector& a, const BitVector& b) {
  return std::equal(a.heap_, a.heap_ + a.numWords(), b.heap_);
}

void BitVector::assignSlow(const BitVector& o) {
  // Reuse the heap limbs when the limb count matches (wide nets re-assigned
  // every cycle keep their buffer).
  if (!isInline() && !o.isInline() && numWords() == o.numWords()) {
    width_ = o.width_;
    std::memcpy(heap_, o.heap_, numWords() * sizeof(std::uint64_t));
    return;
  }
  if (!isInline()) delete[] heap_;
  width_ = o.width_;
  if (o.isInline())
    word_ = o.word_;
  else
    heap_ = copyLimbs(o);
}

bool BitVector::isZeroSlow() const {
  return std::all_of(heap_, heap_ + numWords(),
                     [](std::uint64_t w) { return w == 0; });
}

BitVector BitVector::fromUint(unsigned width, std::uint64_t v) {
  BitVector r(width);
  r.limbs()[0] = v;
  r.normalize();
  return r;
}

BitVector BitVector::fromInt(unsigned width, std::int64_t v) {
  BitVector r(width);
  std::uint64_t* l = r.limbs();
  for (unsigned w = 0; w < r.numWords(); ++w)
    l[w] = (w == 0) ? static_cast<std::uint64_t>(v) : (v < 0 ? kAll : 0);
  r.normalize();
  return r;
}

BitVector BitVector::allOnes(unsigned width) {
  BitVector r(width);
  std::fill_n(r.limbs(), r.numWords(), kAll);
  r.normalize();
  return r;
}

BitVector BitVector::fromString(std::string_view text) {
  // Forms: <width>'<base><digits> with base in {b,d,h}, or plain decimal.
  const auto tick = text.find('\'');
  unsigned width = 32;
  unsigned base = 10;
  std::string_view digits = text;
  if (tick != std::string_view::npos) {
    DFV_CHECK_MSG(tick > 0 && tick + 1 < text.size(),
                  "malformed literal '" << std::string(text) << "'");
    width = 0;
    for (char c : text.substr(0, tick)) {
      DFV_CHECK_MSG(c >= '0' && c <= '9',
                    "bad width in literal '" << std::string(text) << "'");
      width = width * 10 + static_cast<unsigned>(c - '0');
    }
    DFV_CHECK_MSG(width >= 1, "zero width literal '" << std::string(text) << "'");
    const char bc = text[tick + 1];
    switch (bc) {
      case 'b': case 'B': base = 2; break;
      case 'd': case 'D': base = 10; break;
      case 'h': case 'H': base = 16; break;
      default:
        DFV_UNREACHABLE("bad base char '" << bc << "' in literal");
    }
    digits = text.substr(tick + 2);
  }
  DFV_CHECK_MSG(!digits.empty(), "empty digits in literal '"
                                     << std::string(text) << "'");
  BitVector r(width);
  const BitVector baseBv = BitVector::fromUint(width, base);
  for (char c : digits) {
    if (c == '_') continue;
    unsigned d;
    if (c >= '0' && c <= '9')
      d = static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f')
      d = static_cast<unsigned>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F')
      d = static_cast<unsigned>(c - 'A') + 10;
    else
      DFV_UNREACHABLE("bad digit '" << c << "' in literal");
    DFV_CHECK_MSG(d < base, "digit '" << c << "' out of range for base "
                                      << base);
    r = r * baseBv + BitVector::fromUint(width, d);
  }
  return r;
}

bool BitVector::isAllOnes() const {
  const std::uint64_t* l = limbs();
  const unsigned nw = numWords();
  for (unsigned i = 0; i + 1 < nw; ++i)
    if (l[i] != kAll) return false;
  const unsigned rem = width_ % 64;
  return l[nw - 1] == (rem == 0 ? kAll : maskOf(rem));
}

std::int64_t BitVector::toInt64() const {
  DFV_CHECK_MSG(width_ <= 64, "toInt64 on width " << width_);
  return signedOf(word_, width_);
}

unsigned BitVector::popcount() const {
  const std::uint64_t* l = limbs();
  unsigned n = 0;
  for (unsigned i = 0; i < numWords(); ++i)
    n += static_cast<unsigned>(std::popcount(l[i]));
  return n;
}

unsigned BitVector::countLeadingZeros() const {
  const std::uint64_t* l = limbs();
  for (unsigned i = numWords(); i-- > 0;)
    if (l[i] != 0)
      return width_ - 64 * (i + 1) +
             static_cast<unsigned>(std::countl_zero(l[i]));
  return width_;
}

BitVector BitVector::zext(unsigned newWidth) const {
  DFV_CHECK_MSG(newWidth >= width_, "zext to narrower width");
  BitVector r(newWidth);
  std::copy_n(limbs(), numWords(), r.limbs());
  return r;
}

BitVector BitVector::sext(unsigned newWidth) const {
  DFV_CHECK_MSG(newWidth >= width_, "sext to narrower width");
  BitVector r(newWidth);
  if (newWidth <= 64) {
    r.word_ = static_cast<std::uint64_t>(signedOf(word_, width_)) &
              maskOf(newWidth);
    return r;
  }
  std::uint64_t* l = r.limbs();
  std::copy_n(limbs(), numWords(), l);
  if (msb()) {
    // Fill from bit width_ up: the rest of the top source limb, then whole
    // limbs.
    const unsigned top = numWords() - 1, rem = width_ % 64;
    if (rem != 0) l[top] |= kAll << rem;
    std::fill(l + top + 1, l + r.numWords(), kAll);
    r.normalize();
  }
  return r;
}

BitVector BitVector::trunc(unsigned newWidth) const {
  DFV_CHECK_MSG(newWidth <= width_ && newWidth >= 1,
                "trunc " << width_ << " -> " << newWidth);
  BitVector r(newWidth);
  std::copy_n(limbs(), r.numWords(), r.limbs());
  r.normalize();
  return r;
}

BitVector BitVector::resize(unsigned newWidth, bool asSigned) const {
  if (newWidth <= width_) return trunc(newWidth);
  return asSigned ? sext(newWidth) : zext(newWidth);
}

BitVector BitVector::extract(unsigned hi, unsigned lo) const {
  DFV_CHECK_MSG(hi < width_ && lo <= hi,
                "extract [" << hi << ':' << lo << "] of width " << width_);
  BitVector r(hi - lo + 1);
  if (isInline()) {
    r.word_ = (word_ >> lo) & maskOf(r.width_);
    return r;
  }
  std::uint64_t* l = r.limbs();
  for (unsigned i = 0; i < r.numWords(); ++i)
    l[i] = bitsAt(heap_, numWords(), lo + 64 * i);
  r.normalize();
  return r;
}

BitVector BitVector::concat(const BitVector& hi, const BitVector& lo) {
  BitVector r(lo.width_ + hi.width_);
  if (r.isInline()) {
    r.word_ = (hi.word_ << lo.width_) | lo.word_;
    return r;
  }
  std::uint64_t* l = r.limbs();
  std::copy_n(lo.limbs(), lo.numWords(), l);
  // Place hi's limbs at bit offset lo.width_.
  const unsigned w0 = lo.width_ / 64, b = lo.width_ % 64;
  const std::uint64_t* h = hi.limbs();
  for (unsigned j = 0; j < hi.numWords(); ++j) {
    l[w0 + j] |= h[j] << b;
    if (b != 0 && w0 + j + 1 < r.numWords()) l[w0 + j + 1] |= h[j] >> (64 - b);
  }
  return r;
}

BitVector BitVector::operator~() const {
  BitVector r(width_);
  const std::uint64_t* a = limbs();
  std::uint64_t* l = r.limbs();
  for (unsigned i = 0; i < numWords(); ++i) l[i] = ~a[i];
  r.normalize();
  return r;
}

BitVector operator&(const BitVector& a, const BitVector& b) {
  BitVector::checkSameWidth(a, b);
  BitVector r(a.width_);
  const std::uint64_t *x = a.limbs(), *y = b.limbs();
  std::uint64_t* l = r.limbs();
  for (unsigned i = 0; i < r.numWords(); ++i) l[i] = x[i] & y[i];
  return r;
}

BitVector operator|(const BitVector& a, const BitVector& b) {
  BitVector::checkSameWidth(a, b);
  BitVector r(a.width_);
  const std::uint64_t *x = a.limbs(), *y = b.limbs();
  std::uint64_t* l = r.limbs();
  for (unsigned i = 0; i < r.numWords(); ++i) l[i] = x[i] | y[i];
  return r;
}

BitVector operator^(const BitVector& a, const BitVector& b) {
  BitVector::checkSameWidth(a, b);
  BitVector r(a.width_);
  const std::uint64_t *x = a.limbs(), *y = b.limbs();
  std::uint64_t* l = r.limbs();
  for (unsigned i = 0; i < r.numWords(); ++i) l[i] = x[i] ^ y[i];
  return r;
}

namespace {
/// r = x + y + carry over n limbs (r may alias x or y).
void addLimbs(std::uint64_t* r, const std::uint64_t* x, const std::uint64_t* y,
              unsigned n, std::uint64_t carry, bool invertY) {
  for (unsigned i = 0; i < n; ++i) {
    const std::uint64_t yi = invertY ? ~y[i] : y[i];
    const std::uint64_t s1 = x[i] + carry;
    const std::uint64_t c1 = s1 < carry ? 1u : 0u;
    const std::uint64_t s2 = s1 + yi;
    const std::uint64_t c2 = s2 < s1 ? 1u : 0u;
    r[i] = s2;
    carry = c1 | c2;
  }
}
}  // namespace

BitVector operator+(const BitVector& a, const BitVector& b) {
  BitVector::checkSameWidth(a, b);
  BitVector r(a.width_);
  if (r.isInline()) {
    r.word_ = (a.word_ + b.word_) & maskOf(r.width_);
    return r;
  }
  addLimbs(r.heap_, a.heap_, b.heap_, r.numWords(), 0, false);
  r.normalize();
  return r;
}

BitVector operator-(const BitVector& a, const BitVector& b) {
  BitVector::checkSameWidth(a, b);
  BitVector r(a.width_);
  if (r.isInline()) {
    r.word_ = (a.word_ - b.word_) & maskOf(r.width_);
    return r;
  }
  addLimbs(r.heap_, a.heap_, b.heap_, r.numWords(), 1, true);  // a + ~b + 1
  r.normalize();
  return r;
}

BitVector BitVector::neg() const {
  BitVector r(width_);
  if (isInline()) {
    r.word_ = (0 - word_) & maskOf(width_);
    return r;
  }
  // 0 + ~a + 1 over the (all-zero) result limbs.
  addLimbs(r.heap_, r.heap_, heap_, numWords(), 1, true);
  r.normalize();
  return r;
}

BitVector operator*(const BitVector& a, const BitVector& b) {
  BitVector::checkSameWidth(a, b);
  BitVector r(a.width_);
  if (r.isInline()) {
    r.word_ = (a.word_ * b.word_) & maskOf(r.width_);
    return r;
  }
  // Schoolbook multiply over 64-bit limbs, truncated to operand width.
  const unsigned nw = r.numWords();
  for (unsigned i = 0; i < nw; ++i) {
    unsigned __int128 carry = 0;
    for (unsigned j = 0; i + j < nw; ++j) {
      const unsigned __int128 t =
          static_cast<unsigned __int128>(a.heap_[i]) * b.heap_[j] +
          r.heap_[i + j] + carry;
      r.heap_[i + j] = static_cast<std::uint64_t>(t);
      carry = t >> 64;
    }
  }
  r.normalize();
  return r;
}

BitVector BitVector::addFull(const BitVector& b) const {
  const unsigned w = std::max(width_, b.width_) + 1;
  return zext(w) + b.zext(w);
}

BitVector BitVector::mulFull(const BitVector& b) const {
  const unsigned w = width_ + b.width_;
  return zext(w) * b.zext(w);
}

BitVector BitVector::smulFull(const BitVector& b) const {
  const unsigned w = width_ + b.width_;
  return sext(w) * b.sext(w);
}

BitVector BitVector::udiv(const BitVector& b) const {
  checkSameWidth(*this, b);
  if (isInline())
    return fromUint(width_, b.word_ == 0 ? kAll : word_ / b.word_);
  if (b.isZero()) return allOnes(width_);
  // Restoring long division, bit-serial MSB-first.
  BitVector q(width_);
  BitVector rem(width_);
  for (unsigned i = width_; i-- > 0;) {
    rem = rem.shl(1);
    rem.setBit(0, bit(i));
    if (!rem.ult(b)) {
      rem = rem - b;
      q.setBit(i, true);
    }
  }
  return q;
}

BitVector BitVector::urem(const BitVector& b) const {
  checkSameWidth(*this, b);
  if (isInline())
    return fromUint(width_, b.word_ == 0 ? word_ : word_ % b.word_);
  if (b.isZero()) return *this;
  return *this - udiv(b) * b;
}

BitVector BitVector::sdiv(const BitVector& b) const {
  checkSameWidth(*this, b);
  const bool na = msb(), nb = b.msb();
  if (isInline()) {
    // Magnitudes as unsigned, so INT_MIN / -1 wraps instead of trapping.
    const std::uint64_t m = maskOf(width_);
    const std::uint64_t ua = na ? (0 - word_) & m : word_;
    const std::uint64_t ub = nb ? (0 - b.word_) & m : b.word_;
    const std::uint64_t uq = ub == 0 ? m : ua / ub;
    return fromUint(width_, na != nb ? 0 - uq : uq);
  }
  const BitVector ua = na ? neg() : *this;
  const BitVector ub = nb ? b.neg() : b;
  const BitVector uq = ua.udiv(ub);
  return (na != nb) ? uq.neg() : uq;
}

BitVector BitVector::srem(const BitVector& b) const {
  checkSameWidth(*this, b);
  const bool na = msb();
  if (isInline()) {
    const std::uint64_t m = maskOf(width_);
    const std::uint64_t ua = na ? (0 - word_) & m : word_;
    const std::uint64_t ub = b.msb() ? (0 - b.word_) & m : b.word_;
    const std::uint64_t ur = ub == 0 ? ua : ua % ub;
    return fromUint(width_, na ? 0 - ur : ur);
  }
  const BitVector ua = na ? neg() : *this;
  const BitVector ub = b.msb() ? b.neg() : b;
  const BitVector ur = ua.urem(ub);
  return na ? ur.neg() : ur;
}

BitVector BitVector::shl(unsigned amount) const {
  BitVector r(width_);
  if (amount >= width_) return r;
  if (isInline()) {
    r.word_ = (word_ << amount) & maskOf(width_);
    return r;
  }
  const unsigned wordShift = amount / 64, bitShift = amount % 64;
  for (unsigned i = numWords(); i-- > wordShift;) {
    std::uint64_t v = heap_[i - wordShift] << bitShift;
    if (bitShift != 0 && i > wordShift)
      v |= heap_[i - wordShift - 1] >> (64 - bitShift);
    r.heap_[i] = v;
  }
  r.normalize();
  return r;
}

BitVector BitVector::lshr(unsigned amount) const {
  BitVector r(width_);
  if (amount >= width_) return r;
  if (isInline()) {
    r.word_ = word_ >> amount;
    return r;
  }
  for (unsigned i = 0; i < numWords(); ++i)
    r.heap_[i] = bitsAt(heap_, numWords(), amount + 64 * i);
  return r;
}

BitVector BitVector::ashr(unsigned amount) const {
  const bool sign = msb();
  if (amount >= width_)
    return sign ? allOnes(width_) : BitVector(width_);
  if (isInline())
    return fromUint(width_, static_cast<std::uint64_t>(
                                signedOf(word_, width_) >> amount));
  BitVector r = lshr(amount);
  if (sign)
    for (unsigned i = width_ - amount; i < width_; ++i) r.setBit(i, true);
  return r;
}

namespace {
// Shift amount as a clamped unsigned; anything >= width saturates.
unsigned clampShift(const BitVector& amount, unsigned width) {
  for (unsigned i = 64; i < amount.width(); ++i)
    if (amount.bit(i)) return width;
  const std::uint64_t v = amount.toUint64();
  return v >= width ? width : static_cast<unsigned>(v);
}
}  // namespace

BitVector BitVector::shl(const BitVector& amount) const {
  return shl(clampShift(amount, width_));
}
BitVector BitVector::lshr(const BitVector& amount) const {
  return lshr(clampShift(amount, width_));
}
BitVector BitVector::ashr(const BitVector& amount) const {
  return ashr(clampShift(amount, width_));
}

bool BitVector::ult(const BitVector& b) const {
  checkSameWidth(*this, b);
  const std::uint64_t *x = limbs(), *y = b.limbs();
  for (unsigned i = numWords(); i-- > 0;)
    if (x[i] != y[i]) return x[i] < y[i];
  return false;
}

bool BitVector::ule(const BitVector& b) const { return !b.ult(*this); }

bool BitVector::slt(const BitVector& b) const {
  checkSameWidth(*this, b);
  if (msb() != b.msb()) return msb();
  return ult(b);
}

bool BitVector::sle(const BitVector& b) const { return !b.slt(*this); }

std::string BitVector::toString(unsigned base) const {
  std::string out = std::to_string(width_) + "'";
  switch (base) {
    case 2: {
      out += 'b';
      for (unsigned i = width_; i-- > 0;) out += bit(i) ? '1' : '0';
      return out;
    }
    case 16: {
      out += 'h';
      const unsigned digits = (width_ + 3) / 4;
      for (unsigned d = digits; d-- > 0;) {
        unsigned nib = 0;
        for (unsigned b2 = 0; b2 < 4; ++b2) {
          const unsigned i = d * 4 + b2;
          if (i < width_ && bit(i)) nib |= 1u << b2;
        }
        out += "0123456789abcdef"[nib];
      }
      return out;
    }
    case 10: {
      out += 'd';
      if (width_ < 4) {  // value fits trivially; 10 is not representable
        out += std::to_string(toUint64());
        return out;
      }
      // Repeated division by 10.
      BitVector v = *this;
      const BitVector ten = BitVector::fromUint(width_, 10);
      std::string rev;
      if (v.isZero()) rev = "0";
      while (!v.isZero()) {
        const BitVector q = v.udiv(ten);
        const BitVector r = v - q * ten;
        rev += static_cast<char>('0' + r.toUint64());
        v = q;
      }
      out.append(rev.rbegin(), rev.rend());
      return out;
    }
    default:
      DFV_UNREACHABLE("unsupported base " << base);
  }
}

std::string BitVector::toSignedDecimalString() const {
  if (!msb()) {
    BitVector v = zext(width_ + 1);
    std::string s = v.toString(10);
    return s.substr(s.find('d') + 1);
  }
  BitVector mag = neg().zext(width_ + 1);
  std::string s = mag.toString(10);
  return "-" + s.substr(s.find('d') + 1);
}

std::size_t BitVector::hash() const {
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(width_);
  const std::uint64_t* l = limbs();
  for (unsigned i = 0; i < numWords(); ++i) mix(l[i]);
  return h;
}

std::ostream& operator<<(std::ostream& os, const BitVector& v) {
  return os << v.toString(16);
}

}  // namespace dfv::bv
