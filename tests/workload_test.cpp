// Tests for the workload generators: determinism and structural properties.

#include "workload/workload.h"

#include <gtest/gtest.h>

#include <set>

namespace dfv::workload {
namespace {

TEST(Workload, RngDeterministic) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool anyDiff = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) anyDiff = anyDiff || (a2.next() != c.next());
  EXPECT_TRUE(anyDiff);
}

TEST(Workload, RandomBitsMatchesPerBitConstruction) {
  // randomBits builds limb by limb; it must give every seed the values the
  // former bit-by-bit construction from the same words gave.
  auto perBit = [](Rng& rng, unsigned width) {
    bv::BitVector v(width);
    std::uint64_t word = 0;
    for (unsigned i = 0; i < width; ++i) {
      if (i % 64 == 0) word = rng.next();
      v.setBit(i, ((word >> (i % 64)) & 1) != 0);
    }
    return v;
  };
  for (unsigned width : {1u, 64u, 65u, 130u}) {
    Rng a(7 + width), b(7 + width);
    for (int k = 0; k < 20; ++k)
      EXPECT_EQ(randomBits(a, width), perBit(b, width)) << "width " << width;
    EXPECT_EQ(a.next(), b.next()) << "width " << width;  // same words drawn
  }
}

TEST(Workload, RngBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Workload, ImageShapeAndDeterminism) {
  const Image img = makeTestImage(32, 20, 5);
  EXPECT_EQ(img.width, 32u);
  EXPECT_EQ(img.height, 20u);
  EXPECT_EQ(img.pixels.size(), 32u * 20u);
  const Image again = makeTestImage(32, 20, 5);
  EXPECT_EQ(img.pixels, again.pixels);
  const Image other = makeTestImage(32, 20, 6);
  EXPECT_NE(img.pixels, other.pixels);
  // Not constant: the gradient guarantees variety.
  std::set<std::uint8_t> distinct(img.pixels.begin(), img.pixels.end());
  EXPECT_GT(distinct.size(), 16u);
  EXPECT_THROW(makeTestImage(2, 2, 0), CheckError);
}

TEST(Workload, SampleStreamBounds) {
  auto stream = makeSampleStream(500, 8);
  ASSERT_EQ(stream.size(), 500u);
  for (const auto& s : stream) {
    EXPECT_EQ(s.width(), 8u);
    const auto v = s.toInt64();
    EXPECT_GE(v, -128);
    EXPECT_LE(v, 127);
  }
}

TEST(Workload, MemTraceHasLocality) {
  auto trace = makeMemTrace(1000, 3);
  ASSERT_EQ(trace.size(), 1000u);
  // Count distinct cache lines (addr >> 0 within 4-byte neighborhoods):
  // with hot regions, the footprint must be far below 256.
  std::set<std::uint8_t> lines;
  std::size_t writes = 0;
  for (const auto& r : trace) {
    lines.insert(static_cast<std::uint8_t>(r.addr & 0xf8));
    writes += r.write ? 1 : 0;
  }
  EXPECT_LT(lines.size(), 120u);
  EXPECT_GT(writes, 100u);  // ~25% writes
  EXPECT_LT(writes, 500u);
}

}  // namespace
}  // namespace dfv::workload
