#include "workload/workload.h"

#include <algorithm>

namespace dfv::workload {

Image makeTestImage(unsigned width, unsigned height, std::uint64_t seed) {
  DFV_CHECK_MSG(width >= 4 && height >= 4, "image too small");
  Rng rng(seed);
  Image img;
  img.width = width;
  img.height = height;
  img.pixels.assign(static_cast<std::size_t>(width) * height, 0);
  // Diagonal gradient base.
  for (unsigned y = 0; y < height; ++y)
    for (unsigned x = 0; x < width; ++x)
      img.at(x, y) = static_cast<std::uint8_t>((x * 255 / width +
                                                y * 255 / height) /
                                               2);
  // A few solid rectangles (edges for the convolution to find).
  const unsigned rects = 3 + static_cast<unsigned>(rng.below(3));
  for (unsigned r = 0; r < rects; ++r) {
    const unsigned rx = static_cast<unsigned>(rng.below(width - 2));
    const unsigned ry = static_cast<unsigned>(rng.below(height - 2));
    const unsigned rw = 1 + static_cast<unsigned>(rng.below(width - rx - 1));
    const unsigned rh = 1 + static_cast<unsigned>(rng.below(height - ry - 1));
    const auto value = static_cast<std::uint8_t>(rng.next());
    for (unsigned y = ry; y < std::min(height, ry + rh); ++y)
      for (unsigned x = rx; x < std::min(width, rx + rw); ++x)
        img.at(x, y) = value;
  }
  // Sparse impulse noise.
  const std::size_t impulses = img.pixels.size() / 50;
  for (std::size_t i = 0; i < impulses; ++i)
    img.pixels[rng.below(img.pixels.size())] =
        static_cast<std::uint8_t>(rng.next());
  return img;
}

bv::BitVector randomBits(Rng& rng, unsigned width) {
  bv::BitVector v = bv::BitVector::fromUint(std::min(width, 64u), rng.next());
  for (unsigned lo = 64; lo < width; lo += 64)
    v = bv::BitVector::concat(
        bv::BitVector::fromUint(std::min(width - lo, 64u), rng.next()), v);
  return v;
}

std::vector<bv::BitVector> makeSampleStream(std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bv::BitVector> out;
  out.reserve(count);
  const unsigned p1 = 7 + static_cast<unsigned>(rng.below(9));
  const unsigned p2 = 23 + static_cast<unsigned>(rng.below(17));
  for (std::size_t i = 0; i < count; ++i) {
    int v = ((i / p1) % 2 == 0 ? 40 : -40) + ((i / p2) % 2 == 0 ? 25 : -25);
    v += static_cast<int>(rng.below(21)) - 10;  // noise in [-10, 10]
    v = std::clamp(v, -128, 127);
    out.push_back(bv::BitVector::fromInt(8, v));
  }
  return out;
}

std::vector<MemRequest> makeMemTrace(std::size_t count, std::uint64_t seed,
                                     unsigned hotRegions) {
  DFV_CHECK(hotRegions >= 1);
  Rng rng(seed);
  std::vector<std::uint8_t> bases;
  for (unsigned r = 0; r < hotRegions; ++r)
    bases.push_back(static_cast<std::uint8_t>(rng.next()));
  std::vector<MemRequest> trace;
  trace.reserve(count);
  std::uint8_t cursor = bases[0];
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.chance(1, 10)) {
      // Far jump to another hot region.
      cursor = bases[rng.below(bases.size())];
    } else if (rng.chance(1, 2)) {
      // Sequential walk within the region.
      cursor = static_cast<std::uint8_t>(cursor + 1);
    }
    MemRequest req;
    req.write = rng.chance(1, 4);
    req.addr = static_cast<std::uint8_t>(cursor + rng.below(4));
    req.data = static_cast<std::uint8_t>(rng.next());
    trace.push_back(req);
  }
  return trace;
}

}  // namespace dfv::workload
