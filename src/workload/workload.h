// Deterministic workload generation for co-simulation and benches.
//
// The paper's SLM validation step (§2, step 1) runs *actual applications* on
// the system-level model — images for a graphics chip, traffic for a
// networking part.  We cannot ship production content, so these generators
// synthesize structured stimulus with the same role: deterministic, seeded,
// and with realistic spatial/temporal structure (gradients + shapes + noise
// for images, bursty arrivals for request streams) rather than white noise.
#pragma once

#include <cstdint>
#include <vector>

#include "bitvec/bitvector.h"
#include "common/check.h"

namespace dfv::workload {

/// splitmix64: tiny, deterministic, fine statistical quality for stimulus.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// True with probability num/den.
  bool chance(std::uint32_t num, std::uint32_t den) {
    return below(den) < num;
  }

 private:
  std::uint64_t state_;
};

/// A uniformly random `width`-bit value, built limb by limb from
/// ceil(width / 64) successive rng.next() words, low limb first.
bv::BitVector randomBits(Rng& rng, unsigned width);

/// A grayscale image, 8 bits per pixel, row-major.
struct Image {
  unsigned width = 0;
  unsigned height = 0;
  std::vector<std::uint8_t> pixels;

  std::uint8_t at(unsigned x, unsigned y) const {
    DFV_CHECK(x < width && y < height);
    return pixels[static_cast<std::size_t>(y) * width + x];
  }
  std::uint8_t& at(unsigned x, unsigned y) {
    DFV_CHECK(x < width && y < height);
    return pixels[static_cast<std::size_t>(y) * width + x];
  }
};

/// Synthesizes a test image: smooth gradient + rectangles + impulse noise
/// (edges and flat regions exercise a convolution like real content does).
Image makeTestImage(unsigned width, unsigned height, std::uint64_t seed);

/// A stream of signed 8-bit samples: sum of two square waves plus noise
/// (the "signal processing" stimulus of §1).
std::vector<bv::BitVector> makeSampleStream(std::size_t count,
                                            std::uint64_t seed);

/// Memory request stream with spatial locality: mostly hits within a few
/// hot regions, occasional far jumps (exercises a cache realistically).
struct MemRequest {
  bool write;
  std::uint8_t addr;
  std::uint8_t data;
};
std::vector<MemRequest> makeMemTrace(std::size_t count, std::uint64_t seed,
                                     unsigned hotRegions = 4);

}  // namespace dfv::workload
