#include "aig/rewrite.h"

#include <algorithm>
#include <array>
#include <vector>

#include "common/check.h"

namespace dfv::aig::npn {

namespace {

/// Number of NPN classes over <= 4 inputs.
constexpr int kNpnClassCount = 222;

/// The 24 permutations of {0,1,2,3} in lexicographic order.  The
/// canonicalization table stores indices into this list; the orbit fill
/// below and applyTransform must agree on it.
const std::array<std::array<std::uint8_t, 4>, 24>& permList() {
  static const auto perms = [] {
    std::array<std::array<std::uint8_t, 4>, 24> p{};
    std::array<std::uint8_t, 4> a{0, 1, 2, 3};
    int i = 0;
    do {
      p[static_cast<std::size_t>(i++)] = a;
    } while (std::next_permutation(a.begin(), a.end()));
    return p;
  }();
  return perms;
}

/// For every 16-bit truth table: the orbit representative (smallest member,
/// discovered in ascending order) and one transform that maps the
/// representative onto it.  Deterministic: fixed iteration order, no
/// hashing in the fill.
std::vector<Canon> buildTable() {
  std::vector<Canon> canon(65536);
  std::vector<bool> assigned(65536, false);
  int classes = 0;
  for (std::uint32_t t = 0; t < 65536; ++t) {
    if (assigned[t]) continue;
    const auto rep = static_cast<std::uint16_t>(t);
    for (std::uint8_t pi = 0; pi < 24; ++pi)
      for (std::uint8_t mask = 0; mask < 32; ++mask) {
        const std::uint16_t x = applyTransform(rep, pi, mask);
        if (!assigned[x]) {
          assigned[x] = true;
          canon[x] = Canon{rep, pi, mask};
        }
      }
    ++classes;
  }
  DFV_CHECK_MSG(classes == kNpnClassCount, "NPN class count mismatch");
  return canon;
}

}  // namespace

std::uint16_t applyTransform(std::uint16_t tt, std::uint8_t permIdx,
                             std::uint8_t negMask) {
  const auto& perm = permList()[permIdx];
  std::uint16_t r = 0;
  for (int m = 0; m < 16; ++m) {
    int srcMinterm = 0;
    for (int i = 0; i < 4; ++i) {
      const int v = ((m >> i) & 1) ^ ((negMask >> i) & 1);
      srcMinterm |= v << perm[static_cast<std::size_t>(i)];
    }
    const int bit = ((tt >> srcMinterm) & 1) ^ ((negMask >> 4) & 1);
    r |= static_cast<std::uint16_t>(bit << m);
  }
  return r;
}

const Canon& canonicalize(std::uint16_t tt) {
  static const std::vector<Canon> table = buildTable();
  return table[tt];
}

}  // namespace dfv::aig::npn
