// NPN canonicalization of 4-input truth tables.
//
// Only dfvbench uses this header: its set-up span warms the lazily built
// table (aig::npn::canonicalize).  The next benchmark change removes that
// span and, with it, this header.
#pragma once

#include <cstdint>

namespace dfv::aig::npn {

/// How a truth table reaches its class representative: canonicalize(tt)
/// returns {rep, permIdx, negMask} such that
/// applyTransform(rep, permIdx, negMask) == tt.
struct Canon {
  std::uint16_t rep;
  std::uint8_t permIdx;  ///< 0..23, index into the fixed permutation list
  std::uint8_t negMask;  ///< bits 0-3: input negations, bit 4: output
};

/// result(x0..x3) = tt(y0..y3) ^ outNeg, where y[perm[i]] = x[i] ^ neg[i].
std::uint16_t applyTransform(std::uint16_t tt, std::uint8_t permIdx,
                             std::uint8_t negMask);

/// Canonicalization lookup (lazily built 2^16 table, deterministic, one
/// of 222 classes).  Only dfvbench uses it; a benchmark change removes it.
const Canon& canonicalize(std::uint16_t tt);

}  // namespace dfv::aig::npn
