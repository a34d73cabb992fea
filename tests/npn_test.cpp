// Tests for NPN canonicalization of 4-input truth tables (aig/rewrite.h),
// exhaustive over all 2^16 truth tables: canonicalization is a bijection
// onto 222 class representatives, and the lazily built table is the same
// whichever threads race to build it.

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "aig/rewrite.h"

namespace dfv::aig {
namespace {

TEST(Npn, ExhaustiveCanonicalizationRoundTrips) {
  std::set<std::uint16_t> reps;
  for (std::uint32_t t = 0; t < 0x10000; ++t) {
    const auto tt = static_cast<std::uint16_t>(t);
    const npn::Canon& c = npn::canonicalize(tt);
    // The transform recorded must reproduce tt from its representative.
    ASSERT_EQ(npn::applyTransform(c.rep, c.permIdx, c.negMask), tt)
        << "tt " << t;
    // Representatives are fixpoints.
    EXPECT_EQ(npn::canonicalize(c.rep).rep, c.rep);
    reps.insert(c.rep);
  }
  EXPECT_EQ(reps.size(), 222u);
}

TEST(Npn, RepresentativeIsOrbitMinimum) {
  // The orbit is filled in ascending truth-table order, so a representative
  // is always numerically <= every member of its class.
  for (std::uint32_t t = 0; t < 0x10000; ++t) {
    const auto tt = static_cast<std::uint16_t>(t);
    ASSERT_LE(npn::canonicalize(tt).rep, tt) << "tt " << t;
  }
}

TEST(Npn, TransformsRespectComposition) {
  // applyTransform must be a group action: transforming a projection gives
  // the (possibly negated) permuted projection.
  const std::uint16_t proj[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};
  for (std::uint8_t permIdx = 0; permIdx < 24; ++permIdx) {
    for (int j = 0; j < 4; ++j) {
      std::uint16_t got = npn::applyTransform(proj[j], permIdx, 0);
      bool isProjection = false;
      for (int k = 0; k < 4; ++k) isProjection |= got == proj[k];
      EXPECT_TRUE(isProjection) << "perm " << int(permIdx) << " var " << j;
    }
  }
}

TEST(Npn, ConcurrentFirstUseBuildsOneTable) {
  // Each test runs in its own process, so these threads are the table's
  // first users: they race its lazy initialization (the tsan preset runs
  // this test for that reason) and must all read the same entries.
  constexpr unsigned kThreads = 4;
  std::vector<std::vector<std::uint16_t>> reps(kThreads);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kThreads; ++i)
    threads.emplace_back([&reps, i] {
      for (std::uint32_t t = i; t < 0x10000; t += 97)
        reps[i].push_back(npn::canonicalize(static_cast<std::uint16_t>(t)).rep);
    });
  for (std::thread& t : threads) t.join();
  for (unsigned i = 0; i < kThreads; ++i) {
    std::size_t k = 0;
    for (std::uint32_t t = i; t < 0x10000; t += 97, ++k)
      ASSERT_EQ(reps[i][k], npn::canonicalize(static_cast<std::uint16_t>(t)).rep)
          << "thread " << i << " tt " << t;
  }
}

}  // namespace
}  // namespace dfv::aig
