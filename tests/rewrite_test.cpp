// Tests for DAG-aware AIG rewriting (aig/rewrite.{h,cpp}).  Two layers:
// the NPN machinery is checked exhaustively over all 2^16 4-input truth
// tables (canonicalization is a bijection onto 222 class representatives,
// and every stored gate program re-simulates to its representative), and
// the rewriter itself is checked differentially — exhaustive input sweeps
// against the source graph on random AIGs, and an ir::Evaluator sweep over
// blasted word-level operations, mirroring the fraig tests in aig_test.cpp.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <map>
#include <random>
#include <set>

#include "aig/aig.h"
#include "aig/bitblast.h"
#include "aig/frame.h"
#include "aig/rewrite.h"
#include "ir/eval.h"

namespace dfv::aig {
namespace {

using bv::BitVector;

// ---------------------------------------------------------------------------
// NPN canonicalization: exhaustive over all 2^16 truth tables.
// ---------------------------------------------------------------------------

TEST(Npn, ExhaustiveCanonicalizationRoundTrips) {
  std::set<std::uint16_t> reps;
  for (std::uint32_t t = 0; t < 0x10000; ++t) {
    const auto tt = static_cast<std::uint16_t>(t);
    const npn::Canon& c = npn::canonicalize(tt);
    // The transform recorded must reproduce tt from its representative.
    ASSERT_EQ(npn::applyTransform(c.rep, c.permIdx, c.negMask), tt)
        << "tt " << t;
    // Representatives are fixpoints and match the generated table.
    EXPECT_EQ(npn::canonicalize(c.rep).rep, c.rep);
    EXPECT_GE(npn::classIndex(c.rep), 0);
    reps.insert(c.rep);
  }
  EXPECT_EQ(static_cast<int>(reps.size()), npn::classCount());
  EXPECT_EQ(npn::classCount(), 222);
}

TEST(Npn, RepresentativeIsOrbitMinimum) {
  // The orbit is filled in ascending truth-table order, so a representative
  // is always numerically <= every member of its class.
  for (std::uint32_t t = 0; t < 0x10000; ++t) {
    const auto tt = static_cast<std::uint16_t>(t);
    ASSERT_LE(npn::canonicalize(tt).rep, tt) << "tt " << t;
  }
}

TEST(Npn, StoredProgramsSimulateToTheirRepresentative) {
  int totalGates = 0;
  for (int i = 0; i < npn::classCount(); ++i) {
    ASSERT_EQ(npn::simulateClass(i), npn::classTruth(i)) << "class " << i;
    ASSERT_EQ(npn::classIndex(npn::classTruth(i)), i);
    totalGates += npn::classGateCount(i);
  }
  // The exact-synthesis table: no class needs more than 12 AND gates.
  for (int i = 0; i < npn::classCount(); ++i)
    EXPECT_LE(npn::classGateCount(i), 12) << "class " << i;
  EXPECT_GT(totalGates, 0);
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

/// The minterm-by-minterm re-expression the swap kernel replaced: output
/// minterm m reads input minterm sm, whose bit k is bit pos[k] of m.
std::uint16_t expandByMinterms(std::uint16_t tt, int size,
                               const std::array<std::uint8_t, 4>& pos) {
  std::uint16_t r = 0;
  for (int m = 0; m < 16; ++m) {
    int sm = 0;
    for (int k = 0; k < size; ++k)
      sm |= ((m >> pos[static_cast<std::size_t>(k)]) & 1) << k;
    r |= static_cast<std::uint16_t>(((tt >> sm) & 1) << m);
  }
  return r;
}

TEST(Npn, SwapKernelMatchesMintermLoopExhaustively) {
  // Every cut size, every strictly increasing placement of its variables
  // in 4 slots, and every function of those variables (padded so it
  // ignores the unused ones, as cut truth tables do).
  int placements = 0;
  for (int size = 1; size <= 4; ++size) {
    for (unsigned slots = 0; slots < 16; ++slots) {
      if (std::popcount(slots) != size) continue;
      std::array<std::uint8_t, 4> pos{};
      int k = 0;
      for (std::uint8_t s = 0; s < 4; ++s)
        if ((slots >> s) & 1) pos[static_cast<std::size_t>(k++)] = s;
      ++placements;
      const unsigned rows = 1u << size;
      for (std::uint32_t f = 0; f < (1u << rows); ++f) {
        std::uint16_t tt = 0;
        for (unsigned m = 0; m < 16; ++m)
          tt |= static_cast<std::uint16_t>(((f >> (m % rows)) & 1) << m);
        ASSERT_EQ(npn::expandTruth(tt, size, pos),
                  expandByMinterms(tt, size, pos))
            << "size " << size << " slots " << slots << " f " << f;
      }
    }
  }
  EXPECT_EQ(placements, 15);
}

// ---------------------------------------------------------------------------
// Rewriter: exhaustive differential sweeps against the source graph.
// ---------------------------------------------------------------------------

/// A random AIG built from and/or/xor/mux over randomly complemented
/// literals (same shape as the fraig tests in aig_test.cpp).
std::vector<Lit> buildRandomAig(Aig& g, std::mt19937_64& rng,
                                unsigned numInputs, unsigned numOps,
                                unsigned numRoots) {
  std::vector<Lit> pool = {kFalse, kTrue};
  for (unsigned i = 0; i < numInputs; ++i)
    pool.push_back(g.makeInput("i" + std::to_string(i)));
  auto pick = [&] {
    Lit l = pool[rng() % pool.size()];
    return (rng() & 1) ? negate(l) : l;
  };
  for (unsigned i = 0; i < numOps; ++i) {
    const Lit a = pick();
    const Lit b = pick();
    switch (rng() % 4) {
      case 0: pool.push_back(g.makeAnd(a, b)); break;
      case 1: pool.push_back(g.makeOr(a, b)); break;
      case 2: pool.push_back(g.makeXor(a, b)); break;
      default: pool.push_back(g.makeMux(a, b, pick())); break;
    }
  }
  std::vector<Lit> roots;
  for (unsigned i = 0; i < numRoots; ++i) roots.push_back(pick());
  return roots;
}

std::vector<bool> evalUnderBits(const Aig& g, std::uint64_t bits) {
  std::map<std::uint32_t, bool> inputVals;
  std::size_t i = 0;
  for (const std::uint32_t in : g.inputs()) inputVals[in] = (bits >> i++) & 1;
  return g.evaluate(inputVals);
}

void expectSemanticsPreservedExhaustively(const Aig& src,
                                          const std::vector<Lit>& roots,
                                          const Aig& out,
                                          const Rewriter::Result& res,
                                          unsigned numInputs,
                                          const char* what) {
  ASSERT_EQ(res.roots.size(), roots.size());
  for (std::uint64_t bits = 0; bits < (1ULL << numInputs); ++bits) {
    const auto srcVals = evalUnderBits(src, bits);
    const auto outVals = evalUnderBits(out, bits);
    for (std::size_t r = 0; r < roots.size(); ++r) {
      ASSERT_EQ(Aig::litValue(srcVals, roots[r]),
                Aig::litValue(outVals, res.roots[r]))
          << what << " root " << r << " bits " << bits;
    }
  }
}

TEST(Rewrite, RandomAigsPreserveSemanticsExhaustively) {
  std::mt19937_64 rng(0x4e3317e);
  for (int iter = 0; iter < 30; ++iter) {
    Aig g;
    const unsigned numInputs = 3 + rng() % 6;  // <= 8: exhaustive is cheap
    const auto roots = buildRandomAig(g, rng, numInputs, 15 + rng() % 60, 4);
    Aig out;
    const auto res = Rewriter().run(g, roots, out);
    expectSemanticsPreservedExhaustively(g, roots, out, res, numInputs,
                                         "default");
    // The non-regression guard means enabling the pass never costs nodes.
    EXPECT_LE(res.stats.nodesAfter, res.stats.nodesBefore) << "iter " << iter;
  }
}

TEST(Rewrite, TogglesPreserveSemanticsExhaustively) {
  std::mt19937_64 rng(0x70661e5);
  for (int iter = 0; iter < 12; ++iter) {
    Aig g;
    const unsigned numInputs = 3 + rng() % 5;
    const auto roots = buildRandomAig(g, rng, numInputs, 20 + rng() % 50, 3);
    for (int mode = 0; mode < 3; ++mode) {
      RewriteOptions options;
      options.balance = mode != 1;
      options.cuts = mode != 2;
      Aig out;
      const auto res = Rewriter(options).run(g, roots, out);
      expectSemanticsPreservedExhaustively(g, roots, out, res, numInputs,
                                           "toggled");
    }
  }
}

TEST(Rewrite, DeterministicAcrossRuns) {
  std::mt19937_64 rng(0xd373);
  Aig g;
  const auto roots = buildRandomAig(g, rng, 8, 120, 4);
  Aig out1, out2;
  const auto a = Rewriter().run(g, roots, out1);
  const auto b = Rewriter().run(g, roots, out2);
  EXPECT_EQ(a.roots, b.roots);
  EXPECT_EQ(a.nodeMap, b.nodeMap);
  EXPECT_EQ(out1.numNodes(), out2.numNodes());
  EXPECT_EQ(a.stats.rewritesApplied, b.stats.rewritesApplied);
  EXPECT_EQ(a.stats.cutsEnumerated, b.stats.cutsEnumerated);
}

TEST(Rewrite, MapsAllInputsAndRootsLikeFraig) {
  std::mt19937_64 rng(0x1a9);
  Aig g;
  const auto roots = buildRandomAig(g, rng, 6, 50, 3);
  // An input outside every root cone must still be mapped (miter binding
  // iterates all inputs of the source graph).
  const Lit spare = g.makeInput("spare");
  Aig out;
  const auto res = Rewriter().run(g, roots, out);
  EXPECT_EQ(out.numInputs(), g.numInputs());
  for (const std::uint32_t in : g.inputs()) {
    ASSERT_TRUE(res.isMapped(Lit(in << 1)));
    const Lit mapped = res.map(Lit(in << 1));
    EXPECT_TRUE(out.isInputNode(nodeOf(mapped)));
    EXPECT_EQ(out.inputNameOr(nodeOf(mapped), "?"),
              g.inputNameOr(in, "!"));
  }
  EXPECT_TRUE(res.isMapped(spare));
  for (const Lit r : roots) EXPECT_TRUE(res.isMapped(r));
  // Constants always map.
  EXPECT_EQ(res.map(kFalse), kFalse);
  EXPECT_EQ(res.map(kTrue), kTrue);
}

TEST(Rewrite, CompactsRedundantStructure) {
  // A chain of re-associated duplicated conjunctions: balancing + cut
  // rewriting must see through the redundancy.  (x&a)&(b&(x&c)) over
  // shared x collapses below the naive node count.
  Aig g;
  const Lit a = g.makeInput("a");
  const Lit b = g.makeInput("b");
  const Lit c = g.makeInput("c");
  const Lit x = g.makeInput("x");
  Lit acc = kTrue;
  acc = g.makeAnd(acc, g.makeAnd(x, a));
  acc = g.makeAnd(acc, g.makeAnd(b, g.makeAnd(x, c)));
  acc = g.makeAnd(acc, g.makeAnd(a, g.makeAnd(x, b)));
  Aig out;
  const auto res = Rewriter().run(g, {acc}, out);
  EXPECT_LT(res.stats.nodesAfter, res.stats.nodesBefore);
  expectSemanticsPreservedExhaustively(g, {acc}, out, res, 4, "redundant");
}

TEST(Rewrite, XorMuxShapesHitTheTable) {
  // XOR/MUX trees are where the NPN table shines; verify semantics and
  // that cut rewriting actually fires.
  std::mt19937_64 rng(0x3035);
  Aig g;
  std::vector<Lit> ins;
  for (int i = 0; i < 8; ++i)
    ins.push_back(g.makeInput("i" + std::to_string(i)));
  Lit parity = kFalse;
  for (const Lit l : ins) parity = g.makeXor(parity, l);
  Lit muxed = ins[0];
  for (int i = 1; i + 1 < 8; i += 2) muxed = g.makeMux(ins[i], muxed, ins[i + 1]);
  const std::vector<Lit> roots = {parity, muxed, g.makeAnd(parity, muxed)};
  Aig out;
  const auto res = Rewriter().run(g, roots, out);
  EXPECT_GT(res.stats.cutsEnumerated, 0u);
  expectSemanticsPreservedExhaustively(g, roots, out, res, 8, "xor-mux");
}

// ---------------------------------------------------------------------------
// Differential sweep against the IR interpreter, through the bit blaster —
// the configuration the SEC miter path actually runs.
// ---------------------------------------------------------------------------

class RewriteBlastProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(RewriteBlastProperty, BlastedOpsMatchInterpreterAfterRewrite) {
  const unsigned w = GetParam();
  std::mt19937_64 rng(0x4e11 + w);
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", w);
  ir::NodeRef b = ctx.input("b", w);
  ir::NodeRef s = ctx.input("s", 1);

  std::vector<ir::NodeRef> exprs = {
      ctx.add(a, b), ctx.sub(a, b), ctx.mul(a, b), ctx.neg(a),
      ctx.udiv(a, b), ctx.urem(a, b),
      ctx.bitAnd(a, b), ctx.bitOr(a, b), ctx.bitXor(a, b),
      ctx.shl(a, b), ctx.lshr(a, b),
      ctx.zext(ctx.eq(a, b), w), ctx.zext(ctx.ult(a, b), w),
      ctx.zext(ctx.sle(a, b), w),
      ctx.mux(s, a, b),
      ctx.add(ctx.mul(a, b), ctx.bitXor(a, b)),
  };

  Aig g;
  BitBlaster blaster(g);
  const Word wa = blaster.freshWord(w, "a");
  const Word wb = blaster.freshWord(w, "b");
  const Word ws = blaster.freshWord(1, "s");
  blaster.bindScalar(a, wa);
  blaster.bindScalar(b, wb);
  blaster.bindScalar(s, ws);

  std::vector<Lit> roots;
  std::vector<std::size_t> exprOf, bitOf;
  std::vector<Word> blasted;
  for (std::size_t e = 0; e < exprs.size(); ++e) {
    blasted.push_back(blaster.blast(exprs[e]));
    for (std::size_t i = 0; i < blasted.back().size(); ++i) {
      roots.push_back(blasted.back()[i]);
      exprOf.push_back(e);
      bitOf.push_back(i);
    }
  }

  Aig out;
  const auto res = Rewriter().run(g, roots, out);
  ASSERT_EQ(res.roots.size(), roots.size());

  for (int iter = 0; iter < 40; ++iter) {
    BitVector va(w), vb(w);
    for (unsigned i = 0; i < w; ++i) {
      va.setBit(i, rng() & 1);
      vb.setBit(i, rng() & 1);
    }
    if (iter % 7 == 0) va = BitVector::allOnes(w);
    if (iter % 11 == 0) vb = BitVector(w);
    const bool vs = rng() & 1;

    std::map<std::uint32_t, bool> inputVals;
    for (unsigned i = 0; i < w; ++i) {
      inputVals[nodeOf(res.map(wa[i]))] = va.bit(i);
      inputVals[nodeOf(res.map(wb[i]))] = vb.bit(i);
    }
    inputVals[nodeOf(res.map(ws[0]))] = vs;
    const auto nodeValues = out.evaluate(inputVals);

    ir::Env env{{a, ir::Value(va)},
                {b, ir::Value(vb)},
                {s, ir::Value(BitVector::fromUint(1, vs))}};
    ir::Evaluator ev(env);
    for (std::size_t r = 0; r < roots.size(); ++r) {
      const BitVector expected = ev.eval(exprs[exprOf[r]]).scalar;
      ASSERT_EQ(Aig::litValue(nodeValues, res.roots[r]),
                expected.bit(static_cast<unsigned>(bitOf[r])))
          << "expr " << exprOf[r] << " bit " << bitOf[r] << " width " << w
          << " a=" << va << " b=" << vb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, RewriteBlastProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(Rewrite, ShrinksBlastedArithmetic) {
  // The acceptance-style check at unit scale: a multiplier+adder cone must
  // lose a measurable fraction of its AND nodes.
  ir::Context ctx;
  ir::NodeRef a = ctx.input("a", 12);
  ir::NodeRef b = ctx.input("b", 12);
  ir::NodeRef e = ctx.add(ctx.mul(a, b), ctx.bitXor(a, b));
  Aig g;
  BitBlaster blaster(g);
  blaster.bindScalar(a, blaster.freshWord(12, "a"));
  blaster.bindScalar(b, blaster.freshWord(12, "b"));
  const Word word = blaster.blast(e);
  Aig out;
  const auto res =
      Rewriter().run(g, std::vector<Lit>(word.begin(), word.end()), out);
  EXPECT_FALSE(res.stats.fellBackToCopy);
  EXPECT_LT(res.stats.nodesAfter, res.stats.nodesBefore);
  EXPECT_GT(res.stats.rewritesApplied, 0u);
}

// ---------------------------------------------------------------------------
// RewriteSession: incremental rewriting over a growing graph, one delta per
// extend (FrameCache::Session), and the exact-compare frame cache.
// ---------------------------------------------------------------------------

FramePipeline rewriteOnly() {
  FramePipeline p;
  p.rewrite = RewriteOptions{};
  return p;
}

FramePipeline rewriteAndSweep() {
  FramePipeline p = rewriteOnly();
  p.fraig = FraigOptions{};
  return p;
}

TEST(RewriteSession, DeltasPreserveSemanticsOfEveryRootSoFar) {
  for (const FramePipeline& pipe : {rewriteOnly(), rewriteAndSweep()}) {
    std::mt19937_64 rng(0x5e55);
    for (int iter = 0; iter < 15; ++iter) {
      Aig g;
      Aig out;
      FrameCache cache(pipe);
      FrameCache::Session session(cache, out);
      std::vector<Lit> roots;
      std::vector<Lit> pool = {kFalse, kTrue};
      for (int step = 0; step < 3; ++step) {
        // Each step adds inputs and gates that may read any earlier
        // literal, so deltas reach back into what earlier calls already
        // rewrote.
        for (int i = 0; i < 2; ++i) pool.push_back(g.makeInput());
        const std::size_t firstNew = pool.size();
        for (int i = 0; i < 30; ++i) {
          const Lit a =
              pool[rng() % pool.size()] ^ static_cast<Lit>(rng() & 1);
          const Lit b =
              pool[rng() % pool.size()] ^ static_cast<Lit>(rng() & 1);
          pool.push_back((rng() & 1) ? g.makeAnd(a, b) : g.makeXor(a, b));
        }
        std::vector<Lit> fresh;
        for (int i = 0; i < 3; ++i)
          fresh.push_back(pool[firstNew + rng() % (pool.size() - firstNew)]);
        const FrameCache::Result& res = session.extend(g, fresh);
        ASSERT_EQ(res.roots.size(), fresh.size());
        EXPECT_LE(res.stats.rewrite.nodesAfter, res.stats.rewrite.nodesBefore);
        roots.insert(roots.end(), fresh.begin(), fresh.end());
        for (std::uint64_t bits = 0; bits < (1ULL << g.numInputs()); ++bits) {
          const auto srcVals = evalUnderBits(g, bits);
          const auto outVals = evalUnderBits(out, bits);
          for (const Lit r : roots)
            ASSERT_EQ(Aig::litValue(srcVals, r),
                      Aig::litValue(outVals, session.result().map(r)))
                << "iter " << iter << " step " << step << " bits " << bits;
        }
      }
    }
  }
}

/// A BMC-shaped unrolling: frame t reads frame t-1's state word and a
/// fresh input word.  Returns each frame's roots (observation, next state).
/// The observation adds s and x two ways, a pair only the sweep can merge.
std::vector<std::vector<Lit>> unrollFrames(Aig& g, int numFrames) {
  ir::Context ctx;
  ir::NodeRef sv = ctx.input("s", 8);
  ir::NodeRef xv = ctx.input("x", 8);
  ir::NodeRef next = ctx.add(ctx.mul(sv, ctx.constantUint(8, 3)), xv);
  ir::NodeRef obs = ctx.bitXor(ctx.add(sv, xv), ctx.sub(sv, ctx.neg(xv)));
  Word state;
  {
    BitBlaster b(g);
    state = b.freshWord(8, "s0");
  }
  std::vector<std::vector<Lit>> frames;
  for (int t = 0; t < numFrames; ++t) {
    BitBlaster b(g);
    b.bindScalar(sv, state);
    b.bindScalar(xv, b.freshWord(8, "x" + std::to_string(t)));
    const Word o = b.blast(obs);
    state = b.blast(next);
    frames.emplace_back(o.begin(), o.end());
    frames.back().insert(frames.back().end(), state.begin(), state.end());
  }
  return frames;
}

TEST(RewriteSession, IdenticalFramesCostIdenticalDeltas) {
  // Every frame is the same shape, so every extend rewrites the same
  // number of nodes — the session's cost is linear in the number of
  // frames, not quadratic.
  Aig g;
  const auto frames = unrollFrames(g, 5);
  Aig out;
  FrameCache cache(rewriteOnly());
  FrameCache::Session session(cache, out);
  std::vector<RewriteStats> perFrame;
  for (const auto& f : frames)
    perFrame.push_back(session.extend(g, f).stats.rewrite);
  ASSERT_GT(perFrame[0].nodesBefore, 0u);
  for (const RewriteStats& st : perFrame) {
    EXPECT_EQ(st.nodesBefore, perFrame[0].nodesBefore);
    EXPECT_EQ(st.nodesAfter, perFrame[0].nodesAfter);
  }
}

/// Rebuilds the delta FrameCache::Session::extend will see for `roots` (the
/// not-yet-mapped cone, with each distinct mapped frontier node as one
/// input, in source id order) as a standalone graph `h`.  Returns the mapped roots in
/// `h`; `targets` gets each input's literal in the session's output graph.
std::vector<Lit> standaloneDelta(const Aig& src, const FrameCache::Result& m,
                                 const std::vector<Lit>& roots, Aig& h,
                                 std::vector<Lit>& targets) {
  std::vector<bool> seen(src.numNodes(), false);
  std::vector<std::uint32_t> nodes;
  std::vector<std::uint32_t> stack;
  for (const Lit r : roots) stack.push_back(nodeOf(r));
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (seen[n]) continue;
    seen[n] = true;
    nodes.push_back(n);
    if (m.isMapped(n << 1)) continue;
    stack.push_back(nodeOf(src.fanin0(n)));
    stack.push_back(nodeOf(src.fanin1(n)));
  }
  std::sort(nodes.begin(), nodes.end());
  std::vector<Lit> local(src.numNodes(), kFalse);
  std::map<std::uint32_t, Lit> inputOf;  // output node -> input of h
  auto at = [&](Lit l) { return local[nodeOf(l)] ^ (l & 1u); };
  for (const std::uint32_t n : nodes) {
    if (!m.isMapped(n << 1)) {
      local[n] = h.makeAnd(at(src.fanin0(n)), at(src.fanin1(n)));
      continue;
    }
    const Lit t = m.map(n << 1);
    if (nodeOf(t) == 0) {
      local[n] = t;
      continue;
    }
    auto [it, fresh] = inputOf.try_emplace(nodeOf(t), kFalse);
    if (fresh) {
      it->second = h.makeInput();
      targets.push_back(t & ~1u);
    }
    local[n] = it->second ^ (t & 1u);
  }
  std::vector<Lit> out;
  for (const Lit r : roots) out.push_back(at(r));
  return out;
}

bool sameCounters(const FrameStats& a, const FrameStats& b) {
  const RewriteStats& ra = a.rewrite;
  const RewriteStats& rb = b.rewrite;
  return ra.nodesBefore == rb.nodesBefore && ra.nodesAfter == rb.nodesAfter &&
         ra.balancedTrees == rb.balancedTrees &&
         ra.cutsEnumerated == rb.cutsEnumerated &&
         ra.rewritesApplied == rb.rewritesApplied &&
         ra.fellBackToCopy == rb.fellBackToCopy &&
         a.fraig.nodesBefore == b.fraig.nodesBefore &&
         a.fraig.nodesAfter == b.fraig.nodesAfter &&
         a.fraig.mergedNodes == b.fraig.mergedNodes;
}

TEST(RewriteSession, IdenticalFrameReplaysTheMemoExactly) {
  // Frames 1 and 2 see the same delta, so frame 2 replays the cache, and
  // what it appends must be exactly what a fresh rewrite-and-sweep of that
  // delta builds: the same nodes, the same roots, the same merge counts.
  Aig g;
  const auto frames = unrollFrames(g, 3);
  Aig out;
  FrameCache cache(rewriteAndSweep());
  FrameCache::Session session(cache, out);
  const FrameStats s0 = session.extend(g, frames[0]).stats;
  const FrameStats s1 = session.extend(g, frames[1]).stats;
  EXPECT_FALSE(s0.cacheHit);

  // The reference: frame 2's delta as a fresh cache's first delta.
  Aig h;
  std::vector<Lit> targets;
  const std::vector<Lit> hRoots =
      standaloneDelta(g, session.result(), frames[2], h, targets);
  Aig hOut;
  FrameCache freshCache(rewriteAndSweep());
  FrameCache::Session fresh(freshCache, hOut);
  const FrameCache::Result& ref = fresh.extend(h, hRoots);
  EXPECT_FALSE(ref.stats.cacheHit);
  EXPECT_GT(ref.stats.fraig.mergedNodes, 0u);

  const std::size_t before = out.numNodes();
  const std::size_t entries = cache.size();
  const FrameCache::Result& hit = session.extend(g, frames[2]);
  EXPECT_TRUE(hit.stats.cacheHit);
  EXPECT_EQ(cache.size(), entries);
  EXPECT_EQ(hit.stats.fraig.satCalls, 0u);
  EXPECT_TRUE(sameCounters(hit.stats, ref.stats));
  EXPECT_TRUE(sameCounters(hit.stats, s1));

  // Structure: replaying the reference's nodes through the pseudo-input
  // targets must find every one already in place, in the same number.
  std::vector<Lit> phi(hOut.numNodes(), kFalse);
  ASSERT_EQ(hOut.numInputs(), targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k)
    phi[hOut.inputs()[k]] = targets[k];
  std::size_t refAnds = 0;
  auto through = [&](Lit l) { return phi[nodeOf(l)] ^ (l & 1u); };
  const std::size_t after = out.numNodes();
  for (std::uint32_t n = 1; n < hOut.numNodes(); ++n) {
    if (!hOut.isAndNode(n)) continue;
    ++refAnds;
    phi[n] = out.makeAnd(through(hOut.fanin0(n)), through(hOut.fanin1(n)));
    ASSERT_GE(nodeOf(phi[n]), before) << "reference node " << n;
  }
  EXPECT_EQ(out.numNodes(), after);
  EXPECT_EQ(after - before, refAnds);
  ASSERT_EQ(hit.roots.size(), ref.roots.size());
  for (std::size_t r = 0; r < ref.roots.size(); ++r)
    EXPECT_EQ(hit.roots[r], through(ref.roots[r])) << "root " << r;

  // And the whole session still computes every frame's roots.
  std::mt19937_64 rng(0x3e30);
  for (int sample = 0; sample < 2000; ++sample) {
    const std::uint64_t bits = rng();
    const auto srcVals = evalUnderBits(g, bits);
    const auto outVals = evalUnderBits(out, bits);
    for (const auto& f : frames)
      for (const Lit r : f)
        ASSERT_EQ(Aig::litValue(srcVals, r),
                  Aig::litValue(outVals, session.result().map(r)));
  }
}

/// A fixed 4-input cone: three roots over and/xor/mux shapes.  `variant`
/// perturbs it in one place: 1 complements one fan-in, 2 complements one
/// root, 3 creates the last input only after the first gates (the same
/// gates, but the input sits at a different position in the delta).
std::vector<Lit> fixedCone(Aig& g, int variant) {
  std::array<Lit, 4> x{};
  for (int i = 0; i < 3; ++i) x[static_cast<std::size_t>(i)] = g.makeInput();
  if (variant != 3) x[3] = g.makeInput();
  const Lit a = g.makeXor(x[0], x[1]);
  const Lit b = g.makeAnd(x[1], variant == 1 ? negate(x[2]) : x[2]);
  if (variant == 3) x[3] = g.makeInput();
  const Lit c = g.makeMux(a, b, x[3]);
  const Lit d = g.makeOr(c, g.makeAnd(x[0], x[3]));
  return {c, variant == 2 ? negate(d) : d, g.makeXor(d, b)};
}

TEST(RewriteSession, MemoMissesOnAnyStructuralDifference) {
  // Each variant has as many nodes and roots as the first cone; only an
  // exact node-for-node, root-for-root match may replay it.
  for (int variant = 0; variant <= 3; ++variant) {
    Aig g;
    const std::vector<Lit> first = fixedCone(g, 0);
    const std::vector<Lit> second = fixedCone(g, variant);
    Aig out;
    FrameCache cache(rewriteAndSweep());
    FrameCache::Session session(cache, out);
    const FrameStats s0 = session.extend(g, first).stats;
    const FrameStats s1 = session.extend(g, second).stats;
    EXPECT_FALSE(s0.cacheHit);
    EXPECT_EQ(s1.cacheHit, variant == 0) << "variant " << variant;
    EXPECT_EQ(cache.size(), variant == 0 ? 1u : 2u) << "variant " << variant;
    if (variant == 0) {
      EXPECT_TRUE(sameCounters(s0, s1));
    }
    for (std::uint64_t bits = 0; bits < (1ULL << g.numInputs()); ++bits) {
      const auto srcVals = evalUnderBits(g, bits);
      const auto outVals = evalUnderBits(out, bits);
      for (const auto& roots : {first, second})
        for (const Lit r : roots)
          ASSERT_EQ(Aig::litValue(srcVals, r),
                    Aig::litValue(outVals, session.result().map(r)))
              << "variant " << variant << " bits " << bits;
    }
  }
}

}  // namespace
}  // namespace dfv::aig
