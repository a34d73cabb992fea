#include "aig/frame.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_map>

#include "aig/cnf.h"

namespace dfv::aig {

namespace {

constexpr Lit kUn = FrameCache::Result::kUnmapped;

Lit mapLit(const std::vector<Lit>& map, Lit l) {
  DFV_CHECK_MSG(map[nodeOf(l)] != kUn, "unmapped literal in frame delta");
  return map[nodeOf(l)] ^ static_cast<Lit>(isComplemented(l));
}

/// Composes src->mid with mid-node->out into src->out.
std::vector<Lit> compose(const std::vector<Lit>& first,
                         const std::vector<Lit>& second) {
  std::vector<Lit> r(first.size(), kUn);
  for (std::size_t n = 0; n < first.size(); ++n) {
    const Lit mid = first[n];
    if (mid == kUn || second[nodeOf(mid)] == kUn) continue;
    r[n] = second[nodeOf(mid)] ^ static_cast<Lit>(isComplemented(mid));
  }
  return r;
}

/// Exact structural equality: the same nodes, each of the same kind with the
/// same fan-ins (so inputs sit at the same positions).
bool sameStructure(const Aig& a, const Aig& b) {
  if (a.numNodes() != b.numNodes()) return false;
  for (std::uint32_t n = 1; n < a.numNodes(); ++n)
    if (a.isInputNode(n) != b.isInputNode(n) || a.fanin0(n) != b.fanin0(n) ||
        a.fanin1(n) != b.fanin1(n))
      return false;
  return true;
}

}  // namespace

const FrameCache::Entry* FrameCache::find(
    const Aig& delta, const std::vector<Lit>& roots) const {
  for (const Entry& e : entries_)
    if (e.roots == roots && sameStructure(e.delta, delta)) return &e;
  return nullptr;
}

FrameCache::Entry FrameCache::compute(Aig delta, std::vector<Lit> roots,
                                      const sat::Budget& budget) const {
  Entry e;
  e.delta = std::move(delta);
  e.roots = std::move(roots);
  Aig swept;
  sat::Solver solver;
  CnfEncoder enc(swept, solver);
  const Fraig::Result fr =
      Fraig(options_).run(e.delta, e.roots, swept, enc, budget);
  e.fraig = fr.stats;

  // Keep the cone of the roots and of every mapped delta node; this drops
  // the sweep's candidate-miter gates.
  std::vector<bool> live(swept.numNodes(), false);
  std::vector<std::uint32_t> work;
  for (const Lit r : fr.roots) work.push_back(nodeOf(r));
  for (const Lit l : fr.nodeMap)
    if (l != kUn) work.push_back(nodeOf(l));
  while (!work.empty()) {
    const std::uint32_t n = work.back();
    work.pop_back();
    if (live[n]) continue;
    live[n] = true;
    if (!swept.isAndNode(n)) continue;
    work.push_back(nodeOf(swept.fanin0(n)));
    work.push_back(nodeOf(swept.fanin1(n)));
  }
  // The sweep recreates all inputs in order, so input k of `out` is input k
  // of the delta.
  std::vector<Lit> toOut(swept.numNodes(), kUn);
  toOut[0] = kFalse;
  for (const std::uint32_t in : swept.inputs()) toOut[in] = e.out.makeInput();
  for (std::uint32_t n = 1; n < swept.numNodes(); ++n)
    if (live[n] && swept.isAndNode(n))
      toOut[n] = e.out.makeAnd(mapLit(toOut, swept.fanin0(n)),
                               mapLit(toOut, swept.fanin1(n)));
  e.nodeMap = compose(fr.nodeMap, toOut);
  return e;
}

FrameCache::Session::Session(FrameCache& cache, Aig& out)
    : cache_(cache), out_(out) {
  DFV_CHECK_MSG(out.numNodes() == 1 && out.numInputs() == 0,
                "frame session output graph must be empty");
}

const FrameCache::Result& FrameCache::Session::extend(
    const Aig& src, const std::vector<Lit>& newRoots,
    const sat::Budget& budget) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Lit>& map = res_.nodeMap;
  DFV_CHECK_MSG(src.numNodes() >= map.size(),
                "frame session source graph shrank");
  map.resize(src.numNodes(), kUn);
  map[0] = kFalse;
  for (; inputsMapped_ < src.numInputs(); ++inputsMapped_) {
    const std::uint32_t in = src.inputs()[inputsMapped_];
    map[in] = out_.makeInput(src.inputNameOr(in));
  }
  res_.stats = {};
  res_.roots.clear();

  // The delta: unmapped AND nodes reachable from the new roots, plus the
  // mapped nodes it reads (its frontier).
  std::vector<bool> seen(src.numNodes(), false);
  std::vector<std::uint32_t> delta;
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> stack;
  auto visit = [&](std::uint32_t n) {
    if (seen[n]) return;
    seen[n] = true;
    if (map[n] != kUn)
      frontier.push_back(n);
    else
      stack.push_back(n);
  };
  for (const Lit r : newRoots) visit(nodeOf(r));
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    delta.push_back(n);
    visit(nodeOf(src.fanin0(n)));
    visit(nodeOf(src.fanin1(n)));
  }

  if (!delta.empty()) {
    std::sort(delta.begin(), delta.end());
    std::sort(frontier.begin(), frontier.end());
    // Local copy of the delta in source id order, so the pipeline sees the
    // same relative node order as a one-shot run.  Each distinct output
    // node on the frontier becomes one pseudo-input; constants stay
    // constants.
    Aig d;
    std::vector<Lit> local(src.numNodes(), kUn);
    std::vector<Lit> pseudoTarget;  // per d input, in order: its out literal
    std::unordered_map<std::uint32_t, Lit> pseudoOf;  // out node -> d input
    std::size_t fi = 0;
    std::size_t di = 0;
    while (fi < frontier.size() || di < delta.size()) {
      if (di == delta.size() ||
          (fi < frontier.size() && frontier[fi] < delta[di])) {
        const std::uint32_t f = frontier[fi++];
        const Lit target = map[f];
        const auto comp = static_cast<Lit>(isComplemented(target));
        if (nodeOf(target) == 0) {
          local[f] = target;
          continue;
        }
        auto [it, fresh] = pseudoOf.try_emplace(nodeOf(target), kFalse);
        if (fresh) {
          it->second = d.makeInput();
          pseudoTarget.push_back(target ^ comp);
        }
        local[f] = it->second ^ comp;
      } else {
        const std::uint32_t n = delta[di++];
        local[n] = d.makeAnd(mapLit(local, src.fanin0(n)),
                             mapLit(local, src.fanin1(n)));
      }
    }
    std::vector<Lit> dRoots;
    for (const Lit r : newRoots)
      if (map[nodeOf(r)] == kUn) dRoots.push_back(mapLit(local, r));

    const Entry* e = cache_.find(d, dRoots);
    std::optional<Entry> unstored;
    FrameStats& st = res_.stats;
    st.cacheHit = e != nullptr;
    if (e != nullptr) {
      // A replay does no SAT work; the node counts are the stored sweep's.
      st.fraig = FraigStats{.nodesBefore = e->fraig.nodesBefore,
                            .nodesAfter = e->fraig.nodesAfter,
                            .mergedNodes = e->fraig.mergedNodes};
    } else {
      Entry fresh = cache_.compute(std::move(d), std::move(dRoots), budget);
      st.fraig = fresh.fraig;
      if (fresh.fraig.budgetExhausted) {
        unstored.emplace(std::move(fresh));
        e = &*unstored;
      } else {
        cache_.entries_.push_back(std::move(fresh));
        e = &cache_.entries_.back();
      }
    }

    // Append the result through the pseudo-inputs' targets.
    const Aig& dOut = e->out;
    std::vector<Lit> toOut(dOut.numNodes(), kUn);
    toOut[0] = kFalse;
    for (std::size_t k = 0; k < dOut.numInputs(); ++k)
      toOut[dOut.inputs()[k]] = pseudoTarget[k];
    for (std::uint32_t n = 1; n < dOut.numNodes(); ++n)
      if (dOut.isAndNode(n))
        toOut[n] = out_.makeAnd(mapLit(toOut, dOut.fanin0(n)),
                                mapLit(toOut, dOut.fanin1(n)));
    for (const std::uint32_t n : delta) {
      const Lit l = local[n];
      if (e->nodeMap[nodeOf(l)] != kUn)
        map[n] = mapLit(toOut, mapLit(e->nodeMap, l));
    }
  }
  for (const Lit r : newRoots) res_.roots.push_back(mapLit(map, r));
  res_.stats.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  return res_;
}

}  // namespace dfv::aig
