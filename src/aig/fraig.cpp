#include "aig/fraig.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "aig/cnf.h"

namespace dfv::aig {

namespace {

// Signature layout per swept node: a vector of 64-bit words.  The first
// simWords * simRounds words are random stimulus, then one word per 64
// counterexample vectors; the word still filling lives in partial_ and
// comparisons mask it to the bits appended so far.

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Fraig::Session::Session(FraigOptions options, Aig& out, CnfEncoder& enc)
    : options_(options), out_(out), enc_(enc) {
  DFV_CHECK_MSG(out.numNodes() == 1 && out.numInputs() == 0,
                "fraig output graph must be freshly constructed");
  DFV_CHECK_MSG(options.simWords > 0 && options.simRounds > 0,
                "fraig needs at least one word of random stimulus");
}

std::uint64_t Fraig::Session::inputWord(std::uint32_t input,
                                        std::size_t word) const {
  return mix64(options_.seed ^
               mix64((static_cast<std::uint64_t>(input) << 32) | word));
}

bool Fraig::Session::sigsEqual(std::uint32_t a, std::uint32_t b,
                               bool invert) const {
  const Sig& sa = sigs_[a];
  const Sig& sb = sigs_[b];
  const std::uint64_t flip = invert ? ~0ULL : 0ULL;
  for (std::size_t w = 0; w < sa.size(); ++w)
    if (sa[w] != (sb[w] ^ flip)) return false;
  const auto rem = static_cast<unsigned>(cexBits_ % 64);
  if (rem == 0) return true;
  const std::uint64_t mask = (1ULL << rem) - 1;
  return ((partial_[dense_[a]] ^ partial_[dense_[b]] ^ flip) & mask) == 0;
}

// Complement-canonical classes over the random words: a node whose
// signature has bit 0 set is compared inverted, so x and ~x land in the same
// class (merge handles the inversion).  Counterexample words appended later
// only split classes, which the decision-time sigsEqual re-check observes.
std::uint32_t Fraig::Session::classify(std::uint32_t n) {
  const std::size_t randWords =
      static_cast<std::size_t>(options_.simWords) * options_.simRounds;
  const Sig& s = sigs_[n];
  const std::uint64_t flip = phaseOf(n) ? ~0ULL : 0ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t w = 0; w < randWords; ++w) h = mix64(h ^ s[w] ^ flip);
  // Full comparison on hash hits, so collisions only cost time.
  std::vector<std::uint32_t>& bucket = buckets_[h];
  for (const std::uint32_t cid : bucket) {
    const Sig& head = sigs_[classHead_[cid]];
    const std::uint64_t rel = phaseOf(classHead_[cid]) ? ~flip : flip;
    bool equal = true;
    for (std::size_t w = 0; w < randWords && equal; ++w)
      equal = s[w] == (head[w] ^ rel);
    if (equal) return cid;
  }
  const auto cid = static_cast<std::uint32_t>(classHead_.size());
  classHead_.push_back(n);
  reps_.emplace_back();
  bucket.push_back(cid);
  return cid;
}

// One pass over dense arrays per counterexample: the partial word lives in
// partial_ and is flushed into the signatures every 64 vectors.
void Fraig::Session::appendCex() {
  const auto pos = static_cast<unsigned>(cexBits_ % 64);
  const std::uint64_t bit = 1ULL << pos;
  const sat::Solver& solver = enc_.solver();
  // Assign rather than OR: a node first simulated after this word was
  // opened carries arbitrary bits past the filled prefix.
  const auto assign = [&](std::uint32_t d, bool v) {
    partial_[d] = v ? (partial_[d] | bit) : (partial_[d] & ~bit);
  };
  // Unassigned or never-encoded inputs default to false — consistent, since
  // the solver left them unconstrained.
  for (const auto& [d, lit] : sweptInputs_)
    assign(d, solver.modelValueOr(lit, false));
  const auto bitOf = [&](std::uint32_t dl) {
    return (((partial_[dl >> 1] >> pos) & 1ULL) != 0) != ((dl & 1u) != 0);
  };
  for (std::uint32_t d = 0; d < fan0_.size(); ++d)
    if (fan0_[d] != kNone) assign(d, bitOf(fan0_[d]) && bitOf(fan1_[d]));
  if (++cexBits_ % 64 == 0) {
    for (std::size_t d = 0; d < order_.size(); ++d)
      sigs_[order_[d]].push_back(partial_[d]);
    std::fill(partial_.begin(), partial_.end(), 0);
  }
}

const Fraig::Result& Fraig::Session::extend(const Aig& src,
                                            const std::vector<Lit>& newRoots,
                                            const sat::Budget& budget) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  sat::Solver& solver = enc_.solver();
  const sat::SolverStats before = solver.stats();
  std::vector<Lit>& map = res_.nodeMap;
  DFV_CHECK_MSG(src.numNodes() >= map.size(),
                "fraig session source graph shrank");
  map.resize(src.numNodes(), Result::kUnmapped);
  dense_.resize(src.numNodes(), kNone);
  sigs_.resize(src.numNodes());
  map[0] = kFalse;
  // Recreate ALL old inputs in id order (cone or not): callers extract
  // counterexample values through input literals, so every input must map.
  for (; inputsMapped_ < src.numInputs(); ++inputsMapped_) {
    const std::uint32_t in = src.inputs()[inputsMapped_];
    map[in] = out_.makeInput(src.inputNameOr(in));
  }
  res_.stats = {};
  res_.roots.clear();
  FraigStats& stats = res_.stats;
  const std::size_t outBefore = out_.numNodes();

  // -- The delta: unswept nodes in the cone of the new roots (plus node 0
  // on the first call, which is free) -------------------------------------
  std::vector<std::uint32_t> delta;
  {
    std::vector<std::uint32_t> stack;
    const auto visit = [&](std::uint32_t n) {
      if (dense_[n] != kNone) return;
      dense_[n] = 0;  // assigned in sweep order below
      delta.push_back(n);
      stack.push_back(n);
    };
    visit(0);
    for (const Lit r : newRoots) visit(nodeOf(r));
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      stack.pop_back();
      if (!src.isAndNode(n)) continue;
      visit(nodeOf(src.fanin0(n)));
      visit(nodeOf(src.fanin1(n)));
    }
  }
  // Ascending id == topological order; earlier deltas are already swept.
  std::sort(delta.begin(), delta.end());

  // -- Simulate the delta on every existing vector ------------------------
  const std::size_t words = static_cast<std::size_t>(options_.simWords) *
                                options_.simRounds +
                            cexBits_ / 64;
  for (const std::uint32_t n : delta) {
    const auto d = static_cast<std::uint32_t>(order_.size());
    dense_[n] = d;
    order_.push_back(n);
    Sig& s = sigs_[n];
    s.assign(words, 0);
    std::uint64_t part = 0;
    std::uint32_t f0 = kNone;
    std::uint32_t f1 = kNone;
    if (src.isInputNode(n)) {
      for (std::size_t w = 0; w < words; ++w) s[w] = inputWord(n, w);
      part = inputWord(n, words);
      // Seed the saved phase from the first simulation word so the first
      // descent of each candidate solve tracks a known-consistent
      // assignment.
      const sat::Lit lit = enc_.satLit(map[n]);
      solver.setPhase(lit.var(), (s[0] & 1ULL) != 0);
      sweptInputs_.emplace_back(d, lit);
    } else if (n != 0) {
      ++stats.nodesBefore;
      const Lit a = src.fanin0(n);
      const Lit b = src.fanin1(n);
      const Sig& sa = sigs_[nodeOf(a)];
      const Sig& sb = sigs_[nodeOf(b)];
      const std::uint64_t fa = isComplemented(a) ? ~0ULL : 0ULL;
      const std::uint64_t fb = isComplemented(b) ? ~0ULL : 0ULL;
      for (std::size_t w = 0; w < words; ++w)
        s[w] = (sa[w] ^ fa) & (sb[w] ^ fb);
      f0 = (dense_[nodeOf(a)] << 1) | (a & 1u);
      f1 = (dense_[nodeOf(b)] << 1) | (b & 1u);
      part = (partial_[f0 >> 1] ^ fa) & (partial_[f1 >> 1] ^ fb);
    }
    fan0_.push_back(f0);
    fan1_.push_back(f1);
    partial_.push_back(part);
  }

  // What this call has left of the caller's budget, folded into the
  // per-candidate cap; false once any cap is spent or the run is cancelled.
  const auto candidateBudget = [&](sat::Budget& b) {
    b = options_.candidateBudget;
    if (budget.cancel != nullptr) b.cancel = budget.cancel;
    if (budget.cancelled()) return false;
    const sat::SolverStats& now = solver.stats();
    const auto cap = [](std::int64_t& c, std::int64_t total,
                        std::uint64_t spent) {
      if (total == 0) return true;
      const std::int64_t left = total - static_cast<std::int64_t>(spent);
      if (left <= 0) return false;
      c = c == 0 ? left : std::min(c, left);
      return true;
    };
    if (!cap(b.maxConflicts, budget.maxConflicts,
             now.conflicts - before.conflicts) ||
        !cap(b.maxPropagations, budget.maxPropagations,
             now.propagations - before.propagations))
      return false;
    if (budget.maxSeconds > 0) {
      const double left =
          budget.maxSeconds -
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (left <= 0) return false;
      b.maxSeconds = b.maxSeconds > 0 ? std::min(b.maxSeconds, left) : left;
    }
    return true;
  };

  // -- Rebuild bottom-up, proving candidate merges by SAT ------------------
  bool exhausted = false;
  for (const std::uint32_t n : delta) {
    if (n == 0 || src.isInputNode(n)) {
      // Constants and inputs are always representatives: nothing with a
      // smaller id can depend on a later input, and node 0's class lets
      // all-false-signature nodes be proved constant.
      reps_[classify(n)].push_back(n);
      continue;
    }
    const Lit nl = out_.makeAnd(res_.map(src.fanin0(n)),
                                res_.map(src.fanin1(n)));
    map[n] = nl;
    const std::uint32_t cid = classify(n);
    bool merged = false;
    for (const std::uint32_t rep : reps_[cid]) {
      const bool invert = phaseOf(n) != phaseOf(rep);
      // Counterexamples appended since the class was formed may have split
      // the pair apart; re-check at decision time.
      if (!sigsEqual(n, rep, invert)) continue;
      const Lit target = map[rep] ^ static_cast<Lit>(invert);
      if (nl == target) {
        // Earlier merges cascaded through strashing; nothing to prove.
        map[n] = target;
        ++stats.mergedNodes;
        merged = true;
        break;
      }
      if (nl == negate(target)) continue;  // structurally complement: skip
      const Lit miter = out_.makeXor(nl, target);
      if (miter == kFalse) {
        map[n] = target;
        ++stats.mergedNodes;
        merged = true;
        break;
      }
      if (miter == kTrue) continue;
      sat::Budget b;
      if (exhausted || !candidateBudget(b)) {
        exhausted = true;
        break;
      }
      ++stats.satCalls;
      const sat::Lit q = enc_.satLit(miter);
      const sat::Result r = solver.solve({q}, b);
      if (r == sat::Result::kUnsat) {
        solver.addClause(~q);  // teach the proven equivalence to later solves
        map[n] = target;
        ++stats.provenEquiv;
        ++stats.mergedNodes;
        merged = true;
        break;
      }
      if (r == sat::Result::kSat) {
        ++stats.refuted;
        appendCex();  // splits this pair (and any class it distinguishes)
        continue;
      }
      // Budget expired: leave unmerged (sound) and stop trying — further
      // candidates in a class this hard would likely expire too.  When it
      // was the caller's budget that ran out, no further proof runs.
      if (candidateBudget(b))
        ++stats.budgetExpired;
      else
        exhausted = true;
      break;
    }
    if (!merged) reps_[cid].push_back(n);
  }

  res_.roots.reserve(newRoots.size());
  for (const Lit r : newRoots) res_.roots.push_back(res_.map(r));

  // AND nodes this call added to the cone of its mapped roots (the graph
  // also holds the candidate-miter XOR nodes; they are dead logic for the
  // caller even though their clauses remain in the shared solver as learnt
  // context).
  {
    std::vector<bool> seen(out_.numNodes() - outBefore, false);
    std::vector<std::uint32_t> work;
    for (const Lit r : res_.roots) work.push_back(nodeOf(r));
    while (!work.empty()) {
      const std::uint32_t n = work.back();
      work.pop_back();
      if (n < outBefore || seen[n - outBefore]) continue;
      seen[n - outBefore] = true;
      if (out_.isAndNode(n)) {
        ++stats.nodesAfter;
        work.push_back(nodeOf(out_.fanin0(n)));
        work.push_back(nodeOf(out_.fanin1(n)));
      }
    }
  }

  const sat::SolverStats& after = solver.stats();
  stats.conflicts = after.conflicts - before.conflicts;
  stats.propagations = after.propagations - before.propagations;
  stats.budgetExhausted = exhausted;
  stats.seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
#ifdef DFV_FRAIG_TRACE
  std::fprintf(stderr,
               "[fraig] delta=%zu calls=%llu proven=%zu refuted=%zu "
               "expired=%zu merged=%zu %.1fms\n",
               stats.nodesBefore,
               static_cast<unsigned long long>(stats.satCalls),
               stats.provenEquiv, stats.refuted, stats.budgetExpired,
               stats.mergedNodes, stats.seconds * 1e3);
#endif
  return res_;
}

Fraig::Result Fraig::run(const Aig& src, const std::vector<Lit>& roots,
                         Aig& out, CnfEncoder& enc) const {
  Session session(options_, out, enc);
  return session.extend(src, roots);
}

}  // namespace dfv::aig
