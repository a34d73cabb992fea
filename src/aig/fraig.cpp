#include "aig/fraig.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace dfv::aig {

namespace {

using Clock = std::chrono::steady_clock;
constexpr std::uint32_t kNone = 0xffffffffu;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// One sweep over one cone.  Cone nodes get dense indices in ascending id
// (= topological) order.  Signature layout per dense node: the first
// simWords * simRounds words are random stimulus, then one word per 64
// counterexample vectors; the word still filling lives in partial_ and
// comparisons mask it to the bits appended so far.
class Sweep {
 public:
  Sweep(const FraigOptions& options, const Aig& src, Aig& out,
        CnfEncoder& enc)
      : options_(options), src_(src), out_(out), enc_(enc) {}

  Fraig::Result run(const std::vector<Lit>& roots, const sat::Budget& budget);

 private:
  using Sig = std::vector<std::uint64_t>;

  /// Collects the cone of `roots` (plus node 0) and simulates it on the
  /// random words; returns the number of AND nodes in it.
  std::size_t simulate(const std::vector<Lit>& roots,
                       const std::vector<Lit>& map);
  bool phaseOf(std::uint32_t d) const { return (sigs_[d][0] & 1ULL) != 0; }
  bool sigsEqual(std::uint32_t a, std::uint32_t b, bool invert) const;
  /// Candidate class of a simulated node (created if new).
  std::uint32_t classify(std::uint32_t d);
  /// Appends the solver's last model as one simulation vector.
  void appendCex();

  const FraigOptions& options_;
  const Aig& src_;
  Aig& out_;
  CnfEncoder& enc_;
  std::vector<std::uint32_t> cone_;   ///< per dense index: source node
  std::vector<std::uint32_t> dense_;  ///< per source node, or kNone
  /// Per dense node: fan-ins as dense index * 2 + complement (kNone for
  /// inputs and the constant).
  std::vector<std::uint32_t> fan0_, fan1_;
  std::vector<std::pair<std::uint32_t, sat::Lit>> inputs_;  ///< dense, var
  std::vector<Sig> sigs_;
  std::vector<std::uint64_t> partial_;  ///< cexBits_ % 64 valid bits
  std::size_t cexBits_ = 0;  ///< vectors appended after the random ones
  /// Per class: the live merge targets (dense), in sweep order.
  std::vector<std::vector<std::uint32_t>> reps_;
  /// Random-signature hash -> classes whose first member has it.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
  std::vector<std::uint32_t> classHead_;  ///< per class: its first member
};

std::size_t Sweep::simulate(const std::vector<Lit>& roots,
                            const std::vector<Lit>& map) {
  dense_.assign(src_.numNodes(), kNone);
  {
    std::vector<std::uint32_t> stack;
    const auto visit = [&](std::uint32_t n) {
      if (dense_[n] != kNone) return;
      dense_[n] = 0;  // assigned in sweep order below
      cone_.push_back(n);
      stack.push_back(n);
    };
    visit(0);
    for (const Lit r : roots) visit(nodeOf(r));
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      stack.pop_back();
      if (!src_.isAndNode(n)) continue;
      visit(nodeOf(src_.fanin0(n)));
      visit(nodeOf(src_.fanin1(n)));
    }
  }
  std::sort(cone_.begin(), cone_.end());
  for (std::uint32_t d = 0; d < cone_.size(); ++d) dense_[cone_[d]] = d;
  std::vector<std::uint32_t> position(cone_.size(), kNone);
  for (std::uint32_t k = 0; k < src_.numInputs(); ++k)
    if (dense_[src_.inputs()[k]] != kNone)
      position[dense_[src_.inputs()[k]]] = k;

  const std::size_t words =
      static_cast<std::size_t>(options_.simWords) * options_.simRounds;
  sigs_.resize(cone_.size());
  fan0_.assign(cone_.size(), kNone);
  fan1_.assign(cone_.size(), kNone);
  partial_.assign(cone_.size(), 0);
  std::size_t ands = 0;
  for (std::uint32_t d = 0; d < cone_.size(); ++d) {
    const std::uint32_t n = cone_[d];
    Sig& s = sigs_[d];
    s.assign(words, 0);
    if (src_.isInputNode(n)) {
      for (std::size_t w = 0; w < words; ++w)
        s[w] = mix64(options_.seed ^
                     mix64((static_cast<std::uint64_t>(position[d]) << 32) |
                           w));
      // Seed the saved phase from the first simulation word so the first
      // descent of each candidate solve tracks a known-consistent
      // assignment.
      const sat::Lit lit = enc_.satLit(map[n]);
      enc_.solver().setPhase(lit.var(), (s[0] & 1ULL) != 0);
      inputs_.emplace_back(d, lit);
    } else if (n != 0) {
      ++ands;
      const Lit a = src_.fanin0(n);
      const Lit b = src_.fanin1(n);
      const Sig& sa = sigs_[dense_[nodeOf(a)]];
      const Sig& sb = sigs_[dense_[nodeOf(b)]];
      const std::uint64_t fa = isComplemented(a) ? ~0ULL : 0ULL;
      const std::uint64_t fb = isComplemented(b) ? ~0ULL : 0ULL;
      for (std::size_t w = 0; w < words; ++w)
        s[w] = (sa[w] ^ fa) & (sb[w] ^ fb);
      fan0_[d] = (dense_[nodeOf(a)] << 1) | (a & 1u);
      fan1_[d] = (dense_[nodeOf(b)] << 1) | (b & 1u);
    }
  }
  return ands;
}

bool Sweep::sigsEqual(std::uint32_t a, std::uint32_t b, bool invert) const {
  const Sig& sa = sigs_[a];
  const Sig& sb = sigs_[b];
  const std::uint64_t flip = invert ? ~0ULL : 0ULL;
  for (std::size_t w = 0; w < sa.size(); ++w)
    if (sa[w] != (sb[w] ^ flip)) return false;
  const auto rem = static_cast<unsigned>(cexBits_ % 64);
  if (rem == 0) return true;
  const std::uint64_t mask = (1ULL << rem) - 1;
  return ((partial_[a] ^ partial_[b] ^ flip) & mask) == 0;
}

// Complement-canonical classes over the random words: a node whose
// signature has bit 0 set is compared inverted, so x and ~x land in the same
// class (merge handles the inversion).  Counterexample words appended later
// only split classes, which the decision-time sigsEqual re-check observes.
std::uint32_t Sweep::classify(std::uint32_t d) {
  const std::size_t randWords =
      static_cast<std::size_t>(options_.simWords) * options_.simRounds;
  const Sig& s = sigs_[d];
  const std::uint64_t flip = phaseOf(d) ? ~0ULL : 0ULL;
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
  classHead_.push_back(d);
  reps_.emplace_back();
  bucket.push_back(cid);
  return cid;
}

// One pass over the dense cone per counterexample: the partial word is
// flushed into the signatures every 64 vectors.
void Sweep::appendCex() {
  const auto pos = static_cast<unsigned>(cexBits_ % 64);
  const std::uint64_t bit = 1ULL << pos;
  const sat::Solver& solver = enc_.solver();
  const auto assign = [&](std::uint32_t d, bool v) {
    partial_[d] = v ? (partial_[d] | bit) : (partial_[d] & ~bit);
  };
  // Unassigned inputs default to false — consistent, since the solver left
  // them unconstrained.
  for (const auto& [d, lit] : inputs_)
    assign(d, solver.modelValueOr(lit, false));
  const auto bitOf = [&](std::uint32_t dl) {
    return (((partial_[dl >> 1] >> pos) & 1ULL) != 0) != ((dl & 1u) != 0);
  };
  for (std::uint32_t d = 0; d < fan0_.size(); ++d)
    if (fan0_[d] != kNone) assign(d, bitOf(fan0_[d]) && bitOf(fan1_[d]));
  if (++cexBits_ % 64 == 0) {
    for (std::size_t d = 0; d < cone_.size(); ++d)
      sigs_[d].push_back(partial_[d]);
    std::fill(partial_.begin(), partial_.end(), 0);
  }
}

Fraig::Result Sweep::run(const std::vector<Lit>& roots,
                         const sat::Budget& budget) {
  const auto t0 = Clock::now();
  sat::Solver& solver = enc_.solver();
  const sat::SolverStats before = solver.stats();
  Fraig::Result res;
  std::vector<Lit>& map = res.nodeMap;
  map.assign(src_.numNodes(), Fraig::Result::kUnmapped);
  map[0] = kFalse;
  // Recreate ALL inputs in id order (cone or not): callers extract
  // counterexample values through input literals, so every input must map.
  for (const std::uint32_t in : src_.inputs())
    map[in] = out_.makeInput(src_.inputNameOr(in));
  FraigStats& stats = res.stats;
  stats.nodesBefore = simulate(roots, map);

  // What the call has left of the caller's budget, folded into the
  // per-candidate cap; false once any cap is spent.
  const auto candidateBudget = [&](sat::Budget& b) {
    b = options_.candidateBudget;
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
  for (std::uint32_t d = 0; d < cone_.size(); ++d) {
    const std::uint32_t n = cone_[d];
    if (n == 0 || src_.isInputNode(n)) {
      // Constants and inputs are always representatives: nothing with a
      // smaller id can depend on a later input, and node 0's class lets
      // all-false-signature nodes be proved constant.
      reps_[classify(d)].push_back(d);
      continue;
    }
    const Lit nl = out_.makeAnd(res.map(src_.fanin0(n)),
                                res.map(src_.fanin1(n)));
    map[n] = nl;
    const std::uint32_t cid = classify(d);
    bool merged = false;
    for (const std::uint32_t rep : reps_[cid]) {
      const bool invert = phaseOf(d) != phaseOf(rep);
      // Counterexamples appended since the class was formed may have split
      // the pair apart; re-check at decision time.
      if (!sigsEqual(d, rep, invert)) continue;
      const Lit target = map[cone_[rep]] ^ static_cast<Lit>(invert);
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
    if (!merged) reps_[cid].push_back(d);
  }

  res.roots.reserve(roots.size());
  for (const Lit r : roots) res.roots.push_back(res.map(r));

  // AND nodes in the cone of the mapped roots (the graph also holds the
  // candidate-miter XOR nodes, dead logic for the caller).
  {
    std::vector<bool> seen(out_.numNodes(), false);
    std::vector<std::uint32_t> work;
    for (const Lit r : res.roots) work.push_back(nodeOf(r));
    while (!work.empty()) {
      const std::uint32_t n = work.back();
      work.pop_back();
      if (seen[n] || !out_.isAndNode(n)) continue;
      seen[n] = true;
      ++stats.nodesAfter;
      work.push_back(nodeOf(out_.fanin0(n)));
      work.push_back(nodeOf(out_.fanin1(n)));
    }
  }

  const sat::SolverStats& after = solver.stats();
  stats.conflicts = after.conflicts - before.conflicts;
  stats.decisions = after.decisions - before.decisions;
  stats.propagations = after.propagations - before.propagations;
  stats.budgetExhausted = exhausted;
  stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return res;
}

}  // namespace

Fraig::Result Fraig::run(const Aig& src, const std::vector<Lit>& roots,
                         Aig& out, CnfEncoder& enc,
                         const sat::Budget& budget) const {
  DFV_CHECK_MSG(out.numNodes() == 1 && out.numInputs() == 0,
                "fraig output graph must be freshly constructed");
  DFV_CHECK_MSG(options_.simWords > 0 && options_.simRounds > 0,
                "fraig needs at least one word of random stimulus");
  return Sweep(options_, src, out, enc).run(roots, budget);
}

}  // namespace dfv::aig
