// The miter pipeline between bit-blasting and CNF: each distinct frame
// delta is swept once per check.  A check enters it on demand: the SEC
// miter (sec/engine.cpp) solves its phases on the plain unrolling until a
// capped probe runs out, then opens a Session and extends it with every
// earlier solve's roots in order before going on, so the cache sees the
// same deltas as a check swept from its first solve.
//
// A BMC unrolling grows one frame per depth, and each solve adds the cone of
// its new facts and query: the *delta*, cut off at source nodes an earlier
// call already mapped.  FrameCache::Session copies each delta into a
// self-contained graph in which every distinct mapped frontier node is one
// pseudo-input, sweeps it with a Fraig in a frame-local sat::Solver, and
// appends the result to one persistent output graph through the
// pseudo-inputs' targets, strashing into whatever it shares with earlier
// deltas.  Sweep merges therefore never span a delta boundary.
//
// The sweep's frontier is free: a merge proven with unconstrained
// pseudo-inputs holds under any frontier, so it is sound in every later
// frame.  The frame-local solver holds none of the caller's facts, so
// sweeps never merge under asserted facts.
//
// The FrameCache stores each completed result under its delta and root
// list.  A later delta that equals a stored one exactly — every node's kind
// and fan-ins, hence every input position, and the root list; never a hash
// match alone — replays the stored result without solving.
// Transaction-level BMC makes such repeats the rule: every depth unrolls the
// same transition relation, and the induction step is one more copy of it.
// The sweep is a pure function of (delta, roots, options), so a replay
// appends exactly what recomputing would.  A sweep cut short by the
// caller's budget is still appended (sound, just less merged) but never
// stored.  One entry per distinct delta, so memory is bounded by the number
// of solves.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "aig/aig.h"
#include "aig/fraig.h"
#include "sat/solver.h"

namespace dfv::aig {

/// Counters from one FrameCache::Session::extend.
struct FrameStats {
  /// The delta's sweep.  On a cache hit the node counts are the stored
  /// ones and every SAT-work counter is zero.
  FraigStats fraig;
  bool cacheHit = false;  ///< the delta was replayed from the cache
  double seconds = 0.0;   ///< wall time of the whole extend
};

/// Completed sweeps, one per distinct delta.  Shared by every
/// session of one check; never by concurrent checks.
class FrameCache {
 public:
  /// `options` configure the sweep of every delta.
  explicit FrameCache(FraigOptions options) : options_(std::move(options)) {}

  /// Stored deltas.
  std::size_t size() const { return entries_.size(); }

  /// The source-literal -> output-literal map; mirrors Fraig::Result.
  struct Result {
    std::vector<Lit> roots;  ///< map of the last extend's roots, in order
    FrameStats stats;        ///< the last extend's counters

    /// Maps a source literal into the output graph.  Every source input
    /// is mapped, as is every root; interior nodes are mapped only if
    /// their function survived as a node of the output graph.
    Lit map(Lit old) const {
      DFV_CHECK_MSG(isMapped(old), "literal " << old << " not mapped");
      return nodeMap[nodeOf(old)] ^ static_cast<Lit>(isComplemented(old));
    }
    bool isMapped(Lit old) const {
      return nodeOf(old) < nodeMap.size() &&
             nodeMap[nodeOf(old)] != kUnmapped;
    }

    static constexpr Lit kUnmapped = 0xffffffffu;
    std::vector<Lit> nodeMap;  ///< per source node, or kUnmapped
  };

  /// Maps one growing source graph into one output graph, delta by delta.
  class Session {
   public:
    /// `out` must be empty (node 0 only); it and `cache` must outlive the
    /// session.
    Session(FrameCache& cache, Aig& out);

    /// Sweeps the delta for `newRoots` (literals of `src`, which must be
    /// the same graph every call, only grown), after recreating every
    /// source input not yet mapped, in id order.  The sweep runs under
    /// `budget`.  Returns the cumulative node map, this
    /// call's mapped roots and its stats.
    const Result& extend(const Aig& src, const std::vector<Lit>& newRoots,
                         const sat::Budget& budget = {});

    /// The cumulative map after the last extend().
    const Result& result() const { return res_; }

   private:
    FrameCache& cache_;
    Aig& out_;
    Result res_;
    std::size_t inputsMapped_ = 0;  ///< prefix of src.inputs() recreated
  };

 private:
  /// One delta and its swept result: a self-contained graph over the
  /// delta's inputs (in order) and the delta-node map into it, which maps
  /// every root.
  struct Entry {
    Aig delta;
    std::vector<Lit> roots;
    Aig out;
    std::vector<Lit> nodeMap;  ///< per delta node, or kUnmapped
    FraigStats fraig;
  };

  const Entry* find(const Aig& delta, const std::vector<Lit>& roots) const;
  Entry compute(Aig delta, std::vector<Lit> roots,
                const sat::Budget& budget) const;

  FraigOptions options_;
  std::vector<Entry> entries_;
};

}  // namespace dfv::aig
