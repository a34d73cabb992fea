// And-Inverter Graphs: the bit-level representation between the word-level
// IR and CNF.
//
// Literals are encoded as 2*node + complement; node 0 is the constant false
// node, so literal 0 is FALSE and literal 1 is TRUE.  makeAnd performs
// constant folding, trivial simplification, and structural hashing, which
// keeps the CNF the SAT solver sees compact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"

namespace dfv::aig {

/// An AIG literal: node index * 2 + complement bit.
using Lit = std::uint32_t;

inline constexpr Lit kFalse = 0;
inline constexpr Lit kTrue = 1;

inline Lit negate(Lit l) { return l ^ 1u; }
inline std::uint32_t nodeOf(Lit l) { return l >> 1; }
inline bool isComplemented(Lit l) { return l & 1u; }

/// An and-inverter graph with structural hashing.
class Aig {
 public:
  Aig() : strash_(16, 0) {
    // Node 0: constant false.
    fanin0_.push_back(kFalse);
    fanin1_.push_back(kFalse);
    isInput_.push_back(false);
  }

  /// Pre-sizes the node storage and the strash table for ~`nodes` nodes.
  /// The BMC engine knows how many transactions it will unroll and how big
  /// one transaction's frame is, so it can avoid the rehash churn of
  /// growing a multi-million-slot table incrementally.
  void reserve(std::size_t nodes);

  /// Current strash slot count (telemetry for reserve()'s effect).
  std::size_t strashBucketCount() const { return strash_.size(); }

  /// Creates a primary input; returns its positive literal.
  Lit makeInput(std::string name = "");

  /// AND of two literals (folded, simplified, hashed).
  Lit makeAnd(Lit a, Lit b);

  Lit makeOr(Lit a, Lit b) { return negate(makeAnd(negate(a), negate(b))); }
  Lit makeXor(Lit a, Lit b) {
    // a^b = (a|b) & ~(a&b)
    return makeAnd(makeOr(a, b), negate(makeAnd(a, b)));
  }
  Lit makeXnor(Lit a, Lit b) { return negate(makeXor(a, b)); }
  /// sel ? t : e
  Lit makeMux(Lit sel, Lit t, Lit e) {
    if (t == e) return t;
    return makeOr(makeAnd(sel, t), makeAnd(negate(sel), e));
  }
  Lit makeImplies(Lit a, Lit b) { return makeOr(negate(a), b); }

  std::size_t numNodes() const { return fanin0_.size(); }
  std::size_t numInputs() const { return inputs_.size(); }
  const std::vector<std::uint32_t>& inputs() const { return inputs_; }

  bool isInputNode(std::uint32_t node) const {
    return isInput_[static_cast<std::size_t>(node)];
  }
  bool isAndNode(std::uint32_t node) const {
    return node != 0 && !isInputNode(node);
  }
  Lit fanin0(std::uint32_t node) const {
    return fanin0_[static_cast<std::size_t>(node)];
  }
  Lit fanin1(std::uint32_t node) const {
    return fanin1_[static_cast<std::size_t>(node)];
  }
  const std::string& inputName(std::uint32_t node) const {
    return inputNames_.at(node);
  }
  /// Input name, or `def` for unnamed inputs (inputName throws on those).
  std::string inputNameOr(std::uint32_t node, std::string def = "") const {
    auto it = inputNames_.find(node);
    return it == inputNames_.end() ? std::move(def) : it->second;
  }

  /// Reference simulation: values for ALL nodes given input-node values
  /// (indexed by node id; non-input positions ignored).  Used by property
  /// tests to check the blaster and the CNF encoding.
  std::vector<bool> evaluate(
      const std::map<std::uint32_t, bool>& inputValues) const;

  /// Evaluates a single literal under the given full node-value table.
  static bool litValue(const std::vector<bool>& nodeValues, Lit l) {
    return nodeValues[nodeOf(l)] != isComplemented(l);
  }

 private:
  /// The strash slot holding the AND node with fan-ins (a, b), a < b, or
  /// the empty slot where it belongs.
  std::size_t strashSlot(Lit a, Lit b) const;
  /// Re-inserts every AND node into a table of `slots` (a power of two).
  void rehash(std::size_t slots);

  std::vector<Lit> fanin0_, fanin1_;  // per node; inputs have kFalse/kFalse
  std::vector<bool> isInput_;
  std::vector<std::uint32_t> inputs_;
  std::map<std::uint32_t, std::string> inputNames_;
  // Structural hash: an open-addressing table of AND node ids (0 = empty;
  // node 0 is the constant, never an AND), linear probing, keys read back
  // from fanin0_/fanin1_, power-of-two size, load factor at most 1/2.
  std::vector<std::uint32_t> strash_;
};

}  // namespace dfv::aig
