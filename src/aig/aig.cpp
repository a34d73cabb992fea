#include "aig/aig.h"

#include <algorithm>

namespace dfv::aig {

Lit Aig::makeInput(std::string name) {
  const auto node = static_cast<std::uint32_t>(fanin0_.size());
  fanin0_.push_back(kFalse);
  fanin1_.push_back(kFalse);
  isInput_.push_back(true);
  inputs_.push_back(node);
  if (!name.empty()) inputNames_.emplace(node, std::move(name));
  return node << 1;
}

namespace {

/// splitmix64 finalizer over the (a, b) fan-in pair.  An identity-like
/// hash of (a<<32)|b would put sequentially allocated fan-in pairs in
/// neighboring slots, and linear probing would then form long runs; proper
/// avalanche keeps the strash at O(1) across multi-million-node BMC
/// unrollings.
std::size_t mixPair(Lit a, Lit b) {
  std::uint64_t x = (static_cast<std::uint64_t>(a) << 32) | b;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

}  // namespace

void Aig::reserve(std::size_t nodes) {
  fanin0_.reserve(nodes);
  fanin1_.reserve(nodes);
  isInput_.reserve(nodes);
  std::size_t slots = strash_.size();
  while (slots < 2 * nodes) slots *= 2;  // load factor at most 1/2
  if (slots > strash_.size()) rehash(slots);
}

std::size_t Aig::strashSlot(Lit a, Lit b) const {
  const std::size_t mask = strash_.size() - 1;
  for (std::size_t i = mixPair(a, b) & mask;; i = (i + 1) & mask) {
    const std::uint32_t n = strash_[i];
    if (n == 0 || (fanin0_[n] == a && fanin1_[n] == b)) return i;
  }
}

void Aig::rehash(std::size_t slots) {
  strash_.assign(slots, 0);
  const std::size_t mask = slots - 1;
  for (std::uint32_t n = 1; n < fanin0_.size(); ++n) {
    if (isInput_[n]) continue;
    std::size_t i = mixPair(fanin0_[n], fanin1_[n]) & mask;
    while (strash_[i] != 0) i = (i + 1) & mask;
    strash_[i] = n;
  }
}

Lit Aig::makeAnd(Lit a, Lit b) {
  DFV_CHECK(nodeOf(a) < fanin0_.size() && nodeOf(b) < fanin0_.size());
  // Constant and trivial cases.
  if (a == kFalse || b == kFalse) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == b) return a;
  if (a == negate(b)) return kFalse;
  // Canonical order for hashing.
  if (b < a) std::swap(a, b);
  std::size_t slot = strashSlot(a, b);
  if (strash_[slot] != 0) return strash_[slot] << 1;
  // Node 0 and the inputs are not hashed, so this is 2 * (ANDs + 1).
  if (2 * (fanin0_.size() - inputs_.size()) > strash_.size()) {
    rehash(2 * strash_.size());
    slot = strashSlot(a, b);
  }
  const auto node = static_cast<std::uint32_t>(fanin0_.size());
  fanin0_.push_back(a);
  fanin1_.push_back(b);
  isInput_.push_back(false);
  strash_[slot] = node;
  return node << 1;
}

std::vector<bool> Aig::evaluate(
    const std::map<std::uint32_t, bool>& inputValues) const {
  std::vector<bool> values(fanin0_.size(), false);
  for (std::uint32_t node = 1; node < fanin0_.size(); ++node) {
    if (isInput_[node]) {
      auto it = inputValues.find(node);
      DFV_CHECK_MSG(it != inputValues.end(),
                    "unbound AIG input node " << node);
      values[node] = it->second;
    } else {
      // Nodes are created in topological order, so fanins are ready.
      values[node] =
          litValue(values, fanin0_[node]) && litValue(values, fanin1_[node]);
    }
  }
  return values;
}

}  // namespace dfv::aig
