#include "ir/transition_system.h"

#include <algorithm>
#include <unordered_map>

namespace dfv::ir {

NodeRef TransitionSystem::addInput(const std::string& name, Type type) {
  DFV_CHECK_MSG(findInput(name) == nullptr,
                "input '" << name << "' already declared");
  NodeRef leaf = ctx_->input(name, type);
  inputs_.push_back(leaf);
  return leaf;
}

NodeRef TransitionSystem::addState(const std::string& name, Type type,
                                   Value init) {
  DFV_CHECK_MSG(findState(name) == nullptr,
                "state '" << name << "' already declared");
  DFV_CHECK_MSG(init.matches(type), "init value sort mismatch for '" << name
                                                                     << "'");
  NodeRef leaf = ctx_->state(name, type);
  states_.push_back(StateVar{leaf, std::move(init), nullptr});
  return leaf;
}

void TransitionSystem::setNext(NodeRef stateLeaf, NodeRef next) {
  auto it = std::find_if(states_.begin(), states_.end(),
                         [&](const StateVar& s) { return s.current == stateLeaf; });
  DFV_CHECK_MSG(it != states_.end(), "setNext on undeclared state");
  DFV_CHECK_MSG(next->type() == stateLeaf->type(),
                "next-state sort mismatch for '" << stateLeaf->name() << "'");
  it->next = next;
}

void TransitionSystem::addOutput(const std::string& name, NodeRef expr,
                                 NodeRef valid) {
  DFV_CHECK_MSG(findOutput(name) == nullptr,
                "output '" << name << "' already declared");
  if (valid != nullptr)
    DFV_CHECK_MSG(valid->width() == 1 && !valid->type().isArray(),
                  "output valid qualifier must be 1 bit");
  outputs_.push_back(OutputPort{name, expr, valid});
}

void TransitionSystem::addConstraint(NodeRef c) {
  DFV_CHECK_MSG(c->width() == 1 && !c->type().isArray(),
                "constraint must be 1 bit");
  constraints_.push_back(c);
}

NodeRef TransitionSystem::findInput(const std::string& name) const {
  for (NodeRef i : inputs_)
    if (i->name() == name) return i;
  return nullptr;
}

const StateVar* TransitionSystem::findState(const std::string& name) const {
  for (const auto& s : states_)
    if (s.name() == name) return &s;
  return nullptr;
}

const OutputPort* TransitionSystem::findOutput(const std::string& name) const {
  for (const auto& o : outputs_)
    if (o.name == name) return &o;
  return nullptr;
}

void TransitionSystem::validate() const {
  for (const auto& s : states_) {
    DFV_CHECK_MSG(s.next != nullptr,
                  "state '" << s.name() << "' has no next function");
    DFV_CHECK_MSG(s.init.matches(s.current->type()),
                  "state '" << s.name() << "' init sort mismatch");
  }
  for (const auto& o : outputs_)
    DFV_CHECK_MSG(o.expr != nullptr, "output '" << o.name << "' undefined");
}

TsSimulator::TsSimulator(const TransitionSystem& ts) : ts_(ts) {
  ts.validate();
  std::unordered_map<NodeRef, Slot> leaves;
  for (NodeRef in : ts.inputs())
    inputSlots_.push_back(
        leaves[in] = tape_.addSlot(Value::zeroOf(in->type())));
  for (const auto& s : ts.states())
    stateSlots_.push_back(leaves[s.current] = tape_.addSlot(s.init));
  // An unbound leaf is reported by every step, as evaluating it would be.
  auto leaf = [&](NodeRef n) {
    auto it = leaves.find(n);
    if (it != leaves.end()) return it->second;
    if (unboundLeaf_.empty()) unboundLeaf_ = n->name();
    return leaves[n] = tape_.addSlot(Value::zeroOf(n->type()));
  };
  for (const auto& o : ts.outputs()) {
    outputSlots_.push_back(tape_.compile(o.expr, leaf));
    validSlots_.push_back(o.valid == nullptr ? Tape::kNone
                                             : tape_.compile(o.valid, leaf));
  }
  for (NodeRef c : ts.constraints())
    constraintSlots_.push_back(tape_.compile(c, leaf));
  for (const auto& s : ts.states()) {
    nextSlots_.push_back(tape_.compile(s.next, leaf));
    staged_.push_back(Value::zeroOf(s.current->type()));
  }
}

void TsSimulator::reset() {
  for (std::size_t i = 0; i < stateSlots_.size(); ++i)
    tape_.slot(stateSlots_[i]) = ts_.states()[i].init;
}

TsSimulator::StepResult TsSimulator::step(
    const std::vector<Value>& inputValues) {
  DFV_CHECK_MSG(inputValues.size() == ts_.inputs().size(),
                "expected " << ts_.inputs().size() << " inputs, got "
                            << inputValues.size());
  for (std::size_t i = 0; i < inputValues.size(); ++i) {
    DFV_CHECK_MSG(inputValues[i].matches(ts_.inputs()[i]->type()),
                  "input '" << ts_.inputs()[i]->name() << "' sort mismatch");
    tape_.slot(inputSlots_[i]) = inputValues[i];
  }
  DFV_CHECK_MSG(unboundLeaf_.empty(), "unbound leaf '" << unboundLeaf_ << "'");
  tape_.run(0, tape_.size());

  StepResult result;
  result.outputs.reserve(outputSlots_.size());
  for (std::size_t o = 0; o < outputSlots_.size(); ++o) {
    result.outputs.push_back(tape_.slot(outputSlots_[o]));
    result.outputValid.push_back(validSlots_[o] == Tape::kNone ||
                                 !tape_.slot(validSlots_[o]).scalar.isZero());
  }
  for (Slot c : constraintSlots_)
    if (tape_.slot(c).scalar.isZero()) result.constraintsHeld = false;

  // Simultaneous state update: stage every next value before any state
  // slot changes (a next function may read another state directly).
  for (std::size_t i = 0; i < stateSlots_.size(); ++i)
    staged_[i] = tape_.slot(nextSlots_[i]);
  for (std::size_t i = 0; i < stateSlots_.size(); ++i)
    std::swap(tape_.slot(stateSlots_[i]), staged_[i]);
  return result;
}

}  // namespace dfv::ir
