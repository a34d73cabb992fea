// Synchronous transition systems over the word-level IR.
//
// A TransitionSystem is the formal model both sides of an equivalence check
// are reduced to: RTL netlists lower to one (src/rtl/lower.h) and conditioned
// SLMs elaborate to one (src/slmc/elaborate.h).  Semantics: at every step the
// environment supplies all inputs; outputs are functions of (state, inputs);
// then every state variable simultaneously takes its `next` value.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/eval.h"
#include "ir/expr.h"

namespace dfv::ir {

/// One state variable: current-state leaf, reset value, next-state function.
struct StateVar {
  NodeRef current = nullptr;  ///< kState leaf
  Value init;                 ///< reset value (matches sort)
  NodeRef next = nullptr;     ///< same sort as current

  const std::string& name() const { return current->name(); }
};

/// A named output.
struct OutputPort {
  std::string name;
  NodeRef expr = nullptr;

  /// Optional validity qualifier (1-bit): when present and false at a step,
  /// the output carries no meaningful data that step (e.g. a stream with a
  /// valid handshake).  Used by SEC output sampling and cosim scoreboards.
  NodeRef valid = nullptr;
};

/// A synchronous word-level transition system.
class TransitionSystem {
 public:
  explicit TransitionSystem(Context& ctx, std::string name = "ts")
      : ctx_(&ctx), name_(std::move(name)) {}

  Context& ctx() const { return *ctx_; }
  const std::string& name() const { return name_; }

  /// Declares an input; returns its leaf.
  NodeRef addInput(const std::string& name, Type type);
  NodeRef addInput(const std::string& name, unsigned width) {
    return addInput(name, Type{width, 0});
  }

  /// Declares a state variable with reset value `init`; `next` is set later
  /// via setNext (registers are often defined after the logic reading them).
  NodeRef addState(const std::string& name, Type type, Value init);
  NodeRef addState(const std::string& name, unsigned width,
                   std::uint64_t init) {
    return addState(name, Type{width, 0},
                    Value(bv::BitVector::fromUint(width, init)));
  }
  void setNext(NodeRef stateLeaf, NodeRef next);

  void addOutput(const std::string& name, NodeRef expr,
                 NodeRef valid = nullptr);

  /// Adds a 1-bit environment assumption, required to hold at every step.
  void addConstraint(NodeRef c);

  const std::vector<NodeRef>& inputs() const { return inputs_; }
  const std::vector<StateVar>& states() const { return states_; }
  const std::vector<OutputPort>& outputs() const { return outputs_; }
  const std::vector<NodeRef>& constraints() const { return constraints_; }

  NodeRef findInput(const std::string& name) const;
  const StateVar* findState(const std::string& name) const;
  const OutputPort* findOutput(const std::string& name) const;

  /// Checks completeness: every state has a next function of the right sort.
  void validate() const;

 private:
  Context* ctx_;
  std::string name_;
  std::vector<NodeRef> inputs_;
  std::vector<StateVar> states_;
  std::vector<OutputPort> outputs_;
  std::vector<NodeRef> constraints_;
};

/// Reference interpreter for a TransitionSystem: step-by-step simulation.
/// The output, valid, constraint and next-state cones are compiled into one
/// Tape at construction; a step writes the inputs into their slots, runs the
/// tape and swaps the next-state values into the state slots.
class TsSimulator {
 public:
  explicit TsSimulator(const TransitionSystem& ts);

  /// Resets all state variables to their init values.
  void reset();

  /// Result of one step: output values (and their valid bits, when qualified).
  struct StepResult {
    std::vector<Value> outputs;               ///< parallel to ts.outputs()
    std::vector<bool> outputValid;            ///< true when unqualified
    bool constraintsHeld = true;              ///< all constraints evaluated true
  };

  /// Applies `inputValues` (parallel to ts.inputs()), computes outputs, then
  /// advances the state.
  StepResult step(const std::vector<Value>& inputValues);

 private:
  using Slot = Tape::Slot;

  const TransitionSystem& ts_;
  Tape tape_;
  std::vector<Slot> inputSlots_, stateSlots_, nextSlots_;
  std::vector<Slot> outputSlots_, validSlots_, constraintSlots_;
  std::vector<Value> staged_;  ///< next-state values between run and swap
  std::string unboundLeaf_;    ///< first leaf neither an input nor a state
};

}  // namespace dfv::ir
