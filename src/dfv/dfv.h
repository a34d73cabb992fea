// Umbrella header for the DFV library.
//
// DFV reproduces "Design for Verification in System-level Models and RTL"
// (Mathur & Krishnaswamy, DAC 2007): system-level modeling, RTL, and the
// two verification paths between them — co-simulation with transactors and
// sequential equivalence checking — plus the model-conditioning toolchain
// the paper's guidelines call for.
//
// Layer map (each usable on its own):
//   dfv::bv    — HDL-semantics bit-vectors and sized integers
//   dfv::ir    — word-level expression IR and transition systems
//   dfv::rtl   — structural netlists, cycle simulation, lowering
//   dfv::slm   — coroutine-based SystemC-like modeling kernel
//   dfv::sat   — CDCL SAT solver
//   dfv::absint — word-level known-bits/interval abstract interpretation
//   dfv::aig   — and-inverter graphs, CNF encoding, bit-blasting
//   dfv::sec   — transaction-based sequential equivalence checking
//   dfv::slice — induction-sound COI slicing, ternary eval, seq constants
//   dfv::inv   — Houdini-certified inductive invariants for SEC induction
//   dfv::fp    — IEEE-754 and simplified-hardware floating point
//   dfv::cosim — transactors, wrapped-RTL, timing-aligning scoreboards
//   dfv::slmc  — conditioned algorithmic models: interp, lint, elaborate
//   dfv::drc   — cross-layer design-rule checking and diagnostics
//   dfv::fault — deterministic fault injection for flow robustness tests
//   dfv::core  — verification plans with incremental re-verification,
//                DRC gating, resilient (retry/degrade) execution, and a
//                crash-durable write-ahead journal with resume
//   dfv::designs / dfv::workload — reference design pairs and stimulus
#pragma once

#include "absint/analysis.h"        // IWYU pragma: export
#include "aig/cnf.h"                // IWYU pragma: export
#include "aig/fraig.h"              // IWYU pragma: export
#include "aig/frame.h"              // IWYU pragma: export
#include "bitvec/bitvector.h"       // IWYU pragma: export
#include "bitvec/hdl_int.h"         // IWYU pragma: export
#include "core/journal.h"           // IWYU pragma: export
#include "core/parallel.h"          // IWYU pragma: export
#include "core/plan.h"              // IWYU pragma: export
#include "core/resilient.h"         // IWYU pragma: export
#include "cosim/rtl_in_slm.h"       // IWYU pragma: export
#include "cosim/scoreboard.h"       // IWYU pragma: export
#include "cosim/wrapped_rtl.h"      // IWYU pragma: export
#include "drc/drc.h"                // IWYU pragma: export
#include "fault/fault.h"            // IWYU pragma: export
#include "fp/circuits.h"            // IWYU pragma: export
#include "fp/softfloat.h"           // IWYU pragma: export
#include "inv/inv.h"                // IWYU pragma: export
#include "ir/eval.h"                // IWYU pragma: export
#include "ir/expr.h"                // IWYU pragma: export
#include "ir/transition_system.h"   // IWYU pragma: export
#include "rtl/lower.h"              // IWYU pragma: export
#include "rtl/netlist.h"            // IWYU pragma: export
#include "rtl/sim.h"                // IWYU pragma: export
#include "sat/solver.h"             // IWYU pragma: export
#include "sec/engine.h"             // IWYU pragma: export
#include "sec/transaction.h"        // IWYU pragma: export
#include "slice/slice.h"            // IWYU pragma: export
#include "slice/ternary.h"          // IWYU pragma: export
#include "slm/channels.h"           // IWYU pragma: export
#include "slm/kernel.h"             // IWYU pragma: export
#include "slmc/elaborate.h"         // IWYU pragma: export
#include "slmc/interp.h"            // IWYU pragma: export
#include "slmc/lint.h"              // IWYU pragma: export
