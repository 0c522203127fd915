"""Program flow analysis via attribute evaluation.

* :mod:`repro.env.flow.minilang` -- the goto-less mini language.
* :mod:`repro.env.flow.cfg` -- control-flow graph construction.
* :mod:`repro.env.flow.analysis` -- reaching definitions, live variables,
  constant propagation, available expressions and the derived diagnostics
  (uninitialised uses, dead stores, folds, redundant computations), solved
  with the Farrow fixed-point evaluator so ``while`` loops (cyclic flow
  graphs) are supported -- the extension the paper says was "being
  incorporated into Cactis".
"""

from repro.env.flow.analysis import (
    AvailableExpressions,
    ConstantPropagation,
    Diagnostic,
    LiveVariables,
    ReachingDefinitions,
    attach_rhs_asts,
    available_expressions,
    constant_folds,
    constant_propagation,
    dead_stores,
    live_variables,
    reaching_definitions,
    redundant_computations,
    uninitialized_uses,
)
from repro.env.flow.cfg import CfgNode, ControlFlowGraph, build_cfg
from repro.env.flow.minilang import Program, parse_program, variables_used

__all__ = [
    "AvailableExpressions",
    "ConstantPropagation",
    "attach_rhs_asts",
    "available_expressions",
    "constant_folds",
    "constant_propagation",
    "redundant_computations",
    "CfgNode",
    "ControlFlowGraph",
    "Diagnostic",
    "LiveVariables",
    "Program",
    "ReachingDefinitions",
    "build_cfg",
    "dead_stores",
    "live_variables",
    "parse_program",
    "reaching_definitions",
    "uninitialized_uses",
    "variables_used",
]
