"""Sparse resistive-network (modified nodal analysis) engine.

This package is the reproduction of the electrical core of VoltSpot that
the paper builds on: a node/element netlist builder (:mod:`netlist`), the
sparse MNA assembly and LU solve (:mod:`solver`), and the solution object
exposing node voltages, per-branch currents and power bookkeeping
(:mod:`solution`).

The one non-standard element is the 2:1 switched-capacitor converter
stamp: an ideal 2:1 transformer (output voltage = the mean of its two
input rails) in series with the converter's output resistance, following
the compact model of paper Fig. 2.
"""

from repro.grid.backends import (
    Factorization,
    SolverBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
)
from repro.grid.netlist import Circuit, ElementRef
from repro.grid.solution import Solution
from repro.grid.solver import (
    AssembledCircuit,
    SolveDiagnostics,
    SolveOptions,
    SolveRequest,
)

__all__ = [
    "Circuit",
    "ElementRef",
    "AssembledCircuit",
    "SolveDiagnostics",
    "SolveOptions",
    "SolveRequest",
    "Solution",
    "SolverBackend",
    "Factorization",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
]
