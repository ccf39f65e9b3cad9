"""MNA assembly, pluggable sparse factorisation, and the resilient solve path.

:class:`AssembledCircuit` freezes a :class:`repro.grid.netlist.Circuit`
topology into a sparse MNA matrix, factorises it once through a
:class:`repro.grid.backends.SolverBackend` (``lu`` — SuperLU via
``scipy.sparse.linalg.splu`` — by default) and then solves for any set
of source values.  Because independent sources only enter the
right-hand side, parameter sweeps over load currents — the inner loop
of every experiment in the paper — reuse the factorisation and cost
only a triangular solve.

The one entry point is ``solve(request)`` with a
:class:`SolveRequest` (one operating point or a batch) carrying typed
:class:`SolveOptions` (resilient, backend override).

Fault-injected netlists (see :mod:`repro.faults`) can leave the system
singular: an opened TSV tier floats a whole layer, a dead converter bank
floats an intermediate rail.  ``SolveOptions(resilient=True)`` refuses
to die on such inputs.  Before declaring defeat it

1. detects floating subnetworks with
   ``scipy.sparse.csgraph.connected_components`` over the conduction
   graph, prunes them (their nodes are grounded, their loads shed) and
   records what was dropped in a :class:`SolveDiagnostics`;
2. pins any remaining structurally-empty MNA rows with identity
   stamps (dead source/converter branches);
3. climbs a solver **escalation ladder**: on the full, then the pruned
   system, the selected backend's direct solve (one that cannot
   factorise falls back to ``lu`` as its own rung, with a one-line
   structured-log notice), then ``lu`` unless already tried, each
   followed by iterative refinement (gated on ``supports_refine`` and
   the cached 1-norm condition estimate); then a Jacobi-preconditioned
   LGMRES iteration, and finally a dense least-squares solve for small
   systems.  Every rung climbed is recorded in
   :attr:`SolveDiagnostics.escalations`.

Only when the whole ladder fails does it raise — always a typed
:class:`repro.errors.ReproError` subclass carrying the diagnostics,
never a bare SciPy exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import lgmres

from repro.errors import (
    ConvergenceError,
    FaultInjectionError,
    SingularCircuitError,
)
from repro.grid.backends import (
    Factorization,
    SolverBackend,
    get_backend,
    jacobi_preconditioner,
    notice_once,
    resolve_backend,
)
from repro.grid.netlist import CONVERTER, ISOURCE, RESISTOR, VSOURCE, Circuit
from repro.obs.trace import get_tracer
from repro.grid.solution import Solution
from repro.utils.validation import check_finite_array

__all__ = [
    "AssembledCircuit",
    "SolveDiagnostics",
    "SolveOptions",
    "SolveRequest",
    "SingularCircuitError",
    "ConvergenceError",
]


@dataclass(frozen=True)
class SolveOptions:
    """Typed knobs of a solve, independent of the operating point.

    ``resilient``
        Climb the escalation ladder instead of failing fast on a
        singular or ill-conditioned system.
    ``backend``
        Per-request override of the assembly's solver backend, by
        registry name (see :mod:`repro.grid.backends`).  ``None`` uses
        the backend the circuit was assembled with.
    """

    resilient: bool = False
    backend: Optional[str] = None


@dataclass(eq=False)
class SolveRequest:
    """One solve: a single operating point or a batch of them.

    Exactly one of the single-point form (``isource_current`` /
    ``vsource_voltage`` overrides, both optional) or the batched form
    (``isource_currents``: a sequence of per-point load-current
    overrides, ``None`` entries meaning stored values) may be used.
    ``AssembledCircuit.solve`` returns a single
    :class:`~repro.grid.solution.Solution` for the former and a list
    for the latter.
    """

    isource_current: Optional[np.ndarray] = None
    vsource_voltage: Optional[np.ndarray] = None
    isource_currents: Optional[Sequence[Optional[np.ndarray]]] = None
    options: SolveOptions = field(default_factory=SolveOptions)

    def __post_init__(self):
        if self.isource_current is not None and self.isource_currents is not None:
            raise ValueError(
                "SolveRequest takes isource_current (single point) or "
                "isource_currents (batch), not both"
            )

    @property
    def batched(self) -> bool:
        return self.isource_currents is not None


@dataclass
class SolveDiagnostics:
    """Structured record of what the resilient solve path had to do.

    A clean direct solve leaves every count at zero and ``fallback`` at
    ``"none"``; anything else means the circuit was degraded and the
    returned operating point describes the *pruned* network.
    """

    #: Floating subnetworks detected (connected components without ground).
    n_islands: int = 0
    #: Node ids grounded away with their islands.
    dropped_nodes: List[int] = field(default_factory=list)
    #: Current sources disconnected because they fed a floating island.
    shed_loads: int = 0
    #: Structurally-empty MNA rows pinned with an identity stamp.
    stabilized_rows: int = 0
    #: Solver that produced the answer: "none" (direct solves, pruned or
    #: not), "refined" (iterative refinement), "iterative" (the
    #: Jacobi-LGMRES fallback) or "lstsq" (dense least squares).
    fallback: str = "none"
    #: Escalation-ladder rungs visited, in order: the selected backend's
    #: direct solve (named after it, so "lu" by default), then "lu" (in
    #: rung when the backend cannot factorise, explicit when it fails
    #: later), "refine" after any direct rung, the same on the pruned
    #: system ("pruned-<backend>", "pruned-lu"), "lgmres", "lstsq".  A
    #: clean default solve is just ["lu"].
    escalations: List[str] = field(default_factory=list)
    #: Wall time spent on each rung, parallel to ``escalations``, so
    #: ladder cost is attributable per rung (batched clean columns get
    #: an equal share of their batch's direct-solve time).
    escalation_times_s: List[float] = field(default_factory=list)
    #: Iteration count of the fallback solver (0 for direct solves).
    iterations: int = 0
    #: Relative residual of the accepted solution.
    residual: float = 0.0
    #: One-norm condition estimate of the (possibly pruned) MNA matrix,
    #: when a factorisation was available to compute it.  Cached on the
    #: factorisation object, so repeated solves against one
    #: factorisation estimate it once.
    condition_estimate: Optional[float] = None
    #: Registry name of the solver backend this solve ran under.
    backend: str = "lu"
    #: ``repro.contracts.ContractReport`` of the physics-contract checks
    #: run against the result built from this solve, when checking is
    #: enabled (attached by the PDN layer, not the raw solver).
    contracts: Optional[object] = None

    @property
    def n_dropped_nodes(self) -> int:
        return len(self.dropped_nodes)

    @property
    def degraded(self) -> bool:
        """True when the solution describes a pruned or fallback solve."""
        return bool(
            self.n_islands
            or self.stabilized_rows
            or self.shed_loads
            or self.fallback != "none"
        )

    def summary(self) -> str:
        if not self.degraded:
            return f"clean solve (residual {self.residual:.1e})"
        return (
            f"degraded solve: {self.n_islands} island(s), "
            f"{self.n_dropped_nodes} node(s) grounded, "
            f"{self.shed_loads} load(s) shed, "
            f"{self.stabilized_rows} row(s) pinned, "
            f"fallback={self.fallback}, residual {self.residual:.1e}"
        )


class _RungTimer:
    """Tracks the escalation ladder: rung names plus per-rung wall time.

    The impl calls :meth:`start` at each rung transition; the public
    wrapper calls :meth:`finish` exactly once (on return *or* on raise)
    to close the last rung, stamp the diagnostics, and emit one trace
    span per rung so ladder cost shows up in ``repro trace``.
    """

    __slots__ = ("names", "times", "_t")

    def __init__(self):
        self.names: List[str] = []
        self.times: List[float] = []
        self._t: Optional[float] = None

    def start(self, name: str) -> None:
        self._close()
        self.names.append(name)
        self._t = time.perf_counter()

    def _close(self) -> None:
        if self._t is not None:
            self.times.append(time.perf_counter() - self._t)
            self._t = None

    def finish(self, diag: Optional[SolveDiagnostics]) -> None:
        self._close()
        if diag is not None:
            diag.escalation_times_s = list(self.times)
        tracer = get_tracer()
        if tracer.enabled:
            for name, elapsed in zip(self.names, self.times):
                tracer.record("rung", elapsed, rung=name)


#: Cache sentinel: this backend already failed to factorise this matrix.
_FACT_FAILED = object()


class AssembledCircuit:
    """A factorised MNA system ready for repeated right-hand-side solves.

    The unknown vector is laid out as ``[node voltages (ground dropped),
    voltage-source branch currents, converter output currents]``.

    ``backend`` selects the :class:`repro.grid.backends.SolverBackend`
    used for direct factorisations (name, backend object, or ``None``
    for the process default — ``--solver`` / ``REPRO_SOLVER`` / "lu").
    Factorisations are cached per (backend, full-or-pruned matrix), so
    a per-request backend override pays its factorisation once.
    """

    #: Relative residual above which a solve is reported as singular.
    RESIDUAL_TOLERANCE = 1e-6
    #: Iteration budget for the Jacobi-LGMRES fallback.
    MAX_FALLBACK_ITERATIONS = 2000
    #: Iterative-refinement passes against an existing factorisation.
    MAX_REFINEMENT_PASSES = 3
    #: Refinement is skipped when the 1-norm condition estimate exceeds
    #: this (refinement cannot recover digits that no longer exist).
    REFINE_CONDITION_LIMIT = 1e14
    #: Dense least-squares last resort is only attempted below this
    #: dimension (it materialises the full matrix).
    LSTSQ_MAX_DIMENSION = 3000

    def __init__(
        self,
        circuit: Circuit,
        backend: Union[None, str, SolverBackend] = None,
    ):
        if circuit.ground is None:
            raise ValueError("circuit has no ground: call Circuit.set_ground() first")
        if circuit.count(RESISTOR) == 0 and circuit.count(VSOURCE) == 0:
            raise ValueError("circuit has no conducting elements")
        self.circuit = circuit
        self.backend = resolve_backend(backend)
        self._revision = circuit.revision
        self._ground = circuit.ground
        self._n_nodes = circuit.node_count
        self._nv = circuit.count(VSOURCE)
        self._nc = circuit.count(CONVERTER)
        self.dimension = (self._n_nodes - 1) + self._nv + self._nc
        # Only the CSC matrix is kept: the COO stamps are recomputed by
        # the pruning rung, the one other reader.
        with get_tracer().span("assemble") as span:
            rows, cols, vals = self._collect_stamps()
            self._matrix = coo_matrix(
                (vals, (rows, cols)), shape=(self.dimension, self.dimension)
            ).tocsc()
            span.set(dimension=self.dimension, nnz=int(self._matrix.nnz))
        #: Factorisation cache: (backend name, "full"|"pruned") ->
        #: Factorization | _FACT_FAILED.  Pruned entries are dropped
        #: whenever the pruned system is rebuilt.
        self._facts: dict = {}
        self._fact_errors: dict = {}
        #: Matrix rows zeroed by pruning/pinning; their RHS entries are
        #: forced to zero.  Empty until the resilient path prunes.
        self._forced_zero_rows: np.ndarray = np.empty(0, dtype=int)
        self._pruned_matrix = None
        self._diagnostics_template: Optional[SolveDiagnostics] = None
        self._island_node_mask: Optional[np.ndarray] = None
        self._shed_isource_mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _row_of(self, node_ids: np.ndarray) -> np.ndarray:
        """Map node ids to matrix rows; the ground node maps to -1."""
        rows = np.where(node_ids < self._ground, node_ids, node_ids - 1)
        rows = np.where(node_ids == self._ground, -1, rows)
        return rows

    def _collect_stamps(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw COO stamps of the MNA matrix, honouring element activity."""
        circuit = self.circuit
        rows_parts = []
        cols_parts = []
        vals_parts = []

        def stamp(rows, cols, vals):
            rows = np.asarray(rows)
            cols = np.asarray(cols)
            vals = np.asarray(vals, dtype=float)
            keep = (rows >= 0) & (cols >= 0)
            rows_parts.append(rows[keep])
            cols_parts.append(cols[keep])
            vals_parts.append(vals[keep])

        # --- resistors -------------------------------------------------
        res = circuit.store(RESISTOR)
        if len(res):
            act = res.active
            n1 = self._row_of(res.column("n1")[act])
            n2 = self._row_of(res.column("n2")[act])
            g = 1.0 / res.column("resistance")[act]
            stamp(n1, n1, g)
            stamp(n2, n2, g)
            stamp(n1, n2, -g)
            stamp(n2, n1, -g)

        nv_offset = self._n_nodes - 1
        nc_offset = nv_offset + self._nv

        # --- voltage sources --------------------------------------------
        vsrc = circuit.store(VSOURCE)
        if len(vsrc):
            act = vsrc.active
            pos = self._row_of(vsrc.column("pos"))
            neg = self._row_of(vsrc.column("neg"))
            k = nv_offset + np.arange(self._nv)
            ones = np.ones(self._nv)
            # Live sources get the usual coupling + constraint stamps;
            # failed-open sources keep only an identity row pinning their
            # branch current to the (zeroed) RHS entry.
            stamp(pos[act], k[act], ones[act])
            stamp(neg[act], k[act], -ones[act])
            stamp(k[act], pos[act], ones[act])
            stamp(k[act], neg[act], -ones[act])
            dead = ~act
            if dead.any():
                stamp(k[dead], k[dead], ones[dead])

        # --- SC converters ------------------------------------------------
        conv = circuit.store(CONVERTER)
        if len(conv):
            act = conv.active
            top = self._row_of(conv.column("top"))
            bottom = self._row_of(conv.column("bottom"))
            mid = self._row_of(conv.column("mid"))
            rser = conv.column("r_series")
            k = nc_offset + np.arange(self._nc)
            half = np.full(self._nc, 0.5)
            ones = np.ones(self._nc)
            # KCL: output current j enters mid; j/2 is drawn from each rail.
            stamp(top[act], k[act], half[act])
            stamp(bottom[act], k[act], half[act])
            stamp(mid[act], k[act], -ones[act])
            # Constraint: v_mid - (v_top + v_bottom)/2 + j * r_series = 0.
            stamp(k[act], mid[act], ones[act])
            stamp(k[act], top[act], -half[act])
            stamp(k[act], bottom[act], -half[act])
            stamp(k[act], k[act], rser[act])
            dead = ~act
            if dead.any():  # pin the dead converters' output current to 0
                stamp(k[dead], k[dead], ones[dead])

        rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, dtype=int)
        cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=int)
        vals = np.concatenate(vals_parts) if vals_parts else np.empty(0)
        return rows, cols, vals

    # ------------------------------------------------------------------
    def _resolve_sources(
        self,
        isource_current: Optional[np.ndarray],
        vsource_voltage: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Validate the source value vectors (overrides or stored).

        Failed-open sources are zeroed; non-finite overrides are rejected
        with a ``ValueError`` naming the offending element index.
        """
        circuit = self.circuit
        isrc = circuit.store(ISOURCE)
        if isource_current is None:
            current = isrc.column("current")
        else:
            current = check_finite_array("isource_current", isource_current)
        if len(current) != len(isrc):
            raise ValueError(
                f"isource_current must have length {len(isrc)}, got {len(current)}"
            )
        if len(isrc):
            current = np.where(isrc.active, current, 0.0)

        vsrc = circuit.store(VSOURCE)
        if vsource_voltage is None:
            voltage = vsrc.column("voltage")
        else:
            voltage = check_finite_array("vsource_voltage", vsource_voltage)
        if len(voltage) != len(vsrc):
            raise ValueError(
                f"vsource_voltage must have length {len(vsrc)}, got {len(voltage)}"
            )
        if len(vsrc):
            voltage = np.where(vsrc.active, voltage, 0.0)
        return current, voltage

    def _rhs(self, current: np.ndarray, voltage: np.ndarray) -> np.ndarray:
        """Assemble the RHS from resolved source value vectors."""
        circuit = self.circuit
        z = np.zeros(self.dimension)
        isrc = circuit.store(ISOURCE)
        if len(isrc):
            src = self._row_of(isrc.column("src"))
            dst = self._row_of(isrc.column("dst"))
            np.add.at(z, src[src >= 0], -current[src >= 0])
            np.add.at(z, dst[dst >= 0], current[dst >= 0])
        if len(circuit.store(VSOURCE)):
            z[self._n_nodes - 1 : self._n_nodes - 1 + self._nv] = voltage
        return z

    # ------------------------------------------------------------------
    # island analysis and pruning
    # ------------------------------------------------------------------
    def _conduction_graph(self):
        """Sparse node-adjacency graph of every *active* conducting path."""
        circuit = self.circuit
        edges_u = []
        edges_v = []

        res = circuit.store(RESISTOR)
        if len(res):
            act = res.active
            edges_u.append(res.column("n1")[act])
            edges_v.append(res.column("n2")[act])

        vsrc = circuit.store(VSOURCE)
        if len(vsrc):
            act = vsrc.active
            edges_u.append(vsrc.column("pos")[act])
            edges_v.append(vsrc.column("neg")[act])

        conv = circuit.store(CONVERTER)
        if len(conv):
            act = conv.active
            for a, b in (("top", "mid"), ("bottom", "mid"), ("top", "bottom")):
                edges_u.append(conv.column(a)[act])
                edges_v.append(conv.column(b)[act])

        n = self._n_nodes
        if not edges_u:
            return coo_matrix((n, n))
        u = np.concatenate(edges_u)
        v = np.concatenate(edges_v)
        return coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))

    def find_islands(self) -> Tuple[int, np.ndarray]:
        """Detect floating subnetworks.

        Returns ``(n_islands, island_node_mask)`` where the mask is a
        boolean per-node array, True for every node not connected to
        ground through any conducting element.
        """
        graph = self._conduction_graph()
        n_components, labels = connected_components(graph, directed=False)
        ground_label = labels[self._ground]
        island_mask = labels != ground_label
        island_labels = np.unique(labels[island_mask])
        return len(island_labels), island_mask

    def _build_pruned_system(self) -> SolveDiagnostics:
        """Ground floating islands and pin empty rows; cache the result.

        The stamps are recomputed from the netlist, which the revision
        check guarantees is the one this system was assembled from.
        """
        self._check_revision()
        diag = SolveDiagnostics()
        n_islands, island_mask = self.find_islands()
        diag.n_islands = n_islands
        diag.dropped_nodes = [int(i) for i in np.flatnonzero(island_mask)]

        # A load with either terminal in an island is fully disconnected:
        # zeroing only the island side would leave it pumping current into
        # the live network with no return path.
        isrc = self.circuit.store(ISOURCE)
        self._shed_isource_mask = np.zeros(len(isrc), dtype=bool)
        if len(isrc) and island_mask.any():
            act = isrc.active
            src_in = island_mask[isrc.column("src")]
            dst_in = island_mask[isrc.column("dst")]
            self._shed_isource_mask = act & (src_in | dst_in)
            diag.shed_loads = int(np.sum(self._shed_isource_mask))

        rows, cols, vals = self._collect_stamps()
        pruned_row_ids = self._row_of(np.flatnonzero(island_mask))
        pruned_row_ids = pruned_row_ids[pruned_row_ids >= 0]
        pruned_set = np.zeros(self.dimension, dtype=bool)
        pruned_set[pruned_row_ids] = True

        keep = ~(pruned_set[rows] | pruned_set[cols])
        rows2 = rows[keep]
        cols2 = cols[keep]
        vals2 = vals[keep]

        # Identity stamps ground the pruned node rows.
        if pruned_row_ids.size:
            rows2 = np.concatenate([rows2, pruned_row_ids])
            cols2 = np.concatenate([cols2, pruned_row_ids])
            vals2 = np.concatenate([vals2, np.ones(pruned_row_ids.size)])

        # Any row left with no stamps at all (dead source branches whose
        # terminals were pruned, degenerate topologies) is pinned too.
        occupancy = np.bincount(rows2, minlength=self.dimension)
        empty_rows = np.flatnonzero(occupancy == 0)
        diag.stabilized_rows = int(empty_rows.size)
        if empty_rows.size:
            rows2 = np.concatenate([rows2, empty_rows])
            cols2 = np.concatenate([cols2, empty_rows])
            vals2 = np.concatenate([vals2, np.ones(empty_rows.size)])

        self._forced_zero_rows = np.union1d(pruned_row_ids, empty_rows)
        self._pruned_matrix = coo_matrix(
            (vals2, (rows2, cols2)), shape=(self.dimension, self.dimension)
        ).tocsc()
        # The pruned matrix changed: every cached pruned factorisation
        # (and its cached condition estimate) is stale.
        self._facts = {k: v for k, v in self._facts.items() if k[1] != "pruned"}
        self._fact_errors = {
            k: v for k, v in self._fact_errors.items() if k[1] != "pruned"
        }
        self._island_node_mask = island_mask
        return diag

    # ------------------------------------------------------------------
    # factorisation cache
    # ------------------------------------------------------------------
    def _factorization(
        self, backend: SolverBackend, pruned: bool = False
    ) -> Optional[Factorization]:
        """Cached factorisation of the full or pruned matrix by ``backend``.

        Returns None when the backend cannot factorise that matrix (the
        failure is cached too, so each backend attempts each matrix at
        most once; the triggering exception lands in ``_fact_errors``).
        """
        key = (backend.name, "pruned" if pruned else "full")
        fact = self._facts.get(key)
        if fact is None:
            matrix = self._pruned_matrix if pruned else self._matrix
            try:
                fact = backend.factorize(matrix)
            except (RuntimeError, ValueError) as exc:
                self._fact_errors[key] = exc
                fact = _FACT_FAILED
            self._facts[key] = fact
        return None if fact is _FACT_FAILED else fact

    def _fallback_factorization(
        self,
        backend: SolverBackend,
        pruned: bool = False,
        timer: Optional[_RungTimer] = None,
    ) -> Tuple[Optional[Factorization], str]:
        """The backend's factorisation, or the ``lu`` fallback.

        A non-``lu`` backend that cannot factorise (non-SPD input, say)
        degrades to ``lu`` with a one-line structured-log notice; under
        a resilient timer the fallback is timed as its own ladder rung,
        so a failed cholesky rung escalates exactly like a failed LU
        rung.  Returns ``(factorisation or None, rung name)``.
        """
        prefix = "pruned-" if pruned else ""
        fact = self._factorization(backend, pruned)
        if fact is not None or backend.name == "lu":
            return fact, prefix + backend.name
        exc = self._fact_errors.get((backend.name, "pruned" if pruned else "full"))
        notice_once(
            f"{backend.name}-lu-fallback",
            f"solver backend '{backend.name}' could not factorize this "
            f"system ({exc}); falling back to lu",
            backend=backend.name,
        )
        if timer is not None:
            timer.start(prefix + "lu")
        return self._factorization(get_backend("lu"), pruned), prefix + "lu"

    @property
    def factorization(self) -> Optional[Factorization]:
        """The cached full-matrix factorisation strict solves use.

        The assembly backend's own, or its ``lu`` fallback's when the
        backend refused the matrix; None before :meth:`factorize` or
        when neither could factorise it.
        """
        for name in (self.backend.name, "lu"):
            fact = self._facts.get((name, "full"))
            if fact not in (None, _FACT_FAILED):
                return fact
        return None

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _check_revision(self) -> None:
        if self.circuit.revision != self._revision:
            raise FaultInjectionError(
                "circuit was modified after assembly (fault injection?); "
                "call Circuit.assemble() again to pick up the changes"
            )

    def _relative_residual(self, matrix, x, z) -> float:
        residual = np.linalg.norm(matrix @ x - z)
        scale = max(1.0, float(np.linalg.norm(z)))
        return residual / scale

    def _direct_rung(
        self,
        fact: Optional[Factorization],
        matrix,
        z: np.ndarray,
        diag: SolveDiagnostics,
        timer: _RungTimer,
    ) -> Optional[np.ndarray]:
        """Solve with ``fact``, then refine while it helps.

        Refinement (``x += fact.solve(z - A x)``, at most
        ``MAX_REFINEMENT_PASSES``) runs only when ``fact.supports_refine``
        and the condition estimate leaves digits to win back.  Returns
        the accepted answer, recorded in ``diag``, or None.
        """
        if fact is None:
            return None
        try:
            x = fact.solve(z)
        except (RuntimeError, ValueError):
            return None
        if not np.all(np.isfinite(x)):
            return None
        tol = self.RESIDUAL_TOLERANCE
        rel = self._relative_residual(matrix, x, z)
        cond = diag.condition_estimate = fact.condition_estimate()
        if rel > tol:
            if not fact.supports_refine or (
                cond is not None and cond >= self.REFINE_CONDITION_LIMIT
            ):
                return None
            timer.start("refine")
            for _ in range(self.MAX_REFINEMENT_PASSES):
                dx = fact.solve(z - matrix @ x)
                if not np.all(np.isfinite(dx)):
                    break
                refined = x + dx
                refined_rel = self._relative_residual(matrix, refined, z)
                if refined_rel >= rel:  # stalled or diverged
                    break
                x, rel = refined, refined_rel
                if rel <= tol:
                    break
            if rel > tol:
                return None
            diag.fallback = "refined"
        diag.residual = rel
        return x

    def _direct_rungs(
        self,
        backend: SolverBackend,
        z: np.ndarray,
        diag: SolveDiagnostics,
        timer: _RungTimer,
        pruned: bool,
    ) -> Optional[np.ndarray]:
        """The direct rungs on the full or the pruned system.

        The backend's rung (already started on ``timer``; a backend
        that cannot factorise falls back to ``lu`` in-rung), then an
        explicit ``lu`` rung unless ``lu`` was already tried on this
        system: a backend that fails at solve time or misses the
        tolerance is never worse than ``lu`` under resilience.  Each
        rung is a :meth:`_direct_rung`.
        """
        matrix = self._pruned_matrix if pruned else self._matrix
        lu_rung = "pruned-lu" if pruned else "lu"
        fact, rung = self._fallback_factorization(backend, pruned, timer)
        x = self._direct_rung(fact, matrix, z, diag, timer)
        if x is None and rung != lu_rung:
            timer.start(lu_rung)
            fact = self._factorization(get_backend("lu"), pruned)
            x = self._direct_rung(fact, matrix, z, diag, timer)
        return x

    def _lstsq_attempt(self, matrix, z, diag: SolveDiagnostics):
        """Dense least-squares last resort for small systems.

        Returns the answer when it meets the tolerance (recorded in
        ``diag``), else None; systems too large to densify are skipped.
        """
        if self.dimension > self.LSTSQ_MAX_DIMENSION:
            return None
        try:
            x, *_ = np.linalg.lstsq(matrix.toarray(), z, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(x)):
            return None
        rel = self._relative_residual(matrix, x, z)
        if rel > self.RESIDUAL_TOLERANCE:
            return None
        diag.residual = rel
        diag.fallback = "lstsq"
        return x

    def _iterative_attempt(self, matrix, z, diag: SolveDiagnostics):
        """Jacobi-preconditioned LGMRES fallback for near-singular systems.

        Returns the answer when LGMRES converged, with its residual in
        ``diag`` (which may still miss the tolerance), else None.
        """
        preconditioner = jacobi_preconditioner(matrix)
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        x, info = lgmres(
            matrix,
            z,
            M=preconditioner,
            rtol=self.RESIDUAL_TOLERANCE * 1e-2,
            atol=0.0,
            maxiter=self.MAX_FALLBACK_ITERATIONS,
            callback=count,
        )
        diag.fallback = "iterative"
        diag.iterations = iterations
        if info != 0 or not np.all(np.isfinite(x)):
            return None
        diag.residual = self._relative_residual(matrix, x, z)
        return x

    def solve(
        self, request: Optional[SolveRequest] = None
    ) -> Union[Solution, List[Solution]]:
        """Solve one operating point or a batch of them.

        Takes a :class:`SolveRequest`::

            assembled.solve(SolveRequest(
                isource_current=currents,
                options=SolveOptions(resilient=True),
            ))

        and returns one :class:`~repro.grid.solution.Solution` (or a
        list of them for a batched request, in input order); ``solve()``
        with no request solves the stored operating point.  With
        ``SolveOptions(resilient=True)`` a singular or near-singular
        system is not fatal: floating subnetworks are pruned (grounded,
        their loads shed) and the escalation ladder is climbed before
        raising; the returned Solution then carries a
        :class:`SolveDiagnostics` describing every measure taken.

        Raises
        ------
        TypeError
            ``request`` is not a :class:`SolveRequest`.
        repro.errors.SingularCircuitError
            The system has no unique solution (and, in resilient mode,
            pruning did not make it solvable).
        repro.errors.ConvergenceError
            An iterative solve ran out of iterations.
        repro.errors.FaultInjectionError
            The circuit was mutated after assembly.
        """
        if request is None:
            request = SolveRequest()
        elif not isinstance(request, SolveRequest):
            raise TypeError(
                "AssembledCircuit.solve() takes a SolveRequest, got "
                f"{type(request).__name__}"
            )
        self._check_revision()
        options = request.options
        backend = (
            resolve_backend(options.backend)
            if options.backend is not None
            else self.backend
        )
        if request.batched:
            resolved = [
                self._resolve_sources(currents, request.vsource_voltage)
                for currents in request.isource_currents
            ]
            if not resolved:
                return []
            if options.resilient:
                return self._solve_resilient_batch(resolved, backend)
            z = np.column_stack([self._rhs(c, v) for c, v in resolved])
            x = self._solve_strict(z, backend)
            return [
                Solution(
                    assembled=self,
                    x=x[:, i],
                    isource_current=resolved[i][0],
                    vsource_voltage=resolved[i][1],
                )
                for i in range(len(resolved))
            ]
        current, voltage = self._resolve_sources(
            request.isource_current, request.vsource_voltage
        )
        if options.resilient:
            x, diag, current = self._solve_resilient(current, voltage, backend)
        else:
            x = self._solve_strict(self._rhs(current, voltage), backend)
            diag = None
        return Solution(
            assembled=self,
            x=x,
            isource_current=current,
            vsource_voltage=voltage,
            diagnostics=diag,
        )

    def factorize(self, backend: Union[None, str, SolverBackend] = None) -> bool:
        """Eagerly factorise the full MNA matrix.

        Normally the factorisation happens lazily inside the first
        :meth:`solve`; the sweep engine calls this explicitly so build,
        factorise and solve time can be attributed to separate stages.
        A non-``lu`` backend that cannot factorise warms its ``lu``
        fallback here too, so the degraded path is also paid in the
        factorise stage.  Returns False (instead of raising) when no
        direct factorisation is obtainable, leaving the resilient path
        to deal with it later.
        """
        chosen = self.backend if backend is None else resolve_backend(backend)
        fact, _ = self._fallback_factorization(chosen)
        return fact is not None

    def _batch_residuals(self, matrix, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Per-column relative residuals of a multi-RHS solve."""
        residual = np.linalg.norm(matrix @ x - z, axis=0)
        scale = np.maximum(1.0, np.linalg.norm(z, axis=0))
        return residual / scale

    def _solve_resilient_batch(
        self, resolved, backend: SolverBackend
    ) -> List[Solution]:
        """Batched mirror of :meth:`_solve_resilient`.

        Columns whose full-system direct solve meets the residual
        tolerance keep the un-pruned multi-RHS answer (clean
        diagnostics); every failing column then climbs the full
        per-point escalation ladder — refinement, pruning, LGMRES,
        lstsq — exactly as :meth:`solve` would.  A clean column of a
        multi-column batch may differ from a one-column solve in its
        last bits (see :meth:`repro.pdn.builder.BasePDN3D.solve_batch`).
        """
        z = np.column_stack([self._rhs(c, v) for c, v in resolved])

        # 1. Plain direct multi-RHS solve on the full system.  Clean
        # columns report the per-point ladder: a backend that refused
        # the matrix is a rung of its own before the lu that answered.
        fact, rung = self._fallback_factorization(backend)
        refused = [backend.name] if rung != backend.name else []
        x, clean = None, set()
        if fact is not None:
            t0 = time.perf_counter()
            try:
                x = fact.solve_batch(z)
            except (RuntimeError, ValueError):
                pass
            if x is not None:
                finite = np.all(np.isfinite(x), axis=0)
                rel = self._batch_residuals(self._matrix, x, z)
                batch_elapsed = time.perf_counter() - t0
                clean = {
                    i
                    for i in range(len(resolved))
                    if finite[i] and rel[i] <= self.RESIDUAL_TOLERANCE
                }
                # Clean columns share the batch's direct-solve wall
                # equally; exact per-column cost of one multi-RHS
                # triangular solve is not separable, and the shares sum
                # to the measured total.  A refused rung costs nothing
                # here: its failure was cached when it was factorised.
                lu_share = batch_elapsed / len(clean) if clean else 0.0
                if clean:
                    tracer = get_tracer()
                    for name in refused:
                        tracer.record("rung", 0.0, rung=name, count=len(clean))
                    tracer.record(
                        "rung", batch_elapsed, rung=rung, count=len(clean)
                    )

        # 2. Clean columns keep the batched answer; failing ones climb
        # the per-point escalation ladder (sharing this assembly's
        # cached pruned system and factorisations).
        solutions = []
        for i, (current, voltage) in enumerate(resolved):
            if i in clean:
                x_i, effective = x[:, i], current
                diag = SolveDiagnostics(
                    residual=float(rel[i]),
                    escalations=refused + [rung],
                    escalation_times_s=[0.0] * len(refused) + [lu_share],
                    backend=backend.name,
                    condition_estimate=fact.condition_estimate(),
                )
            else:
                x_i, diag, effective = self._solve_resilient(
                    current, voltage, backend
                )
            solutions.append(
                Solution(
                    assembled=self,
                    x=x_i,
                    isource_current=effective,
                    vsource_voltage=voltage,
                    diagnostics=diag,
                )
            )
        return solutions

    def _solve_strict(
        self, z: np.ndarray, backend: Optional[SolverBackend] = None
    ) -> np.ndarray:
        """The historical fail-fast path: one direct solve or a typed error."""
        backend = self.backend if backend is None else backend
        # Strict solves count as a clean direct rung in the engine's
        # escalation tally; the matching span lets trace and BENCH
        # attribute the ladder identically.  A solve that raises leaves
        # its span with status "error".
        count = int(z.shape[1]) if z.ndim == 2 else 1
        with get_tracer().span("rung", rung=backend.name, count=count) as rung_span:
            fact, rung = self._fallback_factorization(backend)
            rung_span.set(rung=rung)
            if fact is None:
                exc = self._fact_errors.get(("lu", "full")) or self._fact_errors.get(
                    (backend.name, "full")
                )
                raise SingularCircuitError(
                    f"MNA matrix is singular ({exc}); check for floating nodes"
                ) from exc
            x = fact.solve_batch(z) if z.ndim == 2 else fact.solve(z)
            if not np.all(np.isfinite(x)):
                raise SingularCircuitError("solve produced non-finite voltages")
            if z.ndim == 2:  # multi-RHS: every column must meet the tolerance
                rel = float(self._batch_residuals(self._matrix, x, z).max())
            else:
                rel = self._relative_residual(self._matrix, x, z)
            if rel > self.RESIDUAL_TOLERANCE:
                raise SingularCircuitError(
                    f"solve residual {rel:.2e} exceeds tolerance; "
                    "the circuit is ill-conditioned or disconnected"
                )
        return x

    def _solve_resilient(
        self,
        current: np.ndarray,
        voltage: np.ndarray,
        backend: SolverBackend,
    ):
        """Climb the escalation ladder until a solve meets tolerance.

        Thin timing wrapper around :meth:`_solve_resilient_impl`: it
        owns the per-rung :class:`_RungTimer`, stamps
        ``escalation_times_s`` on the diagnostics (also on the
        diagnostics carried by a raised error), and emits one "rung"
        trace span per ladder rung climbed.
        """
        timer = _RungTimer()
        try:
            x, diag, effective = self._solve_resilient_impl(
                current, voltage, timer, backend
            )
        except (ConvergenceError, SingularCircuitError) as exc:
            timer.finish(getattr(exc, "diagnostics", None))
            raise
        timer.finish(diag)
        return x, diag, effective

    def _solve_resilient_impl(
        self,
        current: np.ndarray,
        voltage: np.ndarray,
        timer: _RungTimer,
        backend: SolverBackend,
    ):
        """The ladder itself (see :meth:`_solve_resilient`).

        The direct rungs on the full system (:meth:`_direct_rungs`),
        then island pruning and the same direct rungs on the pruned
        system, then Jacobi-LGMRES, then dense lstsq, then a typed
        raise.

        Returns ``(x, diagnostics, effective_isource_current)`` — the
        current vector has shed loads zeroed so downstream power
        bookkeeping matches the pruned network.
        """
        timer.start(backend.name)
        z = self._rhs(current, voltage)
        diag = SolveDiagnostics(escalations=timer.names, backend=backend.name)
        x = self._direct_rungs(backend, z, diag, timer, pruned=False)
        if x is not None:
            return x, diag, current

        # Ground floating islands, shed their loads, retry direct.
        timer.start(f"pruned-{backend.name}")
        if self._pruned_matrix is None:
            self._diagnostics_template = self._build_pruned_system()
        base = self._diagnostics_template
        diag = SolveDiagnostics(
            n_islands=base.n_islands,
            dropped_nodes=list(base.dropped_nodes),
            shed_loads=base.shed_loads,
            stabilized_rows=base.stabilized_rows,
            escalations=timer.names,
            backend=backend.name,
        )
        if len(current) and self._shed_isource_mask is not None:
            current = np.where(self._shed_isource_mask, 0.0, current)
        z = self._rhs(current, voltage)
        z[self._forced_zero_rows] = 0.0
        x = self._direct_rungs(backend, z, diag, timer, pruned=True)
        if x is not None:
            return x, diag, current

        # Jacobi-preconditioned LGMRES on the pruned system.
        timer.start("lgmres")
        x = self._iterative_attempt(self._pruned_matrix, z, diag)
        if x is not None and diag.residual <= self.RESIDUAL_TOLERANCE:
            return x, diag, current
        iterative_rel = diag.residual if x is not None else None

        # Dense least squares, the ladder's last rung.
        timer.start("lstsq")
        x = self._lstsq_attempt(self._pruned_matrix, z, diag)
        if x is not None:
            return x, diag, current

        if iterative_rel is not None:
            raise ConvergenceError(
                f"iterative fallback converged only to residual "
                f"{iterative_rel:.2e} (tolerance "
                f"{self.RESIDUAL_TOLERANCE:.0e}); {diag.summary()}",
                diagnostics=diag,
            )
        raise SingularCircuitError(
            "MNA system is singular even after pruning "
            f"{diag.n_dropped_nodes} floating node(s); {diag.summary()}",
            diagnostics=diag,
        )

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    @property
    def ground_node(self) -> int:
        return self._ground

    @property
    def vsource_offset(self) -> int:
        return self._n_nodes - 1

    @property
    def converter_offset(self) -> int:
        return self._n_nodes - 1 + self._nv
