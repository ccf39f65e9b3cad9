"""Pluggable solver backends for :class:`repro.grid.solver.AssembledCircuit`.

The hot loop of every experiment is "factorize one MNA matrix, solve many
right-hand sides".  This module turns the *how* of that factorisation
into a registry of interchangeable :class:`SolverBackend` objects:

``lu`` (default)
    SuperLU via ``scipy.sparse.linalg.splu``, full partial pivoting.
    Handles any nonsingular system.  A matrix that equals its
    transpose bit for bit *and* has a non-positive diagonal entry (a
    voltage-source constraint row: the regular 3D PDN's
    symmetric-indefinite MNA system) is factorised in SuperLU
    symmetric mode — ``MMD_AT_PLUS_A`` ordering, pivot threshold still
    1.0 — which stores ~2.8x fewer factor entries than the default
    COLAMD ordering on these grids.  Its solutions therefore differ
    from plain ``splu`` in round-off only, far inside the 1e-9
    cross-backend tolerance.  Every other system — the unsymmetric V-S
    matrices (symmetric mode gives them ~1.7x *more* fill) and SPD
    thermal grids (the ``cholesky`` backend's domain) — keeps plain
    ``splu(matrix)`` and its bit-identical answers.
``cholesky``
    For symmetric positive-definite systems (pure conductance networks:
    thermal grids, ground-net Laplacians, resistor-mesh PDNs without
    voltage-source or converter constraint rows).  Uses CHOLMOD through
    scikit-sparse when importable; otherwise degrades to SuperLU in
    symmetric mode (``MMD_AT_PLUS_A`` ordering, no partial pivoting)
    with a one-line structured-log notice — still a genuine win over
    plain LU on SPD systems because the symmetric ordering roughly
    halves fill-in.  Refuses non-SPD matrices with a typed
    :class:`repro.errors.NotSPDError`; the solver layer answers that by
    falling back to the ``lu`` backend (again with a one-line notice),
    so a mis-chosen ``--solver cholesky`` degrades instead of dying.
``iterative``
    Matrix-free conjugate gradients (diagonal/Jacobi preconditioner)
    when the SPD screen passes, LGMRES with an incomplete-LU
    preconditioner otherwise — for grids too large to factorise.

Backends sit *under* the escalation ladder of
:meth:`repro.grid.solver.AssembledCircuit.solve`: a failed cholesky
rung escalates exactly like a failed LU rung.  Selection goes through
``--solver`` on every CLI subcommand, the ``REPRO_SOLVER`` environment
variable, or programmatically via :func:`set_default_backend` /
``SolveOptions(backend=...)``.  See docs/SOLVERS.md, including how to
register an out-of-tree (e.g. GPU) backend with zero API change.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg, lgmres, onenormest, spilu, splu

from repro.errors import ConvergenceError, NotSPDError, SolverBackendError

__all__ = [
    "SOLVER_ENV",
    "DEFAULT_BACKEND",
    "Factorization",
    "SolverBackend",
    "available_backends",
    "backend_availability",
    "default_backend_name",
    "get_backend",
    "jacobi_preconditioner",
    "notice_once",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "spd_screen",
]

#: Environment variable naming the default backend (same values as
#: ``--solver``); an explicit :func:`set_default_backend` call wins.
SOLVER_ENV = "REPRO_SOLVER"
#: The backend used when nothing selects one.
DEFAULT_BACKEND = "lu"

#: Numeric symmetry tolerance of the SPD screen, relative to the
#: largest stamp magnitude.
SPD_SYMMETRY_RTOL = 1e-10

_UNSET = object()


# ----------------------------------------------------------------------
# one-shot structured notices
# ----------------------------------------------------------------------
_NOTICED: set = set()


def notice_once(key: str, message: str, **extra) -> None:
    """Emit one structured-log warning per process per ``key``.

    Backend degradations (CHOLMOD missing, non-SPD fallback to LU) are
    worth exactly one line each — not one per sweep point.
    """
    if key in _NOTICED:
        return
    _NOTICED.add(key)
    from repro.obs.logs import get_logger

    get_logger(__name__).warning(message, extra=dict(extra, notice=key))


# ----------------------------------------------------------------------
# allocator policy
# ----------------------------------------------------------------------
#: glibc's ``mallopt`` parameter number for the mmap threshold.
_M_MMAP_THRESHOLD = -3
#: Requests at least this large get their own mmap.  glibc otherwise
#: raises the threshold (up to 32 MiB) each time a mapped chunk is
#: freed; SuperLU then grows its factor buffers (malloc, copy, free) in
#: the brk heap, where the freed copies stay as holes nothing reuses.
MMAP_THRESHOLD_BYTES = 1 << 20
_mmap_threshold_pinned = False


def _mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        import ctypes

        return ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return None


def _pin_mmap_threshold() -> None:
    """Fix the mmap threshold at :data:`MMAP_THRESHOLD_BYTES`, once per
    process (forked children inherit it); a no-op without ``mallopt``."""
    global _mmap_threshold_pinned
    if _mmap_threshold_pinned:
        return
    _mmap_threshold_pinned = True
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)


# ----------------------------------------------------------------------
# SPD screen
# ----------------------------------------------------------------------
def spd_screen(matrix) -> Optional[str]:
    """Cheap necessary-conditions check for symmetric positive definite.

    Returns ``None`` when the matrix may be SPD, else a short reason it
    cannot be.  O(nnz); screens out the saddle-point (voltage-source
    constraint rows have zero diagonal) and charge-recycling (converter
    stamps are anti-symmetric) structures that dominate this codebase,
    so ``spd_only`` backends fail fast with a typed error instead of a
    numerical breakdown deep inside a factorisation.
    """
    if matrix.shape[0] != matrix.shape[1]:
        return "matrix is not square"
    if matrix.shape[0] == 0:
        return None
    if _has_constraint_row(matrix):
        return "non-positive diagonal entry (constraint row?)"
    worst = _asymmetry(matrix)
    if worst and worst > SPD_SYMMETRY_RTOL * max(1.0, float(abs(matrix).max())):
        return f"asymmetric stamps (|A - A^T| up to {worst:.1e})"
    return None


def _has_constraint_row(matrix) -> bool:
    """Whether a square matrix has a diagonal entry <= 0."""
    return bool(np.any(matrix.diagonal() <= 0))


def _asymmetry(matrix) -> float:
    """Largest ``|A - A^T|`` entry; exactly 0.0 when ``A == A^T`` bit for bit."""
    asym = abs(matrix - matrix.T)
    return float(asym.max()) if asym.nnz else 0.0


def jacobi_preconditioner(matrix) -> LinearOperator:
    """The diagonal (Jacobi) preconditioner ``v -> v / diag(A)``.

    Zero diagonal entries (an MNA matrix's voltage-source rows) are left
    unscaled; they are masked before the division, so none of them
    raises a divide-by-zero warning.
    """
    diagonal = matrix.diagonal()
    inv_diag = np.divide(
        1.0,
        diagonal,
        out=np.ones_like(diagonal),
        where=np.abs(diagonal) > 1e-300,
    )
    return LinearOperator(matrix.shape, matvec=lambda v: inv_diag * v)


def _symmetric_indefinite(matrix) -> bool:
    """An exactly symmetric matrix that fails the SPD screen's diagonal test.

    These are the regular PDN's MNA systems: a conductance block
    bordered by zero-diagonal voltage-source constraint rows.
    """
    return (
        matrix.shape[0] == matrix.shape[1]
        and _has_constraint_row(matrix)
        and _asymmetry(matrix) == 0.0
    )


# ----------------------------------------------------------------------
# factorizations
# ----------------------------------------------------------------------
class Factorization(ABC):
    """A reusable solve operator produced by :meth:`SolverBackend.factorize`.

    Holds the matrix it was computed from plus a **cached** 1-norm
    condition estimate: the estimate is a property of the factorisation,
    so it is computed at most once per :class:`Factorization` no matter
    how many solves reuse it (the revision check in
    :class:`~repro.grid.solver.AssembledCircuit` already guarantees a
    changed matrix means a new factorisation).
    """

    #: Name of the backend that produced this factorisation.
    backend_name: str = "?"
    #: Whether iterative refinement against this operator is meaningful
    #: (direct factorisations: yes; an iterative solve is already its
    #: own refinement loop).
    supports_refine: bool = True
    #: Fill-reducing ordering family, ``"symmetric"`` (on ``A + A^T``)
    #: or ``"general"`` (on ``A^T A``); None when nothing is factorised.
    ordering: Optional[str] = None
    #: Entries stored in the factors (``L`` plus ``U``), when known.
    factor_entries: Optional[int] = None

    def __init__(self, matrix):
        self.matrix = matrix
        self._condition = _UNSET

    @abstractmethod
    def solve(self, z: np.ndarray) -> np.ndarray:
        """Solve ``A x = z`` for one RHS vector."""

    def solve_batch(self, z: np.ndarray) -> np.ndarray:
        """Solve ``A X = Z`` for a dense matrix of stacked RHS columns."""
        return self.solve(z)

    def solve_transpose(self, z: np.ndarray) -> np.ndarray:
        """Solve ``A^T x = z`` (needed only by the condition estimator)."""
        raise NotImplementedError

    def condition_estimate(self) -> Optional[float]:
        """Cached 1-norm condition estimate, or None when unavailable."""
        if self._condition is _UNSET:
            self._condition = self._estimate_condition()
        return self._condition

    def _estimate_condition(self) -> Optional[float]:
        if self.matrix.shape[0] < 2:
            return None
        try:
            inverse = LinearOperator(
                self.matrix.shape,
                matvec=self.solve,
                rmatvec=self.solve_transpose,
            )
            # ||A||_1 exactly from column sums; ||A^-1||_1 by a
            # single-column estimate, whose start vector is fixed (wider
            # estimates draw extra columns from numpy's global RNG).
            norm = float(abs(self.matrix).sum(axis=0).max())
            return norm * float(onenormest(inverse, t=1))
        except Exception:  # estimation is best-effort only
            return None


class _SuperLUFactorization(Factorization):
    """Wraps a SuperLU handle (plain or symmetric-mode)."""

    def __init__(self, matrix, handle, backend_name: str, ordering: str):
        super().__init__(matrix)
        self._handle = handle
        self.backend_name = backend_name
        self.ordering = ordering
        # ``nnz`` is a count; ``handle.L``/``.U`` would copy the factors.
        self.factor_entries = int(handle.nnz)

    def solve(self, z):
        return self._handle.solve(z)

    def solve_transpose(self, z):
        return self._handle.solve(z, trans="T")


class _CholmodFactorization(Factorization):
    """Wraps a CHOLMOD factor from scikit-sparse."""

    backend_name = "cholesky"
    ordering = "symmetric"

    def __init__(self, matrix, factor):
        super().__init__(matrix)
        self._factor = factor

    def solve(self, z):
        return self._factor(z)

    def solve_transpose(self, z):  # SPD: A^T == A
        return self._factor(z)


class _IterativeFactorization(Factorization):
    """Matrix-free 'factorisation': CG (SPD) or ILU-LGMRES (general).

    Nothing is factorised up front beyond the preconditioner, so
    ``factorize`` is cheap and memory stays O(nnz) — the point of this
    backend for very large grids.  A solve that fails to converge
    raises :class:`repro.errors.ConvergenceError`, which the escalation
    ladder treats like any other failed rung.
    """

    backend_name = "iterative"
    supports_refine = False

    #: Convergence target — far below the solver layer's 1e-6 residual
    #: tolerance so cross-backend results agree with ``lu`` to <= 1e-9.
    #: The saddle-point PDN systems have a relative-residual floor near
    #: 7e-11 on production (voltage-source dominated) RHS vectors:
    #: tolerances at or below 1e-11 stall the Krylov basis into the
    #: iteration cap (seconds per solve), while 1e-10 converges in ~3
    #: preconditioned iterations and still agrees with ``lu`` to ~1e-11.
    RTOL = 1e-10
    #: A capped solve is still accepted when its measured relative
    #: residual lands at or below this (the cross-backend agreement
    #: criterion) — the Krylov basis can stagnate by scipy's criterion
    #: after the answer is already converged.
    ACCEPT_RTOL = 1e-9
    MAX_ITERATIONS = 5000

    def __init__(self, matrix):
        super().__init__(matrix)
        self._spd = spd_screen(matrix) is None
        self._preconditioner = self._build_preconditioner(matrix)
        #: Iterations consumed by the most recent solve (diagnostics).
        self.last_iterations = 0

    def _build_preconditioner(self, matrix):
        if self._spd:
            # Jacobi: cheap, deterministic, and (unlike an incomplete
            # factorisation) guaranteed SPD, which CG requires of M.
            return jacobi_preconditioner(matrix)
        try:
            ilu = spilu(matrix.tocsc(), drop_tol=1e-5, fill_factor=10.0)
            return LinearOperator(matrix.shape, matvec=ilu.solve)
        except (RuntimeError, ValueError, MemoryError):
            return jacobi_preconditioner(matrix)

    def _solve_one(self, b):
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        method = cg if self._spd else lgmres
        x, info = method(
            self.matrix,
            b,
            M=self._preconditioner,
            rtol=self.RTOL,
            atol=0.0,
            maxiter=self.MAX_ITERATIONS,
            callback=count,
        )
        self.last_iterations += iterations
        if not np.all(np.isfinite(x)):
            raise ConvergenceError(
                f"iterative backend ({'cg' if self._spd else 'lgmres'}) "
                f"produced non-finite values (info={info})"
            )
        if info != 0:
            scale = float(np.linalg.norm(b))
            residual = float(np.linalg.norm(self.matrix @ x - b))
            if scale == 0.0 or residual > self.ACCEPT_RTOL * scale:
                raise ConvergenceError(
                    f"iterative backend ({'cg' if self._spd else 'lgmres'}) "
                    f"did not converge within {self.MAX_ITERATIONS} "
                    f"iterations (info={info}, relative residual "
                    f"{residual / scale if scale else float('inf'):.1e})"
                )
        return x

    def solve(self, z):
        self.last_iterations = 0
        if z.ndim == 2:
            return np.column_stack([self._solve_one(z[:, i]) for i in range(z.shape[1])])
        return self._solve_one(z)

    def _estimate_condition(self):
        # Estimating ||A^-1|| would run full Krylov solves inside
        # onenormest — not worth it for a diagnostics field.
        return None


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class SolverBackend(ABC):
    """One way to turn a sparse system into a :class:`Factorization`.

    Capability flags let the solver layer (and callers) reason about a
    backend without trying it:

    ``spd_only``
        :meth:`factorize` raises :class:`repro.errors.NotSPDError` on
        systems that fail the SPD screen instead of producing garbage.
    ``supports_refine``
        Iterative refinement against the factorisation is meaningful.
    """

    name: str = "?"
    description: str = ""
    spd_only: bool = False
    supports_refine: bool = True

    @abstractmethod
    def factorize(self, matrix) -> Factorization:
        """Factorise ``matrix`` (CSC sparse).

        Raises whatever the underlying library raises on singular input
        (``RuntimeError``/``ValueError``), or
        :class:`repro.errors.NotSPDError` for ``spd_only`` backends on
        non-SPD input — all of which the escalation ladder treats as a
        failed rung.
        """

    def availability(self) -> Dict[str, object]:
        """How this backend would run *right now* on this machine."""
        return {"available": True, "native": True, "note": ""}


def _splu_symmetric(matrix, diag_pivot_thresh: float):
    """SuperLU in symmetric mode: minimum degree on ``A + A^T``.

    ``diag_pivot_thresh`` 1.0 keeps full partial pivoting (indefinite
    input); 0.0 takes the diagonal as pivot (SPD input).
    """
    return splu(
        matrix.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=diag_pivot_thresh,
        options=dict(SymmetricMode=True),
    )


class LUBackend(SolverBackend):
    name = "lu"
    description = "SuperLU sparse LU (scipy.sparse.linalg.splu); the default"

    def factorize(self, matrix) -> Factorization:
        if _symmetric_indefinite(matrix):
            handle = _splu_symmetric(matrix, diag_pivot_thresh=1.0)
            return _SuperLUFactorization(matrix, handle, self.name, "symmetric")
        return _SuperLUFactorization(matrix, splu(matrix), self.name, "general")


def _cholmod():
    """The scikit-sparse cholmod module, or None when not importable."""
    try:
        from sksparse import cholmod  # type: ignore
    except Exception:
        return None
    return cholmod


class CholeskyBackend(SolverBackend):
    name = "cholesky"
    description = (
        "Cholesky for SPD systems: CHOLMOD (scikit-sparse) when importable, "
        "else SuperLU symmetric mode"
    )
    spd_only = True

    def factorize(self, matrix) -> Factorization:
        reason = spd_screen(matrix)
        if reason is not None:
            raise NotSPDError(
                f"cholesky backend requires a symmetric positive-definite "
                f"system: {reason}",
                reason=reason,
            )
        cholmod = _cholmod()
        if cholmod is not None:
            try:
                factor = cholmod.cholesky(matrix.tocsc())
            except cholmod.CholmodNotPositiveDefiniteError as exc:
                raise NotSPDError(
                    f"CHOLMOD found the matrix not positive definite ({exc})",
                    reason="not positive definite",
                ) from exc
            return _CholmodFactorization(matrix, factor)
        notice_once(
            "cholmod-missing",
            "scikit-sparse (CHOLMOD) is not importable; cholesky backend "
            "using SuperLU symmetric mode instead",
            backend=self.name,
        )
        handle = _splu_symmetric(matrix, diag_pivot_thresh=0.0)
        return _SuperLUFactorization(matrix, handle, self.name, "symmetric")

    def availability(self) -> Dict[str, object]:
        native = _cholmod() is not None
        return {
            "available": True,
            "native": native,
            "note": "" if native else "CHOLMOD absent; SuperLU symmetric-mode fallback",
        }


class IterativeBackend(SolverBackend):
    name = "iterative"
    description = (
        "matrix-free Krylov solve: Jacobi-CG on SPD systems, ILU-LGMRES "
        "otherwise; O(nnz) memory for very large grids"
    )
    supports_refine = False

    def factorize(self, matrix) -> Factorization:
        return _IterativeFactorization(matrix)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, SolverBackend] = {}
_DEFAULT_OVERRIDE: Optional[str] = None


def register_backend(backend: SolverBackend, *, replace: bool = False) -> None:
    """Add a backend to the registry (e.g. an out-of-tree GPU backend)."""
    if not replace and backend.name in _REGISTRY:
        raise SolverBackendError(
            f"solver backend '{backend.name}' is already registered "
            f"(pass replace=True to override)"
        )
    _REGISTRY[backend.name] = backend


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> SolverBackend:
    """Look up a backend by name; unknown names get a one-line typed error.

    Every factorisation gets its backend here or from
    :func:`resolve_backend`, so both pin the allocator policy first.
    """
    _pin_mmap_threshold()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SolverBackendError(
            f"unknown solver backend '{name}' "
            f"(choose from: {', '.join(sorted(_REGISTRY))})"
        ) from None


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` reset) the process-wide default backend.

    The CLI's ``--solver`` flag lands here; it outranks ``REPRO_SOLVER``.
    """
    global _DEFAULT_OVERRIDE
    _DEFAULT_OVERRIDE = get_backend(name).name if name is not None else None


def default_backend_name() -> str:
    """The backend used when a call site does not pick one.

    Priority: :func:`set_default_backend` > ``REPRO_SOLVER`` >
    :data:`DEFAULT_BACKEND`.  An invalid environment value raises the
    same one-line :class:`repro.errors.SolverBackendError` as an invalid
    flag — at resolution time, so workers inherit misconfiguration
    loudly instead of silently solving with the wrong backend.
    """
    if _DEFAULT_OVERRIDE is not None:
        return _DEFAULT_OVERRIDE
    env = os.environ.get(SOLVER_ENV)
    if env and env.strip():
        return get_backend(env.strip()).name
    return DEFAULT_BACKEND


def resolve_backend(
    choice: Union[None, str, SolverBackend] = None
) -> SolverBackend:
    """Turn a name / backend object / None (= default) into a backend."""
    _pin_mmap_threshold()
    if isinstance(choice, SolverBackend):
        return choice
    if choice is None:
        return get_backend(default_backend_name())
    return get_backend(str(choice))


def backend_availability() -> Dict[str, Dict[str, object]]:
    """Per-backend availability map (used by the bench/CI skip logic)."""
    return {name: backend.availability() for name, backend in _REGISTRY.items()}


register_backend(LUBackend())
register_backend(CholeskyBackend())
register_backend(IterativeBackend())
