"""Netlist construction for the MNA engine.

A :class:`Circuit` is a bag of nodes (arbitrary hashable keys) and four
element kinds:

* resistors,
* independent voltage sources (also used as 0-V ammeters/shorts),
* independent current sources (the constant-current load model VoltSpot
  uses for switching logic),
* 2:1 switched-capacitor converters — an ideal transformer whose output
  node is regulated to the mean of its top/bottom rails through a series
  resistance (paper Fig. 2).

Elements can be added one at a time or in vectorised batches; both paths
store into the same columnar arrays, so a million-edge power grid builds
in milliseconds.  Element *tags* group related branches ("c4.vdd",
"tsv.tier3", ...) for per-array current extraction, which is what the EM
lifetime analysis consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.utils.validation import check_finite_array

NodeKey = Hashable

RESISTOR = "resistor"
VSOURCE = "vsource"
ISOURCE = "isource"
CONVERTER = "converter"

_KINDS = (RESISTOR, VSOURCE, ISOURCE, CONVERTER)


@dataclass(frozen=True)
class ElementRef:
    """Handle to a contiguous run of elements of one kind.

    ``indices`` addresses rows of the circuit's columnar storage for
    ``kind``; a single-element add returns a run of length one.
    """

    kind: str
    start: int
    count: int

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.count)


class _Columnar:
    """Columnar storage for one element kind (append-only).

    Columns whose name refers to a node ("n1", "pos", "src", "top", ...)
    hold integer node ids; the rest hold float element values.
    """

    _NODE_COLUMNS = frozenset(
        {"n1", "n2", "pos", "neg", "src", "dst", "top", "bottom", "mid"}
    )

    def __init__(self, columns: Sequence[str]):
        self._columns = tuple(columns)
        self._chunks: Dict[str, List[np.ndarray]] = {c: [] for c in columns}
        self._tags: List[str] = []
        self._tag_runs: List[tuple] = []  # (tag, start, count)
        self._size = 0
        self._inactive: Set[int] = set()
        self._active_cache: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self._size

    def _dtype(self, name: str):
        return int if name in self._NODE_COLUMNS else float

    def append(self, tag: str, **values: np.ndarray) -> tuple:
        lengths = {len(np.atleast_1d(v)) for v in values.values()}
        if len(lengths) != 1:
            raise ValueError(f"mismatched column lengths: {lengths}")
        (n,) = lengths
        for column in self._columns:
            chunk = np.atleast_1d(values[column]).astype(self._dtype(column))
            self._chunks[column].append(chunk)
        start = self._size
        self._size += n
        self._tag_runs.append((tag, start, n))
        return start, n

    def column(self, name: str) -> np.ndarray:
        """Full column as one array.  Treat as read-only: the store owns
        it, and in-place edits would corrupt the netlist."""
        chunks = self._chunks[name]
        if not chunks:
            return np.empty(0, dtype=self._dtype(name))
        if len(chunks) == 1 and len(chunks[0]) == self._size:
            return chunks[0]
        return self._consolidated(name)

    def _consolidated(self, name: str) -> np.ndarray:
        """Collapse a column's chunks into one mutable array and return it."""
        chunks = self._chunks[name]
        if len(chunks) != 1 or len(chunks[0]) != self._size:
            self._chunks[name] = [np.concatenate(chunks)]
        return self._chunks[name][0]

    def scale(self, name: str, indices: np.ndarray, factor) -> None:
        """Multiply ``column[name][indices]`` by ``factor`` in place."""
        arr = self._consolidated(name)
        arr[indices] = arr[indices] * factor

    def deactivate(self, indices: np.ndarray) -> None:
        """Mark elements as removed from the circuit (failed open)."""
        self._inactive.update(int(i) for i in np.atleast_1d(indices))
        self._active_cache = None

    @property
    def active(self) -> np.ndarray:
        """Boolean mask over all elements; False = removed/failed-open.

        Cached between ``deactivate`` calls; treat as read-only.
        """
        cached = self._active_cache
        if cached is not None and len(cached) == self._size:
            return cached
        mask = np.ones(self._size, dtype=bool)
        if self._inactive:
            mask[np.fromiter(self._inactive, dtype=int)] = False
        self._active_cache = mask
        return mask

    def tag_indices(self, tag: str) -> np.ndarray:
        parts = [
            np.arange(start, start + count)
            for (t, start, count) in self._tag_runs
            if t == tag
        ]
        if not parts:
            return np.empty(0, dtype=int)
        return np.concatenate(parts)

    @property
    def tags(self) -> List[str]:
        seen: List[str] = []
        for tag, _, _ in self._tag_runs:
            if tag not in seen:
                seen.append(tag)
        return seen


def _block_coordinate(value, size: int) -> Optional[int]:
    """``value`` as an index below ``size`` if it equals one, else None.

    Equality, not type, decides, as for dict keys: ``2``, ``2.0`` and
    ``np.int64(2)`` all name the same node.
    """
    try:
        index = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return index if index == value and 0 <= index < size else None


class Circuit:
    """A mutable resistive netlist.

    Nodes are created lazily from hashable keys via :meth:`node`, or a
    whole mesh at once via :meth:`node_block`.  One key
    must be designated the ground reference with :meth:`set_ground` before
    assembly.  After construction, call :meth:`assemble` to obtain an
    :class:`repro.grid.solver.AssembledCircuit` whose LU factorisation can
    be reused across right-hand-side (source value) updates.
    """

    def __init__(self) -> None:
        #: Named nodes only; block nodes live in ``_blocks``.
        self._node_index: Dict[NodeKey, int] = {}
        #: Key prefix -> (first id, rows, cols) of each :meth:`node_block`.
        self._blocks: Dict[tuple, Tuple[int, int, int]] = {}
        self._n_nodes = 0
        self._ground: Optional[int] = None
        self._revision = 0
        self._store: Dict[str, _Columnar] = {
            RESISTOR: _Columnar(("n1", "n2", "resistance")),
            VSOURCE: _Columnar(("pos", "neg", "voltage")),
            ISOURCE: _Columnar(("src", "dst", "current")),
            CONVERTER: _Columnar(("top", "bottom", "mid", "r_series")),
        }

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def node(self, key: NodeKey) -> int:
        """Return the integer id for ``key``, creating the node if new."""
        index = self._node_index.get(key)
        if index is None:
            index = self._block_id(key)
            if index is None:
                index = self._n_nodes
                self._node_index[key] = index
                self._n_nodes += 1
        return index

    def nodes(self, keys: Iterable[NodeKey]) -> np.ndarray:
        """Vectorised :meth:`node` over an iterable of keys."""
        return np.fromiter((self.node(k) for k in keys), dtype=int)

    def node_block(self, prefix: tuple, rows: int, cols: int) -> np.ndarray:
        """Create the nodes ``prefix + (j, i)`` for ``j < rows, i < cols``.

        Returns their ``(rows, cols)`` id array.  The ids are one
        contiguous row-major block, exactly what :meth:`nodes` would
        allocate for those keys in that order, but no key is stored:
        :meth:`node` resolves them by arithmetic.
        """
        if not isinstance(prefix, tuple):
            raise TypeError(f"prefix must be a tuple, got {type(prefix).__name__}")
        if rows < 1 or cols < 1:
            raise ValueError(f"block shape must be positive, got ({rows}, {cols})")
        if prefix in self._blocks:
            raise ValueError(f"node block {prefix!r} already exists")
        base = self._n_nodes
        self._blocks[prefix] = (base, rows, cols)
        if any(self._block_id(key) is not None for key in self._node_index):
            del self._blocks[prefix]
            raise ValueError(f"node block {prefix!r} overlaps existing nodes")
        self._n_nodes += rows * cols
        return np.arange(base, self._n_nodes).reshape(rows, cols)

    def _block_id(self, key: NodeKey) -> Optional[int]:
        """Id of ``key`` if it falls inside a node block, else None."""
        if not self._blocks or not isinstance(key, tuple) or len(key) < 3:
            return None
        block = self._blocks.get(key[:-2])
        if block is None:
            return None
        base, rows, cols = block
        j = _block_coordinate(key[-2], rows)
        i = _block_coordinate(key[-1], cols)
        if j is None or i is None:
            return None
        return base + j * cols + i

    def has_node(self, key: NodeKey) -> bool:
        return key in self._node_index or self._block_id(key) is not None

    @property
    def node_count(self) -> int:
        return self._n_nodes

    @property
    def node_keys(self) -> List[NodeKey]:
        """Every node key, in id order."""
        keys: List[NodeKey] = [None] * self._n_nodes
        for key, index in self._node_index.items():
            keys[index] = key
        for prefix, (base, rows, cols) in self._blocks.items():
            keys[base : base + rows * cols] = [
                prefix + (j, i) for j in range(rows) for i in range(cols)
            ]
        return keys

    def set_ground(self, key: NodeKey) -> int:
        """Designate ``key`` as the 0-V reference node."""
        self._ground = self.node(key)
        return self._ground

    @property
    def ground(self) -> Optional[int]:
        return self._ground

    # ------------------------------------------------------------------
    # element construction
    # ------------------------------------------------------------------
    def add_resistor(
        self, n1: NodeKey, n2: NodeKey, resistance: float, tag: str = "r"
    ) -> ElementRef:
        """Add one resistor of ``resistance`` ohms between two nodes."""
        if resistance <= 0:
            raise ValueError(f"resistance must be > 0, got {resistance!r}")
        return self.add_resistors([n1], [n2], [resistance], tag=tag)

    def add_resistors(
        self,
        n1: Iterable[NodeKey],
        n2: Iterable[NodeKey],
        resistance: Iterable[float],
        tag: str = "r",
    ) -> ElementRef:
        """Vectorised resistor batch; all three iterables must align."""
        ids1 = self._as_node_ids(n1)
        ids2 = self._as_node_ids(n2)
        res = check_finite_array(
            "resistance",
            list(resistance) if not isinstance(resistance, np.ndarray) else resistance,
        )
        if np.any(res <= 0):
            raise ValueError("all resistances must be > 0")
        if not (len(ids1) == len(ids2) == len(res)):
            raise ValueError("n1, n2 and resistance must have equal lengths")
        start, count = self._store[RESISTOR].append(tag, n1=ids1, n2=ids2, resistance=res)
        return ElementRef(RESISTOR, start, count)

    def add_voltage_source(
        self, pos: NodeKey, neg: NodeKey, voltage: float, tag: str = "v"
    ) -> ElementRef:
        """Ideal voltage source; its branch current is an MNA unknown."""
        start, count = self._store[VSOURCE].append(
            tag,
            pos=self._as_node_ids([pos]),
            neg=self._as_node_ids([neg]),
            voltage=check_finite_array("voltage", [voltage]),
        )
        return ElementRef(VSOURCE, start, count)

    def add_current_source(
        self, src: NodeKey, dst: NodeKey, current: float, tag: str = "i"
    ) -> ElementRef:
        """Push ``current`` amps from ``src`` through the source into ``dst``.

        A chip load drawing ``I`` from its local Vdd node and returning it
        into its local GND node is ``add_current_source(vdd, gnd, I)``.
        """
        return self.add_current_sources([src], [dst], [current], tag=tag)

    def add_current_sources(
        self,
        src: Iterable[NodeKey],
        dst: Iterable[NodeKey],
        current: Iterable[float],
        tag: str = "i",
    ) -> ElementRef:
        """Vectorised current-source batch."""
        ids1 = self._as_node_ids(src)
        ids2 = self._as_node_ids(dst)
        cur = check_finite_array(
            "current",
            list(current) if not isinstance(current, np.ndarray) else current,
        )
        if not (len(ids1) == len(ids2) == len(cur)):
            raise ValueError("src, dst and current must have equal lengths")
        start, count = self._store[ISOURCE].append(tag, src=ids1, dst=ids2, current=cur)
        return ElementRef(ISOURCE, start, count)

    def add_converter(
        self,
        top: NodeKey,
        bottom: NodeKey,
        mid: NodeKey,
        r_series: float,
        tag: str = "sc",
    ) -> ElementRef:
        """Add a 2:1 push-pull SC converter (compact model, Fig. 2).

        The stamp enforces ``v_mid = (v_top + v_bottom) / 2 - j * r_series``
        where ``j`` is the output current delivered into ``mid``; charge
        conservation draws ``j/2`` from each of ``top`` and ``bottom``.
        ``j`` may be negative — the converter is push-pull and can sink
        excess charge from the intermediate rail.
        """
        if r_series <= 0:
            raise ValueError(f"r_series must be > 0, got {r_series!r}")
        return self.add_converters([top], [bottom], [mid], [r_series], tag=tag)

    def add_converters(
        self,
        top: Iterable[NodeKey],
        bottom: Iterable[NodeKey],
        mid: Iterable[NodeKey],
        r_series: Iterable[float],
        tag: str = "sc",
    ) -> ElementRef:
        """Vectorised converter batch."""
        t = self._as_node_ids(top)
        b = self._as_node_ids(bottom)
        m = self._as_node_ids(mid)
        rs = check_finite_array(
            "r_series",
            list(r_series) if not isinstance(r_series, np.ndarray) else r_series,
        )
        if np.any(rs <= 0):
            raise ValueError("all r_series values must be > 0")
        if not (len(t) == len(b) == len(m) == len(rs)):
            raise ValueError("top, bottom, mid and r_series must have equal lengths")
        start, count = self._store[CONVERTER].append(tag, top=t, bottom=b, mid=m, r_series=rs)
        return ElementRef(CONVERTER, start, count)

    # ------------------------------------------------------------------
    # introspection used by the solver / solution
    # ------------------------------------------------------------------
    def store(self, kind: str) -> _Columnar:
        if kind not in _KINDS:
            raise ValueError(f"unknown element kind {kind!r}")
        return self._store[kind]

    def count(self, kind: str) -> int:
        return len(self._store[kind])

    def tags(self, kind: str) -> List[str]:
        return self._store[kind].tags

    def active_mask(self, kind: str) -> np.ndarray:
        """Boolean activity mask for ``kind``; False = failed-open."""
        return self.store(kind).active

    @property
    def revision(self) -> int:
        """Mutation counter; bumps on every post-construction rewrite.

        :class:`repro.grid.solver.AssembledCircuit` snapshots this at
        assembly time and refuses to solve a stale factorisation.
        """
        return self._revision

    # ------------------------------------------------------------------
    # fault rewriting (used by repro.faults)
    # ------------------------------------------------------------------
    def open_elements(self, kind: str, indices) -> None:
        """Fail elements open: remove them from subsequent assemblies.

        Opened resistors stop conducting, opened converters stop
        transferring charge (their output current is pinned to zero) and
        opened current sources stop drawing load.
        """
        store = self.store(kind)
        idx = np.atleast_1d(np.asarray(indices, dtype=int))
        if idx.size and (idx.min() < 0 or idx.max() >= len(store)):
            raise IndexError(
                f"element index out of range for {kind!r} (size {len(store)})"
            )
        store.deactivate(idx)
        self._revision += 1

    def scale_elements(self, kind: str, column: str, indices, factor) -> None:
        """Multiply a value column in place (resistance degradation).

        ``factor`` may be a scalar or an array aligned with ``indices``;
        every factor must be finite and > 0.
        """
        store = self.store(kind)
        idx = np.atleast_1d(np.asarray(indices, dtype=int))
        if idx.size and (idx.min() < 0 or idx.max() >= len(store)):
            raise IndexError(
                f"element index out of range for {kind!r} (size {len(store)})"
            )
        fac = check_finite_array("factor", np.atleast_1d(factor))
        if np.any(fac <= 0):
            raise ValueError("all scale factors must be > 0")
        store.scale(column, idx, fac if fac.size > 1 else float(fac[0]))
        self._revision += 1

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def assemble(self, backend=None):
        """Freeze the topology into a factorisable MNA system.

        ``backend`` picks the solver backend (a name from
        :mod:`repro.grid.backends`, a backend object, or ``None`` for
        the process default).
        """
        from repro.grid.solver import AssembledCircuit

        return AssembledCircuit(self, backend=backend)

    def solve(self):
        """Convenience: assemble and solve in one step."""
        return self.assemble().solve()

    # ------------------------------------------------------------------
    def _as_node_ids(self, keys) -> np.ndarray:
        if isinstance(keys, np.ndarray) and np.issubdtype(keys.dtype, np.integer):
            # Already resolved ids (from .nodes()); validate range.
            if keys.size and (keys.min() < 0 or keys.max() >= self.node_count):
                raise ValueError("node id out of range")
            return keys.astype(int)
        return self.nodes(keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = ", ".join(f"{k}={len(v)}" for k, v in self._store.items())
        return f"Circuit(nodes={self.node_count}, {counts})"
