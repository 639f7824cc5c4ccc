"""Lattices and layered circuits.

Circuits are flat sequences of layers; each layer is a tuple of gates that
commute as applied (one sublattice-wide rotation layer, or an explicit gate
list).  Gates act on the state in layer order, first layer first, and within
a layer in tuple order.  A layer's ``step`` tag joins it to the neighbouring
layers of the same step; ``Circuit.steps`` gives those groups, the unit the
tensor-network engine compresses after.  Gates and layers are immutable, so
layers may share one ``gates`` tuple; ``Circuit`` checks the range of each
distinct tuple once.

The kicked-Ising builder emits, per step, one RX(theta_h) layer over all
sites (gate ``exp(-i theta_h X / 2)``) followed by one RZZ layer over all
edges with angle ``-pi/2`` (gate ``exp(+i pi Z Z / 4)``).  The RZZ angle is
a rotation like any other; recompilation folds it to a pure Clifford.
Every step shares one RX tuple and one RZZ tuple, so a circuit holds one
``Gate`` per site and per edge however deep it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Gate",
    "Layer",
    "Circuit",
    "Lattice",
    "heavy_hex",
    "ring",
    "chain",
    "grid",
    "load_lattice",
    "device_127",
    "kicked_ising",
    "lightcone_prune",
    "gate_matrix",
    "PAULI_BASIS",
]

CLIFFORD_GATES = frozenset({"h", "s", "sdg", "x", "y", "z", "cx", "cz"})
ROTATION_GATES = frozenset({"rx", "ry", "rz", "rzz", "rot"})

_AXIS_LETTERS = {"rx": "X", "ry": "Y", "rz": "Z"}


@dataclass(frozen=True)
class Gate:
    """One gate: a named Clifford, or a Pauli rotation ``exp(-i angle/2 * W)``.

    A gate is valid when it is built, so every engine and oracle reads it
    by the same rule.  The axis W of ``rx``, ``ry``, ``rz`` and ``rzz`` is
    X, Y, Z and Z Z on ``qubits``; a ``rot`` gate names it as a string of
    Pauli letters, one of X, Y, Z per entry of ``qubits`` and in the same
    order ("ZX" on qubits (3, 1) is Z3 X1), so no axis reaches off its gate.
    Every rotation angle is finite.  Any other gate raises ``ValueError``.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None
    axis: str | None = None  # only for name == "rot"

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.name in CLIFFORD_GATES:
            if self.angle is not None:
                raise ValueError(f"named gate {self.name!r} takes no angle")
            arity = 2 if self.name in ("cx", "cz") else 1
            if len(self.qubits) != arity:
                raise ValueError(f"{self.name!r} acts on {arity} qubits")
        elif self.name in ROTATION_GATES:
            if self.angle is None:
                raise ValueError(f"rotation {self.name!r} needs an angle")
            if not math.isfinite(self.angle):
                raise ValueError(f"rotation angle must be finite, got {self.angle!r}")
            if self.name == "rot":
                if not (
                    isinstance(self.axis, str)
                    and len(self.axis) == len(self.qubits)
                    and set(self.axis) <= set("XYZ")
                ):
                    raise ValueError(
                        f"rot axis must be one of X, Y, Z per qubit of {self.qubits}, "
                        f"got {self.axis!r}"
                    )
            elif self.name == "rzz":
                if len(self.qubits) != 2:
                    raise ValueError("rzz acts on 2 qubits")
            elif len(self.qubits) != 1:
                raise ValueError(f"{self.name!r} acts on 1 qubit")
        else:
            raise ValueError(f"unknown gate name {self.name!r}")
        if self.axis is not None and self.name != "rot":
            raise ValueError(f"{self.name!r} takes no axis, got {self.axis!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.name!r} gate: {self.qubits}")

    @property
    def is_clifford(self) -> bool:
        return self.name in CLIFFORD_GATES


@dataclass(frozen=True)
class Layer:
    gates: tuple[Gate, ...]
    step: int = -1

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))


@dataclass(frozen=True)
class Circuit:
    n: int
    layers: tuple[Layer, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        # layers may share a gates tuple; check each distinct one once
        for gates in {id(layer.gates): layer.gates for layer in self.layers}.values():
            for g in gates:
                if any(q >= self.n or q < 0 for q in g.qubits):
                    raise ValueError(f"gate {g} out of range for n={self.n}")

    def gates(self) -> Iterator[Gate]:
        """All gates in circuit-time order."""
        for layer in self.layers:
            yield from layer.gates

    @property
    def num_gates(self) -> int:
        return sum(len(layer.gates) for layer in self.layers)

    def steps(self) -> list[list[Layer]]:
        """Layers grouped into steps: consecutive layers sharing a step tag
        >= 0 form one group, and every untagged layer is a group alone."""
        groups: list[list[Layer]] = []
        current = object()
        for layer in self.layers:
            key = layer.step if layer.step >= 0 else object()
            if groups and key == current:
                groups[-1].append(layer)
            else:
                groups.append([layer])
            current = key
        return groups


@dataclass(frozen=True)
class Lattice:
    """Simple undirected graph over sites 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        norm = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on site {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self, site: int) -> list[int]:
        out = []
        for u, v in self.edges:
            if u == site:
                out.append(v)
            elif v == site:
                out.append(u)
        return sorted(out)


def heavy_hex(rows: int, cols: int) -> Lattice:
    """Heavy-hex lattice: a brick-wall honeycomb with every edge subdivided.

    Corner sites sit on a (rows+1) x (2*cols+1) grid of horizontal chains
    with vertical rungs every two columns, offset by row parity; each edge
    of that honeycomb then gets one degree-2 flag site.  Corners are numbered
    row-major first, flags after them in sorted parent-edge order, so the
    layout is deterministic.  heavy_hex(1, 1) is a single 12-site ring.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    width = 2 * cols + 1
    corner_id = {}
    for i in range(rows + 1):
        for j in range(width):
            corner_id[(i, j)] = len(corner_id)
    parent_edges = []
    for i in range(rows + 1):
        for j in range(width - 1):
            parent_edges.append(((i, j), (i, j + 1)))
    for i in range(rows):
        for j in range(i % 2, width, 2):
            parent_edges.append(((i, j), (i + 1, j)))
    parent_edges.sort()
    n = len(corner_id) + len(parent_edges)
    edges = []
    for k, (a, b) in enumerate(parent_edges):
        flag = len(corner_id) + k
        edges.append((corner_id[a], flag))
        edges.append((flag, corner_id[b]))
    return Lattice(n, tuple(edges))


def ring(n: int) -> Lattice:
    if n < 3:
        raise ValueError("ring needs n >= 3")
    return Lattice(n, tuple((j, (j + 1) % n) for j in range(n)))


def chain(n: int) -> Lattice:
    if n < 2:
        raise ValueError("chain needs n >= 2")
    return Lattice(n, tuple((j, j + 1) for j in range(n - 1)))


def grid(rows: int, cols: int) -> Lattice:
    """Square grid, row-major site order; its 4-cycles make it the densest
    loop structure among the bundled lattices."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows, cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return Lattice(rows * cols, tuple(edges))


def load_lattice(path) -> Lattice:
    """Read an edge-list file: ``#`` comments, optional ``n <count>`` header,
    then one ``u v`` pair per line."""
    n_declared = None
    edges = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "n":
                if n_declared is not None or edges:
                    raise ValueError(f"{path}:{lineno}: stray 'n' header")
                if len(parts) != 2 or not parts[1].isdigit():
                    raise ValueError(f"{path}:{lineno}: bad 'n' header {line!r}")
                n_declared = int(parts[1])
                continue
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise ValueError(f"{path}: no edges")
    n = n_declared if n_declared is not None else 1 + max(max(e) for e in edges)
    try:
        return Lattice(n, tuple(edges))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def device_127() -> Lattice:
    """The bundled 127-site heavy-hex device coupling map."""
    ref = resources.files("spdtn.data").joinpath("heavy_hex_127.txt")
    with resources.as_file(ref) as path:
        return load_lattice(path)


def kicked_ising(
    lattice: Lattice,
    steps: int,
    theta_h: float,
    extra_x_layer: bool = False,
) -> Circuit:
    """Kicked-Ising circuit: per step an RX(theta_h) layer over all sites,
    then an RZZ(-pi/2) layer over all edges; optionally one trailing RX layer.

    ``steps`` is an int >= 1 (a bool is not).  All RX layers share one
    gates tuple and all RZZ layers another.
    """
    if not (isinstance(steps, int) and not isinstance(steps, bool) and steps >= 1):
        raise ValueError(f"steps must be an int >= 1, got {steps!r}")
    rx = tuple(Gate("rx", (j,), theta_h) for j in range(lattice.n))
    rzz = tuple(Gate("rzz", e, -math.pi / 2) for e in lattice.edges)
    layers = []
    for t in range(steps):
        layers += (Layer(rx, step=t), Layer(rzz, step=t))
    if extra_x_layer:
        layers.append(Layer(rx, step=steps))
    return Circuit(lattice.n, tuple(layers))


_Z_DIAGONAL = frozenset({"rz", "rzz", "z", "s", "sdg", "cz"})


def _commuting(layer: Layer) -> bool:
    """True when the layer's gates commute pairwise: they act on disjoint
    qubits, or they are all diagonal in the Z basis."""
    if all(g.name in _Z_DIAGONAL for g in layer.gates):
        return True
    qubits = [q for g in layer.gates for q in g.qubits]
    return len(qubits) == len(set(qubits))


def lightcone_prune(circuit: Circuit, support: Iterable[int]) -> Circuit:
    """Drop gates outside the reverse light cone of the given sites.

    Scans layers last-to-first, keeping a gate iff its qubits intersect the
    cone, and then adding its qubits to the cone.  In a layer whose gates
    commute pairwise (disjoint qubits, or all Z-diagonal: rz, rzz, z, s,
    sdg, cz) a gate is kept iff it meets the cone as it stood when the scan
    reached the layer: the gates that miss it commute with the whole
    Heisenberg-evolved observable and cancel, so gates of the layer cannot
    chain into the cone through each other.  In any other layer the scan
    repeats until the cone stops growing, since gates of the same layer can
    chain into the cone through shared qubits regardless of their tuple
    order.  A layer that keeps all its gates is kept as it is, and layers
    left empty are dropped.  Idempotent, and value-preserving for
    Heisenberg expectations of observables supported on ``support``.  A
    support site outside ``0..n-1`` raises ``ValueError``.
    """
    cone = set(support)
    outside = sorted(s for s in cone if not 0 <= s < circuit.n)
    if outside:
        raise ValueError(f"support site {outside[0]!r} out of range for n={circuit.n}")
    kept_layers: list[Layer] = []
    for layer in reversed(circuit.layers):
        if _commuting(layer):
            # a gate is kept iff it meets the cone as it stood on reaching the layer
            gates = tuple(g for g in layer.gates if not cone.isdisjoint(g.qubits))
            for g in gates:
                cone.update(g.qubits)
        else:
            kept: dict[int, Gate] = {}
            changed = True
            while changed:
                changed = False
                for idx, g in enumerate(layer.gates):
                    if idx not in kept and not cone.isdisjoint(g.qubits):
                        kept[idx] = g
                        cone.update(g.qubits)
                        changed = True
            gates = tuple(layer.gates[idx] for idx in sorted(kept))
        if gates:
            whole = len(gates) == len(layer.gates)
            kept_layers.append(layer if whole else Layer(gates, step=layer.step))
    return Circuit(circuit.n, tuple(reversed(kept_layers)))


_SITE_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# the Pauli basis stacked as PAULI_BASIS[a] for a = 0..3 (I, X, Y, Z)
PAULI_BASIS = np.array([_SITE_MATS[letter] for letter in "IXYZ"])

_NAMED_MATS = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "x": _SITE_MATS["X"],
    "y": _SITE_MATS["Y"],
    "z": _SITE_MATS["Z"],
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
}


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense unitary over ``gate.qubits`` (kron in qubit-tuple order).

    Rotations return cos(angle/2) I - i sin(angle/2) W, with W the kron of
    the axis letters in qubit order (see ``Gate``).
    """
    if gate.name in _NAMED_MATS:
        return _NAMED_MATS[gate.name].copy()
    if gate.name == "rot":
        letters = gate.axis
    elif gate.name == "rzz":
        letters = "ZZ"
    else:
        letters = _AXIS_LETTERS[gate.name]
    w = _SITE_MATS[letters[0]]
    for letter in letters[1:]:
        w = np.kron(w, _SITE_MATS[letter])
    half = 0.5 * gate.angle
    return math.cos(half) * np.eye(w.shape[0], dtype=complex) - 1j * math.sin(half) * w
