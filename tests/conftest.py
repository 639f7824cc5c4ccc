"""Shared fixtures and independently-written oracles.

Everything here recomputes expected values from first principles with
dense linear algebra and brute-force loops, deliberately avoiding the
package's own contraction, tableau, and propagation machinery so tests
compare two implementations that share nothing but the definitions.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from spdtn import Circuit, Gate, Lattice, Layer, PauliWord, Tensor, heavy_hex

# -- frozen hand-computed diagnostics values -----------------------------
#
# sigma of (0.1, 0.2, 0.3), population convention:
#   mean 0.2, squared deviations (0.01, 0, 0.01), sigma = sqrt(0.02/3).
SIGMA_EXAMPLE = 0.0816496580927726

# Least-squares line v = a + b*u through u = (1, 1/2, 1/3) (that is,
# 1/chi at chi = 1, 2, 3) and v = (0.1, 0.2, 0.3):
#   u_bar = 11/18, v_bar = 1/5,
#   b = sum(du*dv)/sum(du^2) = (-1/15)/(13/54) = -18/65,
#   a = v_bar - b*u_bar = 1/5 + (18/65)(11/18) = 24/65.
EXTRAP_SLOPE_EXAMPLE = -18.0 / 65.0
EXTRAP_INTERCEPT_EXAMPLE = 24.0 / 65.0

# Averaged estimate at v = 0.3 with norm N = 0.9:
#   o_av = (0.3 + 0.3/0.9)/2 = (0.3 + 1/3)/2 = 19/60, delta = 1/60.
O_AV_EXAMPLE = 19.0 / 60.0
DELTA_AV_EXAMPLE = 1.0 / 60.0


# -- dense Pauli / gate / circuit oracles --------------------------------

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def dense_letters(letters: str) -> np.ndarray:
    """Kron of single-site Pauli matrices in string order."""
    out = np.ones((1, 1), dtype=complex)
    for letter in letters:
        out = np.kron(out, PAULI_MATS[letter])
    return out


def dense_word(word: PauliWord) -> np.ndarray:
    return dense_letters("".join(word.site(j) for j in range(word.n)))


_DENSE_NAMED = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "x": PAULI_MATS["X"],
    "y": PAULI_MATS["Y"],
    "z": PAULI_MATS["Z"],
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
}


def dense_gate_local(gate) -> np.ndarray:
    """The gate's unitary on its own qubits, recomputed from scratch."""
    if gate.name in _DENSE_NAMED:
        return _DENSE_NAMED[gate.name]
    if gate.name == "rzz":
        w = dense_letters("ZZ")
    elif gate.name in ("rx", "ry", "rz"):
        w = PAULI_MATS[gate.name[-1].upper()]
    elif gate.name == "rot":
        w = dense_letters(gate.axis)
    else:
        raise ValueError(f"oracle does not know gate {gate.name!r}")
    dim = w.shape[0]
    half = 0.5 * gate.angle
    return math.cos(half) * np.eye(dim, dtype=complex) - 1j * math.sin(half) * w


def embed_gate(local: np.ndarray, qubits, n: int) -> np.ndarray:
    """Expand a k-qubit unitary to all n qubits by basis-index arithmetic.

    Qubit j owns bit (n - 1 - j) of the basis index; this walks every
    column and scatters the local matrix's amplitudes, a mechanism with
    nothing in common with axis-based tensor application.
    """
    k = len(qubits)
    full = np.zeros((2**n, 2**n), dtype=complex)
    shifts = [n - 1 - q for q in qubits]
    for col in range(2**n):
        sub_col = 0
        for pos, sh in enumerate(shifts):
            sub_col |= ((col >> sh) & 1) << (k - 1 - pos)
        base = col
        for sh in shifts:
            base &= ~(1 << sh)
        for sub_row in range(2**k):
            row = base
            for pos, sh in enumerate(shifts):
                row |= ((sub_row >> (k - 1 - pos)) & 1) << sh
            amp = local[sub_row, sub_col]
            if amp != 0.0:
                full[row, col] += amp
    return full


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n circuit unitary; later gates multiply from the left."""
    u = np.eye(2**circuit.n, dtype=complex)
    for gate in circuit.gates():
        u = embed_gate(dense_gate_local(gate), gate.qubits, circuit.n) @ u
    return u


def dense_expectation(circuit: Circuit, obs: np.ndarray) -> float:
    u = dense_unitary(circuit)
    val = (u.conj().T @ obs @ u)[0, 0]
    assert abs(val.imag) < 1e-10
    return float(val.real)


# -- brute-force tensor contraction --------------------------------------


def naive_contract(tensors, output=()):
    """Sum over every assignment of every label with nested loops.

    ``tensors`` is a sequence of (ndarray, labels) pairs or Tensor objects.
    Exponential and proud of it; keep the networks tiny.
    """
    pairs = []
    dims: dict[str, int] = {}
    for t in tensors:
        data, labels = (t.data, t.inds) if isinstance(t, Tensor) else t
        pairs.append((np.asarray(data), tuple(labels)))
        for ax, l in enumerate(labels):
            d = data.shape[ax]
            if dims.setdefault(l, d) != d:
                raise ValueError(f"label {l} has conflicting dimensions")
    order = sorted(dims)
    out_shape = tuple(dims[l] for l in output)
    result = np.zeros(out_shape if out_shape else (), dtype=complex)
    for assignment in itertools.product(*(range(dims[l]) for l in order)):
        env = dict(zip(order, assignment))
        term = 1.0 + 0.0j
        for data, labels in pairs:
            term *= data[tuple(env[l] for l in labels)]
            if term == 0.0:
                break
        if term == 0.0:
            continue
        idx = tuple(env[l] for l in output)
        result[idx] += term
    return result


_NAMED_1Q = ("h", "s", "sdg", "x", "y", "z")
_NAMED_2Q = ("cx", "cz")


def random_gate(rng: np.random.Generator, n: int, clifford_only: bool = False) -> Gate:
    kinds = ["named1", "named2", "rx", "rz", "rzz", "rot"]
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "named1" or n < 2 and kind in ("named2", "rzz"):
        return Gate(_NAMED_1Q[int(rng.integers(0, 6))], (int(rng.integers(0, n)),))
    if kind == "named2":
        q = rng.choice(n, size=2, replace=False)
        return Gate(_NAMED_2Q[int(rng.integers(0, 2))], (int(q[0]), int(q[1])))
    if clifford_only:
        angle = float(rng.integers(1, 4)) * math.pi / 2
    else:
        angle = float(rng.uniform(-math.pi, math.pi))
    if kind in ("rx", "rz"):
        return Gate(kind, (int(rng.integers(0, n)),), angle)
    if kind == "rzz":
        q = rng.choice(n, size=2, replace=False)
        return Gate("rzz", (int(q[0]), int(q[1])), angle)
    k = int(rng.integers(1, min(3, n) + 1))
    qubits = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
    axis = "".join(("X", "Y", "Z")[int(rng.integers(0, 3))] for _ in qubits)
    return Gate("rot", qubits, angle, axis)


def mixed_gate(rng: np.random.Generator, n: int, sites=None) -> Gate:
    """A random gate of every kind, rotations with Y axes included, on
    ``sites`` (default: all n); half the rotation angles are exact
    multiples of pi/2."""
    sites = n if sites is None else sites
    kind = ("named1", "named2", "rx", "ry", "rz", "rzz", "rot")[int(rng.integers(0, 7))]
    if kind == "named1":
        return Gate(("h", "s", "sdg", "x", "y", "z")[int(rng.integers(0, 6))],
                    (int(rng.choice(sites)),))
    qubits = tuple(int(q) for q in rng.choice(sites, size=3, replace=False))
    if kind == "named2":
        return Gate(("cx", "cz")[int(rng.integers(0, 2))], qubits[:2])
    if rng.random() < 0.5:
        angle = float(rng.integers(-4, 5)) * math.pi / 2
    else:
        angle = float(rng.uniform(-math.pi, math.pi))
    if kind == "rzz":
        return Gate("rzz", qubits[:2], angle)
    if kind != "rot":
        return Gate(kind, qubits[:1], angle)
    axis = "".join(("X", "Y", "Z")[int(rng.integers(0, 3))] for _ in qubits)
    return Gate("rot", qubits, angle, axis)


def random_circuit(
    rng: np.random.Generator, n: int, depth: int, clifford_only: bool = False
) -> Circuit:
    layers = tuple(
        Layer((random_gate(rng, n, clifford_only),)) for _ in range(depth)
    )
    return Circuit(n, layers)


def random_word(rng: np.random.Generator, n: int, p: float = 0.4) -> PauliWord:
    z = [j for j in range(n) if rng.random() < p]
    x = [j for j in range(n) if rng.random() < p]
    return PauliWord.from_sites(n, z=z, x=x)


# -- lattice fragments and random networks --------------------------------


def bfs_fragment(lattice: Lattice, seed_site: int, max_n: int) -> Lattice:
    """Induced subgraph of a breadth-first ball, relabeled to 0..m-1."""
    frontier = [seed_site]
    keep = [seed_site]
    seen = {seed_site}
    while frontier and len(keep) < max_n:
        nxt = []
        for u in frontier:
            for v in lattice.neighbors(u):
                if v not in seen and len(keep) < max_n:
                    seen.add(v)
                    keep.append(v)
                    nxt.append(v)
        frontier = nxt
    relabel = {site: j for j, site in enumerate(keep)}
    edges = tuple(
        (relabel[u], relabel[v])
        for u, v in lattice.edges
        if u in relabel and v in relabel
    )
    return Lattice(len(keep), edges)


def heavy_hex_fragments(count: int, max_n: int = 16) -> list[Lattice]:
    """Distinct small induced fragments of a heavy-hex lattice."""
    base = heavy_hex(2, 3)
    out = []
    signatures = set()
    sizes = itertools.cycle(range(5, max_n + 1))
    for seed in range(base.n):
        frag = bfs_fragment(base, seed, next(sizes))
        sig = (frag.n, frag.edges)
        if sig in signatures:
            continue
        signatures.add(sig)
        out.append(frag)
        if len(out) == count:
            return out
    raise RuntimeError(f"only found {len(out)} distinct fragments")


def random_tree_sites(rng: np.random.Generator, n_sites: int, max_dim: int = 8):
    """Random tree site network: {site: [Tensor]} plus the edge list.

    Site k > 0 attaches to a uniformly random earlier site; each edge gets
    an independent bond dimension in 2..max_dim and each site one random
    complex tensor over its incident bonds.
    """
    edges = []
    for k in range(1, n_sites):
        edges.append((int(rng.integers(0, k)), k))
    bond_dims = {e: int(rng.integers(2, max_dim + 1)) for e in edges}
    legs: dict[int, list[str]] = {k: [] for k in range(n_sites)}
    for u, v in edges:
        label = f"e{u}_{v}"
        legs[u].append(label)
        legs[v].append(label)
    sites = {}
    for k in range(n_sites):
        shape = tuple(bond_dims[_edge_of(label)] for label in legs[k])
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sites[k] = [Tensor(data.astype(complex), tuple(legs[k]))]
    return sites, edges


def _edge_of(label: str) -> tuple[int, int]:
    u, v = label[1:].split("_")
    return (int(u), int(v))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


@pytest.fixture
def empty_plan_cache():
    """Start and end a test with no cached contraction plan, so what it
    counts or races does not depend on the tests run before it."""
    from spdtn import tensor

    tensor.clear_plan_cache()
    yield
    tensor.clear_plan_cache()


@pytest.fixture
def greedy_calls(monkeypatch, empty_plan_cache) -> list:
    """A list that grows by one on each ``greedy_path`` call made through
    ``spdtn.tensor``, that is, on each contraction planned afresh."""
    from spdtn import tensor

    calls: list = []
    inner = tensor.greedy_path

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(tensor, "greedy_path", counting)
    return calls


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)`` runs ``fn(*args)`` under ``tracemalloc``
    and returns its result and the peak of the bytes allocated during the
    call, result included; what existed before the call is not counted."""

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return run
