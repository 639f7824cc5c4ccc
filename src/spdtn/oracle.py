"""Ground-truth engines for small problems.

Three independent routes to ⟨0|U†OU|0⟩, used to validate the production
engines against each other: dense statevector simulation (gate by gate on
the amplitude vector), dense Heisenberg conjugation (gate by gate on the
observable matrix, in reverse circuit order), and symplectic tableau
propagation for purely Clifford circuits.  Plus exact contraction of small
tensor networks under an element-count budget.

Amplitude indexing: the state reshapes to one axis per qubit in site order,
so in the flat C-order index qubit j owns bit (n - 1 - j).
"""

from __future__ import annotations

import math

import numpy as np

from .circuits import PAULI_BASIS, Circuit, Gate, gate_matrix
from .clifford import CliffordTableau, fold_angle
from .paulis import PauliSum, PauliWord, PhasedWord
from .tensor import CapacityError, Tensor, contract, greedy_path

__all__ = [
    "STATEVECTOR_MAX_QUBITS",
    "HEISENBERG_MAX_QUBITS",
    "CONTRACT_BUDGET",
    "statevector",
    "pauli_apply",
    "statevector_expectation",
    "word_matrix",
    "observable_matrix",
    "heisenberg_dense_expectation",
    "clifford_image",
    "clifford_expectation",
    "exact_contract",
]

STATEVECTOR_MAX_QUBITS = 24
HEISENBERG_MAX_QUBITS = 12
CONTRACT_BUDGET = 200_000_000


def _real_value(val: complex) -> float:
    """Real part of a Hermitian observable's expectation; raise on a residue."""
    if abs(val.imag) > 1e-10 * max(1.0, abs(val)):
        raise AssertionError(f"imaginary residue {val.imag}")
    return float(val.real)


# -- statevector route --------------------------------------------------


def statevector(circuit: Circuit, max_qubits: int = STATEVECTOR_MAX_QUBITS) -> np.ndarray:
    """Amplitudes of U|0...0> as a flat array of length 2**n.

    Each gate applies through tensordot on the per-qubit axes; the norm is
    checked to stay at 1 within 1e-10 after every gate (AssertionError).
    """
    n = circuit.n
    if n > max_qubits:
        raise CapacityError(
            f"statevector needs 2**{n} amplitudes; cap is {max_qubits} qubits"
        )
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for gate in circuit.gates():
        k = len(gate.qubits)
        m = gate_matrix(gate).reshape((2,) * (2 * k))
        psi = np.tensordot(m, psi, axes=(range(k, 2 * k), gate.qubits))
        psi = np.moveaxis(psi, range(k), gate.qubits)
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > 1e-10:
            raise AssertionError(f"norm drifted to {norm} at gate {gate}")
    return psi.reshape(-1)


def pauli_apply(vec: np.ndarray, word: PauliWord) -> np.ndarray:
    """Apply a canonical-convention word, (-i)^y (prod Z)(prod X), to a
    flat statevector via index arithmetic."""
    n = word.n
    if vec.shape != (2**n,):
        raise ValueError(f"vector length {vec.shape} does not match n={n}")
    # site j's bit j becomes index bit n - 1 - j: reverse the n-bit strings
    z_int, x_int = (int(f"{b:0{n}b}"[::-1], 2) for b in word.bits)
    ys = (z_int & x_int).bit_count()
    idx = np.arange(2**n, dtype=np.int64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & z_int) & 1)
    return ((-1j) ** ys) * signs * vec[idx ^ x_int]


def statevector_expectation(
    circuit: Circuit,
    observable,
    max_qubits: int = STATEVECTOR_MAX_QUBITS,
) -> float:
    """⟨0|U†OU|0⟩ by direct simulation; O is a word or a Hermitian sum."""
    observable = PauliSum.of(observable, circuit.n)
    psi = statevector(circuit, max_qubits)
    val = 0.0 + 0.0j
    for word, coeff in observable.terms():
        val += coeff * np.vdot(psi, pauli_apply(psi, word))
    return _real_value(val)


# -- dense Heisenberg route ---------------------------------------------


def word_matrix(word: PauliWord) -> np.ndarray:
    """Dense 2**n x 2**n matrix of a word (kron in site order)."""
    out = np.ones((1, 1), dtype=complex)
    for j in range(word.n):
        out = np.kron(out, PAULI_BASIS["IXYZ".index(word.site(j))])
    return out


def observable_matrix(observable, n: int) -> np.ndarray:
    out = np.zeros((2**n, 2**n), dtype=complex)
    for word, coeff in PauliSum.of(observable, n).terms():
        out += coeff * word_matrix(word)
    return out


def heisenberg_dense_expectation(
    circuit: Circuit,
    observable,
    max_qubits: int = HEISENBERG_MAX_QUBITS,
) -> float:
    """⟨0|U†OU|0⟩ by conjugating the dense observable backward through the
    circuit: O <- G†OG per gate, last circuit gate first."""
    n = circuit.n
    if n > max_qubits:
        raise CapacityError(
            f"dense conjugation needs 4**{n} entries; cap is {max_qubits} qubits"
        )
    op = observable_matrix(observable, n).reshape((2,) * (2 * n))
    for gate in reversed(list(circuit.gates())):
        k = len(gate.qubits)
        m = gate_matrix(gate).reshape((2,) * (2 * k))
        row_axes = list(gate.qubits)
        col_axes = [n + q for q in gate.qubits]
        # rows: O <- G† O, i.e. sum_a conj(G[a, r]) O[a, ...]
        op = np.tensordot(m.conj(), op, axes=(range(k), row_axes))
        op = np.moveaxis(op, range(k), row_axes)
        # columns: O <- O G, i.e. sum_b O[..., b] G[b, c]
        op = np.tensordot(op, m, axes=(col_axes, range(k)))
        op = np.moveaxis(op, range(2 * n - k, 2 * n), col_axes)
    val = complex(op[(0,) * (2 * n)])
    return _real_value(val)


# -- Clifford tableau route ---------------------------------------------


def _word(n: int, letters) -> PauliWord:
    """Word over n sites from (site, letter) pairs; 'I' letters add nothing."""
    letters = list(letters)
    return PauliWord.from_sites(
        n,
        z=[j for j, lt in letters if lt in "ZY"],
        x=[j for j, lt in letters if lt in "XY"],
    )


def _gate_tableau(gate: Gate) -> CliffordTableau:
    """Tableau of ``gate`` over its own qubits: local site i is gate.qubits[i].

    Raises ValueError for a rotation that does not fold to a Clifford.
    """
    if not gate.is_clifford:
        theta_p, _ = fold_angle(gate.angle)
        if theta_p != 0.0:
            raise ValueError(f"gate {gate} is not Clifford (residual angle {theta_p})")
    k = len(gate.qubits)
    local = Gate(gate.name, tuple(range(k)), gate.angle, gate.axis)
    return CliffordTableau.from_gates(k, [local])


def _gate_tableaus(circuit: Circuit) -> list[tuple[tuple[int, ...], CliffordTableau]]:
    """(qubits, gate-local tableau) per gate, last circuit gate first."""
    cache: dict[Gate, CliffordTableau] = {}
    steps = []
    for g in reversed(list(circuit.gates())):
        if g not in cache:
            cache[g] = _gate_tableau(g)
        steps.append((g.qubits, cache[g]))
    return steps


def _image(steps, n: int, word: PauliWord) -> PhasedWord:
    """Image of an n-site word through ``steps``, kept as a site -> letter map."""
    if word.n != n:
        raise ValueError(f"site counts differ: {word.n} != {n}")
    letters = {j: word.site(j) for j in word.support()}
    phase = 1.0 + 0.0j
    for qubits, tableau in steps:
        on_gate = [letters.get(q, "I") for q in qubits]
        if all(lt == "I" for lt in on_gate):
            continue
        image = tableau.conjugate(PhasedWord(_word(len(qubits), enumerate(on_gate)), phase))
        phase = image.phase
        for i, q in enumerate(qubits):
            letters[q] = image.word.site(i)
    return PhasedWord(_word(n, letters.items()), phase)


def clifford_image(circuit: Circuit, word: PauliWord) -> PhasedWord:
    """Heisenberg image U†WU of a canonical word under a Clifford circuit.

    Conjugates gate by gate, last circuit gate first (see
    :func:`clifford_expectation`).  Raises ValueError for a gate that is not
    Clifford, and for a word whose site count differs from the circuit's.
    """
    return _image(_gate_tableaus(circuit), circuit.n, word)


def clifford_expectation(circuit: Circuit, observable) -> float:
    """⟨0|U†OU|0⟩ for a purely Clifford circuit, one tableau per gate.

    Each gate conjugates the observable words individually (last circuit
    gate first), so this exercises a different path than whole-circuit
    recompilation.  A gate conjugates only the word's restriction to the
    gate's qubits, through a tableau over those qubits alone, and joins the
    image with the untouched rest; gates disjoint from a word's support
    leave it fixed and are skipped.  This is exact because a gate acts only
    on its qubits (a ``rot`` axis names a letter per qubit) and a canonical word
    factors over disjoint supports with no extra phase:
    C†(W_A ⊗ W_B)C = (C†W_A C) ⊗ W_B, and the phase of the result is the
    phase of the image.  The cost per gate thus scales with its arity, not
    with the site count.  Raises ValueError if any gate fails to fold to a
    Clifford.
    """
    observable = PauliSum.of(observable, circuit.n)
    steps = _gate_tableaus(circuit)
    val = 0.0 + 0.0j
    for word, coeff in observable.terms():
        image = _image(steps, circuit.n, word)
        if image.word.is_z_type:
            val += coeff * image.phase
    return _real_value(val)


# -- exact contraction --------------------------------------------------


def exact_contract(network, budget: int = CONTRACT_BUDGET) -> complex:
    """Contract a whole network to a scalar along a greedy path.

    Accepts a SiteNetwork or any iterable of tensors.  The largest
    intermediate is capped at ``budget`` elements; exceeding it raises
    CapacityError naming the offending contraction.
    """
    if hasattr(network, "sites"):
        tensors = [t for ts in network.sites.values() for t in ts]
    else:
        tensors = list(network)
    path = greedy_path(tensors, budget=budget)
    return complex(contract(tensors, output=(), path=path).item())
