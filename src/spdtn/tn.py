"""Tensor-network expectation values via BP-compressed evolution.

Three drivers over the same machinery, differing in how circuit layers are
split between a state evolved forward and an operator evolved backward:

- ``peps``: all steps go into the state, the last two uncompressed.
- ``pepo``: all steps go into the operator, except that the
  ``int(log2(chi)/2)`` steps nearest the initial state go into the state,
  uncompressed.
- ``mix``: the state takes ``ceil(T/2)`` steps and the operator the rest,
  both compressed, meeting in a three-bond-per-edge sandwich.

Compression after each step runs two-norm BP on the doubled network and
inserts per-bond oblique projectors (see ``bp.compress_bond``), fusing all
labels a site pair shares into one bond of dimension <= chi.  The final
scalar sandwich is estimated with the Bethe formula (``bp.l1bp_value``).
Each state holds only the sites its gates have touched (``EvolvingState``),
so on a light-cone-pruned circuit every network spans the cone, not the
device.

Label scheme: the state carries physical labels ``p{site}`` and virtual
labels ``s{num}``.  The operator is Hermitian, so, as in ``spd``, it is held
by its real Pauli coefficients: one label ``a{site}`` over I, X, Y, Z
(0..3) and virtual labels ``o{num}``; a gate enters it as its real Pauli
transfer matrix R[a, b] = Tr(P_a U† P_b U) / 2^q, through the same
gate-to-tensor step that applies U to the state, so its BP and projectors
run in float64.  In the sandwich each operator site meets the constant
Pauli tensor P[a, k, b] = <k|P_a|b> over (``a{site}``, ``p{site}*``,
``p{site}``): the bra side is the ket side's ``doubled_sites`` conjugate,
with every label starred per the star convention in ``bp``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .bp import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ZERO_CUT,
    MessageSet,
    SiteNetwork,
    bp_iterate,
    compress_bond,
    doubled_sites,
    l1bp_value,
    star,
)
from .circuits import PAULI_BASIS, Circuit, Gate, Layer, gate_matrix, lightcone_prune
from .paulis import PauliWord
from .spd import PauliSum
from .tensor import Tensor, contract, truncated_svd

__all__ = [
    "BpOptions",
    "EvolvingState",
    "TnResult",
    "peps_zero",
    "pepo_from_word",
    "apply_layer",
    "evolve",
    "state_norm",
    "sandwich_network",
    "run_tn",
    "DEFAULT_KAPPA",
]

DEFAULT_KAPPA = 5e-6


@dataclass
class BpOptions:
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    damping: float = 0.0

    def iterate(self, sn: SiteNetwork, mode: str) -> MessageSet:
        """``bp_iterate`` on ``sn`` in ``mode`` with these options."""
        return bp_iterate(
            sn, tol=self.tol, max_iter=self.max_iter, mode=mode, damping=self.damping
        )


@dataclass
class EvolvingState:
    """One tensor per held site; the bonds between sites are the labels two
    site tensors share (``SiteNetwork`` derives the graph from them).

    kind "peps": physical label ``p{i}`` per site (a ket state).
    kind "pepo": Pauli label ``a{i}`` per site (an operator, real).
    A site the state does not hold is untouched: |0> on a state, I on an
    operator (``site``).  ``peps_zero`` and ``pepo_from_word`` hold all n
    sites; ``run_tn`` starts the state empty and the operator on the
    observable's support, and ``apply_layer`` takes in each site when a
    gate first touches it, so every per-site loop skips the untouched
    sites, whose factors are exactly 1.  Absorbing a layer adds a bond
    label per two-site gate, and compression (``evolve``) fuses each site
    pair's labels back to a single label of dimension <= chi.  ``_gates``
    keeps the arrays of each distinct gate absorbed so far
    (``_gate_arrays``).
    """

    kind: str
    n: int
    tensors: dict[int, Tensor]
    t: int = 0
    trunc_log: list[tuple[int, int, int, float]] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    _labels: Iterable[str] = field(default=None, repr=False)
    _gates: dict[tuple, tuple[np.ndarray, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind not in ("peps", "pepo"):
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self._labels is None:
            prefix = "s" if self.kind == "peps" else "o"
            self._labels = (f"{prefix}{i}" for i in itertools.count())

    def fresh_label(self) -> str:
        return next(self._labels)

    def phys_label(self, site: int) -> str:
        return f"{'p' if self.kind == 'peps' else 'a'}{site}"

    def site(self, i: int) -> Tensor:
        """Site i's tensor, or its untouched factor if the state does not
        hold it: |0> on a state, I on an operator."""
        t = self.tensors.get(i)
        return _product_site(self.kind, i) if t is None else t


def _product_site(kind: str, i: int, letter: str = "I") -> Tensor:
    """Site i of |0...0> (kind "peps"), or of a Pauli word with ``letter``
    there (kind "pepo")."""
    if kind == "peps":
        return Tensor(np.array([1.0, 0.0], dtype=complex), (f"p{i}",))
    return Tensor(np.eye(4)["IXYZ".index(letter)], (f"a{i}",))


def _operator_on(word: PauliWord, sites: Iterable[int]) -> EvolvingState:
    """The operator ``word``, holding the given sites."""
    tensors = {i: _product_site("pepo", i, word.site(i)) for i in sites}
    return EvolvingState("pepo", word.n, tensors)


def peps_zero(n: int) -> EvolvingState:
    return EvolvingState("peps", n, {i: _product_site("peps", i) for i in range(n)})


def pepo_from_word(word: PauliWord) -> EvolvingState:
    return _operator_on(word, range(word.n))


def _pauli_transfer(u: np.ndarray) -> np.ndarray:
    """R[a, b] = Tr(P_a U† P_b U) / 2^q over the q-qubit Pauli basis (kron in
    qubit order): the real map U† O U takes O's Pauli coefficients c to R c."""
    basis = PAULI_BASIS
    if len(u) == 4:
        basis = np.einsum("aij,bkl->abikjl", basis, basis).reshape(16, 4, 4)
    images = u.conj().T @ basis @ u
    return np.einsum("aij,bji->ab", basis, images).real / len(u)


def _split_two_site(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a two-site matrix (new fused, old fused) into site halves.

    Returns (L, R) with L over (new_a, old_a, bond) and R over
    (bond, new_b, old_b); singular weights split evenly as sqrt(s) on each
    side.  Exact: singular values below ``ZERO_CUT`` of the largest are
    rounding noise and cut, so RZZ yields bond dimension 2 on a state and 4
    on an operator.
    """
    d = math.isqrt(len(mat))
    t = Tensor(mat.reshape(d, d, d, d), ("na", "nb", "oa", "ob"))
    u, s, vh, _ = truncated_svd(t, ("na", "oa"), chi=None, kappa=0.0, new_label="bond")
    r = int(np.sum(s >= ZERO_CUT * s[0]))
    root = np.sqrt(s[:r])
    return u.data[..., :r] * root[None, None, :], root[:, None, None] * vh.data[:r]


def _gate_arrays(state: EvolvingState, gate: Gate) -> tuple[np.ndarray, ...]:
    """The gate on ``state`` (its unitary on a state, its Pauli transfer
    matrix on an operator) as one array per qubit, two-qubit gates split by
    ``_split_two_site``.  Built once per distinct gate and kept, read-only,
    on the state, since a circuit repeats a few gates many times.  A gate is
    known by what its matrix depends on: its name, its angle's bits and its
    axis letters."""
    angle = None if gate.angle is None else float(gate.angle).hex()
    key = (state.kind, gate.name, angle, gate.axis)
    arrays = state._gates.get(key)
    if arrays is None:
        if len(gate.qubits) not in (1, 2):
            raise ValueError(f"tensor evolution supports 1- and 2-qubit gates, got {gate}")
        mat = gate_matrix(gate)
        if state.kind == "pepo":
            mat = _pauli_transfer(mat)
        arrays = (mat,) if len(gate.qubits) == 1 else _split_two_site(mat)
        for a in arrays:
            a.flags.writeable = False
        state._gates[key] = arrays
    return arrays


def _gate_tensors(state: EvolvingState, gate: Gate) -> list[tuple[int, str, Tensor]]:
    """The gate's arrays (``_gate_arrays``) as (q, fresh label, tensor from
    ``state.phys_label(q)`` to it) per qubit q; a two-qubit gate's pair also
    shares a fresh bond label."""
    arrays = _gate_arrays(state, gate)
    phys = state.phys_label
    if len(gate.qubits) == 1:
        (q,) = gate.qubits
        new = state.fresh_label()
        return [(q, new, Tensor(arrays[0], (new, phys(q))))]
    qa, qb = gate.qubits
    new_a, new_b, bond = state.fresh_label(), state.fresh_label(), state.fresh_label()
    left, right = arrays
    return [
        (qa, new_a, Tensor(left, (new_a, phys(qa), bond))),
        (qb, new_b, Tensor(right, (bond, new_b, phys(qb)))),
    ]


def apply_layer(state: EvolvingState, layer: Layer):
    """Absorb one gate layer: U on a peps, O -> U† O U (as R) on a pepo.
    A site the state does not hold yet is taken in from its untouched
    factor."""
    for gate in layer.gates:
        for q, new, g in _gate_tensors(state, gate):
            phys = state.phys_label(q)
            t = state.site(q)
            bonds = tuple(l for l in g.inds if l not in (new, phys))
            out = (new,) + bonds + tuple(l for l in t.inds if l != phys)
            state.tensors[q] = contract([g, t], output=out).relabel({new: phys})


def _two_norm_network(state: EvolvingState) -> SiteNetwork:
    """<state|state> over the held sites; each untouched site gives 1."""
    sites = {i: [t] for i, t in state.tensors.items()}
    return SiteNetwork(doubled_sites(sites, outer=[state.phys_label(i) for i in sites]))


def evolve(
    state: EvolvingState,
    layers: Sequence[Layer],
    chi: int,
    kappa: float = DEFAULT_KAPPA,
    bp_options: BpOptions | None = None,
) -> EvolvingState:
    """Absorb the given layers as one step, then compress every bond.

    Runs two-norm BP on the doubled network, computes a projector pair per
    bonded site pair, and contracts each site's tensor with its adjacent
    projectors, leaving one bond label of dimension <= chi per pair.
    BP non-convergence is recorded in ``state.flags`` and evolution
    proceeds with the best available messages.  A message that is not
    finite (a NaN or infinite entry in a state's tensors) has no
    projector: ``ValueError`` names the step.
    """
    opts = bp_options or BpOptions()
    for layer in layers:
        apply_layer(state, layer)
    state.t += 1
    sn = _two_norm_network(state)
    if not sn.edges:
        return state
    ms = opts.iterate(sn, mode="two-norm")
    if not math.isfinite(ms.max_delta):
        raise ValueError(f"two-norm BP message is not finite at step {state.t}")
    if not ms.converged:
        state.flags.append(f"l2bp_nonconverged:t={state.t}:delta={ms.max_delta:.3e}")
    projectors: dict[int, list[Tensor]] = {}
    for (i, j), labels in sn.edges.items():
        fused = state.fresh_label()
        p_a, p_b, dw = compress_bond(
            ms.messages[(i, j)], ms.messages[(j, i)], chi, kappa, new_label=fused
        )
        projectors.setdefault(i, []).append(p_a)
        projectors.setdefault(j, []).append(p_b)
        state.trunc_log.append((state.t, i, j, dw))
    for i, ps in projectors.items():
        t = state.tensors[i]
        fused = [l for p in ps for l in p.inds if l not in t.inds]
        kept = [l for l in t.inds if all(l not in p.inds for p in ps)]
        state.tensors[i] = contract([t] + ps, output=tuple(kept) + tuple(fused))
    return state


def state_norm(
    state: EvolvingState, bp_options: BpOptions | None = None
) -> tuple[float, MessageSet]:
    """Norm proxy after compression: ||psi|| for peps, sqrt(sum c_P^2) for pepo.

    Estimated with the Bethe formula on the doubled network.
    """
    opts = bp_options or BpOptions()
    sn = _two_norm_network(state)
    ms = opts.iterate(sn, mode="two-norm")
    value = l1bp_value(sn, ms)
    if abs(value.imag) > 1e-8 * max(1.0, abs(value)):
        raise AssertionError(f"norm estimate has imaginary part {value.imag:.3e}")
    return math.sqrt(max(value.real, 0.0)), ms


def sandwich_network(psi: EvolvingState, op: EvolvingState) -> SiteNetwork:
    """<psi| Op |psi> as a site network over the sites either side holds.

    Per site: the bra (the ket's ``doubled_sites`` copy, every label
    starred), the operator tensor, the Pauli tensor over
    (a{i}, p{i}*, p{i}), and the ket.  Where only one side holds a site the
    other side's untouched factor stands in (``EvolvingState.site``); a
    site neither holds gives <0|I|0> = 1 and is left out.
    """
    if psi.kind != "peps" or op.kind != "pepo":
        raise ValueError("sandwich needs a peps state and a pepo operator")
    if psi.n != op.n:
        raise ValueError("state and operator sizes differ")
    sites = {}
    kets = {i: [psi.site(i)] for i in sorted(psi.tensors.keys() | op.tensors.keys())}
    for i, (ket, bra) in doubled_sites(kets).items():
        pauli = Tensor(PAULI_BASIS, (f"a{i}", star(f"p{i}"), f"p{i}"))
        sites[i] = [bra, op.site(i), pauli, ket]
    return SiteNetwork(sites)


@dataclass(frozen=True)
class TnResult:
    """One tensor-network expectation run."""

    expectation: float
    n_psi: float
    n_o: float
    n_mix: float
    method: str
    chi: int
    kappa: float
    tau: int
    op_steps: int
    lazy_steps: int
    bp_iterations: int
    bp_max_delta: float
    converged: bool
    max_bond: int
    trunc_max_discarded: float
    trunc_sum_discarded: float
    flags: tuple[str, ...]


def _step_groups(circuit: Circuit) -> list[list[Layer]]:
    """Layers grouped into steps: consecutive layers sharing a step tag >= 0."""
    groups: list[list[Layer]] = []
    current = object()
    for layer in circuit.layers:
        key = layer.step if layer.step >= 0 else object()
        if groups and key == current:
            groups[-1].append(layer)
        else:
            groups.append([layer])
        current = key
    return groups


def run_tn(
    circuit: Circuit,
    observable,
    method: str,
    chi: int,
    kappa: float = DEFAULT_KAPPA,
    bp_tol: float = DEFAULT_TOL,
    bp_max_iter: int = DEFAULT_MAX_ITER,
    damping: float = 0.0,
    lightcone: bool = True,
) -> TnResult:
    """Expectation <0|U† O U|0> by the peps, pepo, or mix method.

    With ``lightcone`` (the default, as in ``sim sweep``) gates outside the
    observable's causal cone are dropped first (``lightcone_prune``).  The
    state holds only the sites touched by its own steps' gates, and the
    operator only those touched by its steps' gates plus the observable's
    support (``EvolvingState``); an untouched site contributes exactly 1 to
    every norm and to the sandwich, and BP's schedule depends only on the
    bonds, so values, norms, bonds and sweep counts are those of holding
    all n sites.

    The value is reported without renormalization; the norm proxies
    (n_psi, n_o, and their product n_mix) quantify how much weight the
    compressions discarded.  Every gate angle is finite (``Gate``).
    """
    if method not in ("peps", "pepo", "mix"):
        raise ValueError(f"unknown method {method!r}")
    if chi < 1:
        raise ValueError("chi must be at least 1")
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be >= 0 and finite, got {kappa!r}")
    observable = PauliSum.of(observable, circuit.n)
    if observable.num_terms != 1:
        raise ValueError("tensor methods take a single Pauli word at a time")
    ((word, scale),) = observable.terms()
    if lightcone:
        circuit = lightcone_prune(circuit, word.support())
    opts = BpOptions(tol=bp_tol, max_iter=bp_max_iter, damping=damping)
    steps = _step_groups(circuit)
    total = len(steps)
    if method == "peps":
        lazy_count = min(total, 2)
        tau = total - lazy_count
    elif method == "pepo":
        tau, lazy_count = 0, min(total, int(math.log2(chi) / 2))
    else:
        tau, lazy_count = (total + 1) // 2, 0
    op_steps = total - tau - lazy_count

    # each state holds only the sites its own gates touch (and, for the
    # operator, the observable's support): every other factor is exactly 1
    psi = EvolvingState("peps", circuit.n, {})
    op = _operator_on(word, word.support())

    schedule = [(psi, group) for group in steps[:tau]]
    schedule += [(op, list(reversed(group))) for group in reversed(steps[tau + lazy_count :])]
    for state, layers in schedule:
        evolve(state, layers, chi, kappa, opts)

    n_psi, ms_psi = state_norm(psi, opts)
    n_o, ms_o = state_norm(op, opts)
    if not ms_psi.converged:
        psi.flags.append(f"norm_bp_nonconverged:delta={ms_psi.max_delta:.3e}")
    if not ms_o.converged:
        op.flags.append(f"norm_bp_nonconverged:delta={ms_o.max_delta:.3e}")
    for name, proxy in (("state", n_psi), ("operator", n_o)):
        if proxy > 1.0 + 1e-8:
            raise AssertionError(f"{name} norm proxy {proxy} exceeds 1")

    # the lazy steps enter the state uncompressed, after its norm proxy
    for group in steps[tau : tau + lazy_count]:
        for layer in group:
            apply_layer(psi, layer)
    sn = sandwich_network(psi, op)
    ms = opts.iterate(sn, mode="one-norm")
    value = scale * l1bp_value(sn, ms)
    imag_flags: tuple[str, ...] = ()
    if abs(value.imag) > 1e-8 * max(1.0, abs(value)):
        # Hermiticity of the Bethe value is only guaranteed at a converged
        # fixed point; short of one, report the residue instead of raising
        if ms.converged:
            raise AssertionError(f"expectation has imaginary part {value.imag:.3e}")
        imag_flags = (f"imag_residue:{value.imag:.3e}",)

    flags = tuple(psi.flags) + tuple(op.flags) + imag_flags + (
        () if ms.converged else (f"l1bp_nonconverged:delta={ms.max_delta:.3e}",)
    )
    discards = [dw for _, _, _, dw in psi.trunc_log + op.trunc_log]
    return TnResult(
        expectation=float(value.real),
        n_psi=n_psi,
        n_o=n_o,
        n_mix=n_psi * n_o,
        method=method,
        chi=chi,
        kappa=kappa,
        tau=tau,
        op_steps=op_steps,
        lazy_steps=lazy_count,
        bp_iterations=ms.iterations,
        bp_max_delta=ms.max_delta,
        converged=ms.converged and not flags,
        max_bond=max((sn.bond_dim(i, j) for i, j in sn.edges), default=1),
        trunc_max_discarded=max(discards, default=0.0),
        trunc_sum_discarded=float(sum(discards)),
        flags=flags,
    )
