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
    """One tensor per site; the bonds between sites are the labels two
    site tensors share (``SiteNetwork`` derives the graph from them).

    kind "peps": physical label ``p{i}`` per site (a ket state).
    kind "pepo": Pauli label ``a{i}`` per site (an operator, real).
    Absorbing a layer (``apply_layer``) adds a bond label per two-site gate,
    and compression (``evolve``) fuses each site pair's labels back to a
    single label of dimension <= chi.
    """

    kind: str
    n: int
    tensors: dict[int, Tensor]
    t: int = 0
    trunc_log: list[tuple[int, int, int, float]] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    _labels: Iterable[str] = field(default=None, repr=False)

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


def peps_zero(n: int) -> EvolvingState:
    tensors = {
        i: Tensor(np.array([1.0, 0.0], dtype=complex), (f"p{i}",)) for i in range(n)
    }
    return EvolvingState("peps", n, tensors)


def pepo_from_word(word: PauliWord) -> EvolvingState:
    tensors = {
        i: Tensor(np.eye(4)["IXYZ".index(word.site(i))], (f"a{i}",))
        for i in range(word.n)
    }
    return EvolvingState("pepo", word.n, tensors)


def _pauli_transfer(u: np.ndarray) -> np.ndarray:
    """R[a, b] = Tr(P_a U† P_b U) / 2^q over the q-qubit Pauli basis (kron in
    qubit order): the real map U† O U takes O's Pauli coefficients c to R c."""
    basis = PAULI_BASIS
    if len(u) == 4:
        basis = np.einsum("aij,bkl->abikjl", basis, basis).reshape(16, 4, 4)
    images = u.conj().T @ basis @ u
    return np.einsum("aij,bji->ab", basis, images).real / len(u)


def _split_two_site(
    mat: np.ndarray, new_a: str, old_a: str, new_b: str, old_b: str, bond: str
) -> tuple[Tensor, Tensor]:
    """Split a two-site matrix (new fused, old fused) into site halves.

    Returns (L, R) with L over (new_a, old_a, bond) and R over
    (bond, new_b, old_b); singular weights split evenly as sqrt(s) on each
    side.  Exact: singular values below ``ZERO_CUT`` of the largest are
    rounding noise and cut, so RZZ yields bond dimension 2 on a state and 4
    on an operator.
    """
    d = math.isqrt(len(mat))
    t = Tensor(mat.reshape(d, d, d, d), (new_a, new_b, old_a, old_b))
    u, s, vh, _ = truncated_svd(t, (new_a, old_a), chi=None, kappa=0.0, new_label=bond)
    r = int(np.sum(s >= ZERO_CUT * s[0]))
    root = np.sqrt(s[:r])
    left = Tensor(u.data[..., :r] * root[None, None, :], u.inds)
    right = Tensor(root[:, None, None] * vh.data[:r], vh.inds)
    return left, right


def _gate_tensors(state: EvolvingState, gate: Gate) -> list[tuple[int, str, Tensor]]:
    """The gate (its unitary on a state, its Pauli transfer matrix on an
    operator) as (q, fresh label, tensor from ``state.phys_label(q)`` to it)
    per qubit q; a two-qubit gate's pair also shares a fresh bond label."""
    mat = gate_matrix(gate)
    if state.kind == "pepo":
        mat = _pauli_transfer(mat)
    phys = state.phys_label
    if len(gate.qubits) == 1:
        (q,) = gate.qubits
        new = state.fresh_label()
        return [(q, new, Tensor(mat, (new, phys(q))))]
    if len(gate.qubits) == 2:
        qa, qb = gate.qubits
        new_a, new_b, bond = state.fresh_label(), state.fresh_label(), state.fresh_label()
        left, right = _split_two_site(mat, new_a, phys(qa), new_b, phys(qb), bond)
        return [(qa, new_a, left), (qb, new_b, right)]
    raise ValueError(f"tensor evolution supports 1- and 2-qubit gates, got {gate}")


def apply_layer(state: EvolvingState, layer: Layer):
    """Absorb one gate layer: U on a peps, O -> U† O U (as R) on a pepo."""
    for gate in layer.gates:
        for q, new, g in _gate_tensors(state, gate):
            phys = state.phys_label(q)
            t = state.tensors[q]
            bonds = tuple(l for l in g.inds if l not in (new, phys))
            out = (new,) + bonds + tuple(l for l in t.inds if l != phys)
            state.tensors[q] = contract([g, t], output=out).relabel({new: phys})


def _two_norm_network(state: EvolvingState) -> SiteNetwork:
    sites = {i: [state.tensors[i]] for i in range(state.n)}
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
    proceeds with the best available messages.
    """
    opts = bp_options or BpOptions()
    for layer in layers:
        apply_layer(state, layer)
    state.t += 1
    sn = _two_norm_network(state)
    if not sn.edges:
        return state
    ms = opts.iterate(sn, mode="two-norm")
    if not ms.converged:
        state.flags.append(f"l2bp_nonconverged:t={state.t}:delta={ms.max_delta:.3e}")
    projectors: dict[int, list[Tensor]] = {i: [] for i in range(state.n)}
    for (i, j), labels in sn.edges.items():
        fused = state.fresh_label()
        p_a, p_b, dw = compress_bond(
            ms.messages[(i, j)], ms.messages[(j, i)], chi, kappa, new_label=fused
        )
        projectors[i].append(p_a)
        projectors[j].append(p_b)
        state.trunc_log.append((state.t, i, j, dw))
    for i in range(state.n):
        ps = projectors[i]
        if not ps:
            continue
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
    """<psi| Op |psi> as a site network.

    Per site: the bra (the ket's ``doubled_sites`` copy, every label
    starred), the operator tensor, the Pauli tensor over
    (a{i}, p{i}*, p{i}), and the ket.
    """
    if psi.kind != "peps" or op.kind != "pepo":
        raise ValueError("sandwich needs a peps state and a pepo operator")
    if psi.n != op.n:
        raise ValueError("state and operator sizes differ")
    sites = {}
    kets = {i: [psi.tensors[i]] for i in range(psi.n)}
    for i, (ket, bra) in doubled_sites(kets).items():
        pauli = Tensor(PAULI_BASIS, (f"a{i}", star(f"p{i}"), f"p{i}"))
        sites[i] = [bra, op.tensors[i], pauli, ket]
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
    observable's causal cone are dropped first (``lightcone_prune``).

    The value is reported without renormalization; the norm proxies
    (n_psi, n_o, and their product n_mix) quantify how much weight the
    compressions discarded.
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

    psi = peps_zero(circuit.n)
    for group in steps[:tau]:
        evolve(psi, group, chi, kappa, opts)
    op = pepo_from_word(word)
    for group in reversed(steps[tau + lazy_count :]):
        evolve(op, list(reversed(group)), chi, kappa, opts)

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
    max_bond = max((sn.bond_dim(i, j) for i, j in sn.edges), default=1)
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
        max_bond=max_bond,
        trunc_max_discarded=max(discards, default=0.0),
        trunc_sum_discarded=float(sum(discards)),
        flags=flags,
    )
