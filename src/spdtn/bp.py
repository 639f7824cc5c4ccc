"""Belief propagation on site-grouped tensor networks.

A ``SiteNetwork`` assigns every tensor to exactly one site.  A label shared
by tensors on two different sites is a bond of the site graph; all labels
shared by the same site pair are fused into one message.  A label appearing
twice within a single site is internal and is contracted away locally.  A
label appearing once anywhere is dangling; BP requires none.

Doubled (2-norm) networks follow a star convention: ``doubled_sites`` adds
to each site the complex conjugate of its tensors with every internal label
``l`` renamed ``l*``, while designated outer (dangling) labels keep their
name so the conjugate copy traces them against the original.  Messages in
two-norm mode then factor as Hermitian PSD matrices over the (ket, bra)
label split and are symmetrized after every update.

A message is the contraction of the source site's tensors with all its
incoming messages except the one on the target bond, normalized to unit
1-norm.  Messages update in place, in sweeps: each update reads the newest
messages, in an order fixed once per call from the site graph alone.  A
breadth-first tree per connected component, rooted at its smallest site,
gives every site a depth, and a bond joins sites whose depths differ by at
most one.  A sweep first sends the messages toward the root, deepest source
first, then those between sites of equal depth, then those away from the
root, shallowest target first.  Without damping, on a tree or forest the
first sweep delivers the exact messages and the second confirms them with a
change of exactly zero; on loops the order still carries information across
the whole network in one sweep.  The change of a message within a sweep is
the 1-norm of the difference, and iteration stops when a sweep's largest
change drops below the tolerance.  A NaN or infinite change stops it at
once, unconverged, with that change as the residual.

Updates are change-driven.  Each message has a version, which goes up only
when an update writes an array whose bits differ from the old one.  An
update whose incoming messages (and, with damping, its own message) still
have the versions it last read would replay the same plan on the same
arrays and write the same bits, so it is skipped and its change counts as
0.0.  Messages, sweep counts and residuals are those of recomputing every
update; on a tree or forest the confirming sweep contracts nothing.

The Bethe value needs each site contracted with all its incoming messages,
and BP has just contracted it with all but one.  So, without damping,
``bp_iterate`` keeps in ``MessageSet.scales`` the factor each update's
normalization and phase fix divided out, for every message whose incoming
messages have not changed since (on a tree, all of them).  ``l1bp_value``
takes such a site's factor as that scale times the bond value it computes
anyway, and contracts only the other sites; values move by rounding only.

Labels and shapes stay fixed for the whole of one ``bp_iterate`` call, so
each directed message's update is set up once, before the first sweep: a
``ContractionPlan`` for the contraction and, in two-norm mode, the
permutations that symmetrize the result over its (ket, bra) split.  Plans
are looked up per structure in ``tensor``'s process-wide cache, so messages
of the same structure, later calls on the same network and ``l1bp_value``
(for the sites it contracts) plan only what has not been seen before.  The
sweeps then run on plain ndarrays: replay the plan, symmetrize, normalize,
fix the phase (one-norm mode), damp, and take the change.  Messages are ``Tensor`` objects only
where they enter (``init``) and leave (the returned ``MessageSet``).

Messages start in the network's dtype (``SiteNetwork.dtype``), so on a real
network, such as ``tn``'s Pauli-coefficient operator, BP, ``l1bp_value`` and
``compress_bond``'s ``eigh``, SVD and projectors all run in float64.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .tensor import Tensor, contract, eigh_psd, plan_contraction, svd_rank

__all__ = [
    "SiteNetwork",
    "MessageSet",
    "DegenerateBondError",
    "bp_iterate",
    "l1bp_value",
    "compress_bond",
    "doubled_sites",
]

DEFAULT_TOL = 5e-6
DEFAULT_MAX_ITER = 256


class DegenerateBondError(RuntimeError):
    """A bond's message pair contracts to zero, breaking the Bethe ratio."""


def star(label: str) -> str:
    return label + "*"


def is_starred(label: str) -> bool:
    return label.endswith("*")


def doubled_sites(
    sites: Mapping[Any, Sequence[Tensor]], outer: Sequence[str] = ()
) -> dict[Any, list[Tensor]]:
    """Sandwich a ket-layer network with its conjugate (star convention).

    Labels in ``outer`` keep their name on the conjugate copy, tracing them
    between the two layers; every other label gets a ``*`` suffix.
    """
    outer = set(outer)
    doubled = {}
    for site, tensors in sites.items():
        bras = [
            t.conj().relabel({l: star(l) for l in t.inds if l not in outer})
            for t in tensors
        ]
        doubled[site] = list(tensors) + bras
    return doubled


class SiteNetwork:
    """Tensors grouped by site, with the induced bond graph."""

    def __init__(self, sites: Mapping[Any, Sequence[Tensor]]):
        self.sites: dict[Any, list[Tensor]] = {
            s: list(ts) for s, ts in sites.items()
        }
        owners: dict[str, list[Any]] = {}
        dims: dict[str, int] = {}
        for site, tensors in self.sites.items():
            for t in tensors:
                for k, l in enumerate(t.inds):
                    owners.setdefault(l, []).append(site)
                    d = t.data.shape[k]
                    if dims.setdefault(l, d) != d:
                        raise ValueError(f"label {l!r} has mismatched dimensions")
        self.dims = dims
        self.dtype = np.result_type(
            float, *{t.data.dtype for ts in self.sites.values() for t in ts}
        )
        self.dangling: tuple[str, ...] = tuple(
            sorted(l for l, o in owners.items() if len(o) == 1)
        )
        edge_labels: dict[tuple[Any, Any], list[str]] = {}
        for l, o in owners.items():
            if len(o) > 2:
                raise ValueError(f"label {l!r} appears {len(o)} times")
            if len(o) == 2 and o[0] != o[1]:
                edge_labels.setdefault(tuple(sorted(o)), []).append(l)
        self.edges: dict[tuple[Any, Any], tuple[str, ...]] = {
            e: tuple(sorted(ls)) for e, ls in sorted(edge_labels.items())
        }
        self._adjacent: dict[Any, list[Any]] = {s: [] for s in self.sites}
        for i, j in self.edges:
            self._adjacent[i].append(j)
            self._adjacent[j].append(i)
        for s in self._adjacent:
            self._adjacent[s].sort()

    def neighbors(self, site: Any) -> list[Any]:
        return self._adjacent[site]

    def bond_labels(self, i: Any, j: Any) -> tuple[str, ...]:
        return self.edges[tuple(sorted((i, j)))]

    def bond_dim(self, i: Any, j: Any) -> int:
        return math.prod(self.dims[l] for l in self.bond_labels(i, j))


@dataclass
class MessageSet:
    """Directed messages keyed by (source, target), plus iteration stats.

    ``scales[(i, j)]``, where present, is the factor c with which the
    contraction of site i and its incoming messages other than j's equals
    c times ``messages[(i, j)]``: what normalization and the phase fix
    divided out.  ``bp_iterate`` records it only without damping, and only
    for a message whose incoming messages are still the arrays it was
    computed from, so that ``l1bp_value`` can take site i's factor as
    c <m_ij, m_ji> instead of contracting the site again.
    """

    messages: dict[tuple[Any, Any], Tensor]
    iterations: int = 0
    max_delta: float = math.inf
    converged: bool = False
    scales: dict[tuple[Any, Any], complex] = field(default_factory=dict)


def _uniform_message(sn: SiteNetwork, labels: tuple[str, ...]) -> Tensor:
    shape = tuple(sn.dims[l] for l in labels)
    data = np.ones(shape, dtype=sn.dtype)
    return Tensor(data / data.size, labels)


def _split_ket_bra(labels: Sequence[str]) -> tuple[list[str], list[str]]:
    kets = sorted(l for l in labels if not is_starred(l))
    bras = [star(l) for l in kets]
    if sorted(bras) != sorted(l for l in labels if is_starred(l)):
        raise ValueError(
            f"bond labels {tuple(labels)} do not split into ket/bra star pairs"
        )
    return kets, bras


def _symmetrizer(
    labels: tuple[str, ...], shape: tuple[int, ...]
) -> tuple[tuple[int, ...], int, tuple[int, ...], tuple[int, ...]]:
    """How to Hermitian-symmetrize a message array over ``labels``: the
    permutation to (kets..., bras...), the fused ket dimension, the permuted
    shape and the permutation back."""
    kets, bras = _split_ket_bra(labels)
    ordered = tuple(kets) + tuple(bras)
    to_pairs = tuple(labels.index(l) for l in ordered)
    d = math.prod(shape[k] for k in to_pairs[: len(kets)])
    back = tuple(ordered.index(l) for l in labels)
    return to_pairs, d, tuple(shape[k] for k in to_pairs), back


def _schedule(sn: SiteNetwork) -> list[tuple[Any, Any]]:
    """The directed messages of one sweep, in update order (module
    docstring): toward the root, deepest source first; between equal
    depths; away from the root, shallowest target first."""
    depth: dict[Any, int] = {}
    for root in sorted(sn.sites):
        if root in depth:
            continue
        depth[root] = 0
        frontier = [root]
        while frontier:
            reached = []
            for s in frontier:
                for t in sn.neighbors(s):
                    if t not in depth:
                        depth[t] = depth[s] + 1
                        reached.append(t)
            frontier = reached

    def rank(key: tuple[Any, Any]) -> tuple:
        i, j = key
        if depth[i] > depth[j]:
            return (0, -depth[i], i, j)
        if depth[i] == depth[j]:
            return (1, depth[i], i, j)
        return (2, depth[j], i, j)

    return sorted([(i, j) for i, j in sn.edges] + [(j, i) for i, j in sn.edges], key=rank)


def bp_iterate(
    sn: SiteNetwork,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = "one-norm",
    damping: float = 0.0,
    init: Mapping[tuple[Any, Any], Tensor] | None = None,
) -> MessageSet:
    """Run BP to a fixed point of the message equations, updating the
    messages in place in the sweep order of ``_schedule``.

    ``iterations`` counts sweeps: on a tree or forest without damping BP
    converges in two, and the second skips every update (module docstring).
    In two-norm mode every message is Hermitian-symmetrized over its
    (ket, bra) split after each update.  Non-convergence within max_iter, or
    a non-finite change, is flagged on the result, not raised.
    """
    if mode not in ("one-norm", "two-norm"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 0 <= tol < math.inf:
        # at infinity every call would stop "converged" after one sweep
        raise ValueError(f"tol must be >= 0 and finite, got {tol!r}")
    if not 0 <= damping < 1:
        # at 1 the messages never move, and BP "converges" at its start
        raise ValueError(f"damping must be in [0, 1), got {damping!r}")
    if sn.dangling:
        raise ValueError(f"network has dangling labels {sn.dangling[:8]}")
    directed = _schedule(sn)
    index = {key: n for n, key in enumerate(directed)}
    start: list[Tensor] = []
    for i, j in directed:
        labels = sn.bond_labels(i, j)
        if init is not None and (i, j) in init:
            start.append(init[(i, j)].transpose_to(labels))
        else:
            start.append(_uniform_message(sn, labels))
    # one update per directed message, in sweep order: its message's index,
    # contraction plan, site arrays, incoming message indices, the indices
    # whose versions decide a skip, and (two-norm) symmetrizer
    updates = []
    for j, k in directed:
        labels = sn.bond_labels(j, k)
        incoming = [index[(l, j)] for l in sn.neighbors(j) if l != k]
        plan = plan_contraction(sn.sites[j] + [start[m] for m in incoming], labels)
        sym = None
        if mode == "two-norm":
            sym = _symmetrizer(labels, tuple(sn.dims[l] for l in labels))
        out = index[(j, k)]
        watched = incoming + [out] if damping > 0.0 else incoming
        updates.append((out, plan, [t.data for t in sn.sites[j]], incoming, watched, sym))

    messages = [t.data for t in start]
    # a message's version goes up whenever an update writes different bits;
    # an update whose watched versions are those it last read would replay
    # the same plan on the same arrays, so it is skipped
    versions = [0] * len(messages)
    last_read: list[list[int] | None] = [None] * len(updates)
    # per update, the factor its last contraction was divided by (None when
    # that was zero or not finite)
    last_scale: list[complex | None] = [None] * len(updates)
    iterations, max_delta, converged = 0, math.inf, False
    for iterations in range(1, max_iter + 1):
        max_delta = 0.0
        for u, (out, plan, site, incoming, watched, sym) in enumerate(updates):
            read = [versions[m] for m in watched]
            if read == last_read[u]:
                continue
            last_read[u] = read
            new = plan.run(site + [messages[m] for m in incoming])
            if sym is not None:
                to_pairs, d, shape, back = sym
                m = new.transpose(to_pairs).reshape(d, d)
                m = (m + m.conj().T) / 2.0
                new = m.reshape(shape).transpose(back)
            nrm = float(np.abs(new).sum())
            scale = nrm if 0.0 < nrm < math.inf else None
            if nrm > 0.0:
                new = new / nrm
            if sym is None:
                # one-norm mode: fix the free global phase (lead entry real
                # positive) so a phase-rotating fixed point still registers
                # as converged; the Bethe ratio is invariant under
                # per-message rescaling.  The lead is the first entry within
                # 1e-8 of the largest magnitude, not one rounding picks among
                # exact ties; a zero or non-finite lead fixes nothing
                flat = new.reshape(-1)
                mag = np.abs(flat)
                lead = flat[np.argmax(mag >= (1.0 - 1e-8) * mag.max())]
                size = abs(lead)
                if 0.0 < size < math.inf:
                    turn = lead.conjugate() / size
                    new = new * turn
                    if scale is not None:
                        scale = scale / turn.item()
            last_scale[u] = scale
            old = messages[out]
            if damping > 0.0:
                new = (1.0 - damping) * new + damping * old
            change = float(np.abs(new - old).sum())
            messages[out] = new
            if not math.isfinite(change):
                # a NaN or infinite message: stop, unconverged, with the
                # change itself as the residual
                max_delta = change
                break
            max_delta = max(max_delta, change)
            if change != 0.0 or new.tobytes() != old.tobytes():
                versions[out] += 1
        if not math.isfinite(max_delta):
            break
        if max_delta <= tol:
            converged = True
            break
    # a message's scale holds only while its incoming messages are those it
    # was computed from; with damping the stored message mixes in the old one
    scales = {}
    if damping == 0.0:
        for u, (out, _, _, incoming, _, _) in enumerate(updates):
            if last_scale[u] is not None and last_read[u] == [versions[m] for m in incoming]:
                scales[directed[out]] = last_scale[u]
    return MessageSet(
        {key: Tensor(messages[n], sn.bond_labels(*key)) for key, n in index.items()},
        iterations=iterations,
        max_delta=max_delta,
        converged=converged,
        scales=scales,
    )


def l1bp_value(sn: SiteNetwork, ms: MessageSet) -> complex:
    """Bethe estimate of the network's scalar value from converged messages.

    The value is the product over sites of (site tensors contracted with all
    incoming messages) divided by the product over bonds of the two opposing
    messages contracted together, accumulated in the log domain.  Positive
    rescaling of any message cancels between one numerator and one
    denominator factor, so normalization does not matter.

    A site i with a recorded scale c on an outgoing message to j (the first
    such j in neighbour order, ``MessageSet.scales``) whose bond value
    <m_ij, m_ji> is nonzero takes c <m_ij, m_ji> as its factor, which is
    its full contraction up to rounding; every other site is contracted.
    """
    if sn.dangling:
        raise ValueError(f"network has dangling labels {sn.dangling[:8]}")
    bonds = {
        (i, j): contract([ms.messages[(i, j)], ms.messages[(j, i)]], output=()).item()
        for i, j in sn.edges
    }
    log_mag = 0.0
    phase = 1.0 + 0.0j
    for site in sorted(sn.sites):
        z = None
        for l in sn.neighbors(site):
            scale, bond = ms.scales.get((site, l)), bonds[tuple(sorted((site, l)))]
            if scale is not None and bond != 0.0:
                z = scale * bond
                break
        if z is None:
            inputs = list(sn.sites[site])
            inputs += [ms.messages[(l, site)] for l in sn.neighbors(site)]
            z = contract(inputs, output=()).item()
        if z == 0.0:
            return 0.0j
        log_mag += math.log(abs(z))
        phase *= z / abs(z)
    for (i, j), z in bonds.items():
        if z == 0.0:
            raise DegenerateBondError(
                f"messages on bond {sn.edges[(i, j)]} between sites {i} and {j} "
                "contract to zero"
            )
        log_mag -= math.log(abs(z))
        phase /= z / abs(z)
    return phase * math.exp(log_mag)


ZERO_CUT = 1e-12


def _psd_root(m: np.ndarray) -> np.ndarray:
    """Factor a Hermitian PSD matrix as R†R with R = sqrt(lam) W†."""
    lam, w, _ = eigh_psd((m + m.conj().T) / 2.0)
    lam = np.where(lam >= ZERO_CUT * max(lam[0], 0.0), lam, 0.0) if len(lam) else lam
    return np.sqrt(lam)[:, None] * w.conj().T


def compress_bond(
    m_ij: Tensor,
    m_ji: Tensor,
    chi: int | None,
    kappa: float,
    new_label: str = "_c",
) -> tuple[Tensor, Tensor, float]:
    """Oblique projector pair for one bond from its two 2-norm messages.

    Both messages are Hermitian PSD over the bond's fused (ket, bra) split.
    Matrixized with bra labels as rows, a message is the bond Gram matrix
    G = A†A of its side's subnetwork A (rows of the doubled network trace
    conj(A) against A), which is what the factorization below needs.
    With ``m_ij = W_A lam_A W_A†`` set ``R_A = sqrt(lam_A) W_A†`` and with
    ``m_ji = W_B lam_B W_B†`` set ``R_B = (sqrt(lam_B) W_B†)^T``; truncate
    the SVD ``R_A R_B ~= U s V†`` to rank ``min(chi, kappa rule)`` and return

        P_A = R_B V s^(-1/2)   (ket labels..., new_label)
        P_B = s^(-1/2) U† R_A  (new_label, ket labels...)

    P_A contracts into the message-source site's ket bond axes and P_B into
    the target site's; at full rank P_A·P_B is the identity.  Singular
    values below 1e-12 of the largest are treated as zero (pseudo-inverse).
    Returns the projectors and the discarded fraction of the squared
    spectrum.  A dead bond (zero-rank messages) yields dimension-0
    projectors and a warning.
    """
    kets, bras = _split_ket_bra(m_ij.inds)
    if sorted(m_ji.inds) != sorted(m_ij.inds):
        raise ValueError("opposing messages cover different labels")
    ket_dims = tuple(m_ij.dim(l) for l in kets)
    r_a = _psd_root(m_ij.to_matrix(bras, kets))
    r_b = _psd_root(m_ji.to_matrix(bras, kets)).T
    c = r_a @ r_b
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    alive = int(np.sum(s >= ZERO_CUT * s[0])) if len(s) and s[0] > 0.0 else 0
    if alive == 0:
        warnings.warn("bond is dead (zero-rank messages); compressing to rank 0")
        r = 0
    else:
        r = min(svd_rank(s, chi, kappa), alive)
    total2 = float(np.sum(s * s))
    dw = float(np.sum(s[r:] ** 2) / total2) if total2 > 0.0 else 0.0
    inv_root = s[:r] ** -0.5 if r else s[:0]
    p_a = r_b @ (vh[:r].conj().T * inv_root[None, :])
    p_b = (inv_root[:, None] * u[:, :r].conj().T) @ r_a
    p_a_t = Tensor(p_a.reshape(ket_dims + (r,)), tuple(kets) + (new_label,))
    p_b_t = Tensor(p_b.reshape((r,) + ket_dims), (new_label,) + tuple(kets))
    return p_a_t, p_b_t, dw
