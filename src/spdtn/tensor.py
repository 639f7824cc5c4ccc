"""Dense labeled tensors, planned contraction, and truncated factorizations.

A ``Tensor`` is an ndarray plus one string label per axis.  ``contract``
takes a pairwise tensor network: every label sits either on exactly two
tensors, once on each, and is summed, or on one tensor, once, and appears
in the output.  Anything else (a label repeated on one tensor, a dangling
label left out of the output, a label shared by two tensors and also in
the output, one label on three or more tensors) is rejected, naming the
label.

Contraction is plan, then run.  ``plan_contraction`` reads only labels and
shapes: it checks the network, orders the pairwise contractions and turns
every step into ``np.tensordot`` axes.  ``ContractionPlan.run`` replays
that on plain ndarrays of the planned shapes, so a caller contracting the
same structure many times (a BP message update) plans once.  ``contract``
is plan, run and wrap the result in a ``Tensor``.

Plans are cached per process, keyed by the network's structure: each
input's labels renumbered in order of first appearance, each input's shape,
the output's labels in the same numbering, and the explicit path if one is
given.  Two networks that differ only in label names share a key, and a hit
returns the cached plan itself: a plan holds no labels, and ``contract``
labels its result with the caller's own output.  A hit is bit-identical to
planning afresh: a plan reads labels only through their positions (greedy
tie-breaks follow tensor order, ``tensordot`` axes are positions), so it is
a function of the key.  Only a network that passed every check is cached,
and every check is a function of the key too, so an invalid network never
hits: it raises, naming its own labels, on every call.  The cache holds
the ``PLAN_CACHE_SIZE`` most recently used plans and is shared by threads;
two threads that miss on one structure both plan it, to the same plan.

The order comes from a greedy pairwise path: repeatedly contract the pair
sharing at least one label whose result is smallest (ties broken by fewer
multiply-adds), or the outer product of the two smallest pieces when none
are connected.  A path is a list of position pairs i < j into the current
tensor list; each step removes both operands and appends the result at
the end, like the einsum-path convention.  An explicit path must be
complete: it leaves one tensor.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "CapacityError",
    "ContractionPlan",
    "contract",
    "plan_contraction",
    "clear_plan_cache",
    "greedy_path",
    "truncated_svd",
    "svd_rank",
]


class CapacityError(RuntimeError):
    """A contraction or simulation step exceeded its configured budget."""


@dataclass(frozen=True)
class Tensor:
    data: np.ndarray
    inds: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data)
        inds = tuple(self.inds)
        if data.ndim != len(inds):
            raise ValueError(f"{data.ndim} axes but {len(inds)} labels {inds}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "inds", inds)

    def dim(self, label: str) -> int:
        return self.data.shape[self.inds.index(label)]

    def relabel(self, mapping: Mapping[str, str]) -> "Tensor":
        return Tensor(self.data, tuple(mapping.get(l, l) for l in self.inds))

    def conj(self) -> "Tensor":
        return Tensor(self.data.conj(), self.inds)

    def transpose_to(self, inds: Sequence[str]) -> "Tensor":
        inds = tuple(inds)
        if sorted(inds) != sorted(self.inds):
            raise ValueError(f"cannot transpose {self.inds} to {inds}")
        perm = [self.inds.index(l) for l in inds]
        return Tensor(self.data.transpose(perm), inds)

    def to_matrix(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        """Fuse the row labels and column labels into one matrix."""
        t = self.transpose_to(tuple(rows) + tuple(cols))
        rdim = math.prod(t.data.shape[: len(rows)]) if rows else 1
        return t.data.reshape(rdim, -1)

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> complex:
        if self.data.ndim != 0:
            raise ValueError(f"tensor with labels {self.inds} is not a scalar")
        return complex(self.data)


def greedy_path(
    tensors: Sequence[Tensor],
    *,
    budget: int | None = None,
) -> list[tuple[int, int]]:
    """Greedy pairwise contraction order (einsum-path position convention)
    for a pairwise network: each step sums every label its pair shares.

    Minimizes the size of each intermediate, breaking ties by multiply-add
    count; with a budget, raises CapacityError naming the first offending
    intermediate.
    """
    live: list[dict[str, int]] = [
        {l: t.data.shape[k] for k, l in enumerate(t.inds)} for t in tensors
    ]
    path: list[tuple[int, int]] = []
    while len(live) > 1:
        best = None
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                shared = live[i].keys() & live[j].keys()
                if not shared:
                    continue
                kept = {
                    l: d
                    for part in (live[i], live[j])
                    for l, d in part.items()
                    if l not in shared
                }
                size = math.prod(kept.values()) if kept else 1
                union = dict(live[i])
                union.update(live[j])
                flops = math.prod(union.values()) if union else 1
                cand = (size, flops, i, j, kept)
                if best is None or cand[:2] < best[:2]:
                    best = cand
        if best is None:
            # only disconnected pieces remain: outer-product the smallest two
            sizes = sorted(
                range(len(live)), key=lambda k: math.prod(live[k].values()) if live[k] else 1
            )
            i, j = sorted(sizes[:2])
            kept = dict(live[i])
            kept.update(live[j])
            size = math.prod(kept.values()) if kept else 1
            best = (size, size, i, j, kept)
        size, _, i, j, kept = best
        if budget is not None and size > budget:
            raise CapacityError(
                f"intermediate over labels {sorted(kept)} has {size} elements, "
                f"budget is {budget}"
            )
        path.append((i, j))
        del live[j], live[i]
        live.append(kept)
    return path


def _pair_step(a: dict[str, int], b: dict[str, int]) -> tuple[tuple, dict[str, int]]:
    """One pairwise contraction summing every label the pair shares, as the
    transposes, matrix shapes and result shape ``np.tensordot`` would use,
    plus the result's labels and dimensions."""
    summed = [l for l in a if l in b]
    bad = [l for l in summed if a[l] != b[l]]
    if bad:
        raise ValueError(f"labels {bad} have different dimensions on the pair")
    a_inds, b_inds = list(a), list(b)
    ax_a = [a_inds.index(l) for l in summed]
    ax_b = [b_inds.index(l) for l in summed]
    rest_a = [k for k in range(len(a_inds)) if k not in ax_a]
    rest_b = [k for k in range(len(b_inds)) if k not in ax_b]
    a_dims, b_dims = list(a.values()), list(b.values())
    n_sum = math.prod(a_dims[k] for k in ax_a)
    merged = {a_inds[k]: a_dims[k] for k in rest_a}
    merged.update((b_inds[k], b_dims[k]) for k in rest_b)
    step = (
        tuple(rest_a + ax_a),
        (math.prod(a_dims[k] for k in rest_a), n_sum),
        tuple(ax_b + rest_b),
        (n_sum, math.prod(b_dims[k] for k in rest_b)),
        tuple(merged.values()),
    )
    return step, merged


@dataclass(frozen=True)
class ContractionPlan:
    """One contraction compiled for a network structure; it holds no labels.

    ``steps`` is the complete path: each ``(i, j, perm_a, mat_a, perm_b,
    mat_b, shape)`` removes positions i and j, transposes and reshapes each
    operand to a matrix, multiplies and reshapes the product, which is
    ``np.tensordot`` with its axis bookkeeping done at plan time, and
    appends the result.  ``perm`` transposes the last tensor to the order
    of the output labels it was planned for.
    """

    steps: tuple[tuple, ...]
    perm: tuple[int, ...]

    def run(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Contract arrays in the planned shapes, in the planned order."""
        if not arrays:
            return np.asarray(1.0 + 0.0j)
        live = list(arrays)
        dot = np.dot
        for i, j, pa, ma, pb, mb, shape in self.steps:
            a, b = live[i], live[j]
            del live[j], live[i]
            ab = dot(a.transpose(pa).reshape(ma), b.transpose(pb).reshape(mb))
            live.append(ab.reshape(shape))
        return live[0].transpose(self.perm)


PLAN_CACHE_SIZE = 2048
_plans: OrderedDict[tuple, ContractionPlan] = OrderedDict()
_plans_lock = threading.Lock()


def clear_plan_cache() -> None:
    """Forget every cached contraction plan."""
    with _plans_lock:
        _plans.clear()


def _structure_key(
    tensors: Sequence[Tensor], output: tuple[str, ...], path: tuple | None
) -> tuple:
    """The labels renumbered by first appearance, the shapes, the output in
    that numbering (-1 for an absent label) and the path."""
    ids: dict[str, int] = {}
    labels = tuple(tuple([ids.setdefault(l, len(ids)) for l in t.inds]) for t in tensors)
    return (
        labels,
        tuple(t.data.shape for t in tensors),
        tuple(ids.get(l, -1) for l in output),
        path,
    )


def plan_contraction(
    tensors: Sequence[Tensor],
    output: Sequence[str] = (),
    path: Sequence[tuple[int, int]] | None = None,
) -> ContractionPlan:
    """Compile the contraction of tensors with these labels and shapes, or
    look it up by structure (see the module docstring).

    Every check happens when a structure is first planned, before any
    arithmetic: absent or repeated output labels, a label that is not
    pairwise (see the module docstring), mismatched pair dimensions and an
    explicit path that is malformed or incomplete.  Only the labels and
    shapes of ``tensors`` are read.
    """
    output = tuple(output)
    if path is not None:
        path = tuple(tuple(step) for step in path)
    key = _structure_key(tensors, output, path)
    with _plans_lock:
        plan = _plans.get(key)
        if plan is not None:
            _plans.move_to_end(key)
    if plan is None:
        plan = _plan(tensors, output, path)
        with _plans_lock:
            _plans[key] = plan
            if len(_plans) > PLAN_CACHE_SIZE:
                _plans.popitem(last=False)
    return plan


def _plan(
    tensors: Sequence[Tensor],
    output: tuple[str, ...],
    path: Sequence[tuple[int, int]] | None,
) -> ContractionPlan:
    if not tensors:
        if output:
            raise ValueError(f"no tensors supply output labels {output}")
        return ContractionPlan((), ())
    counts: dict[str, int] = {}
    for t in tensors:
        for l in t.inds:
            counts[l] = counts.get(l, 0) + 1
            if t.inds.count(l) > 1:
                raise ValueError(f"label {l!r} repeated on one tensor (traces unsupported)")
    for l in output:
        if l not in counts:
            raise ValueError(f"output label {l!r} absent from the network")
        if output.count(l) > 1:
            raise ValueError(f"output label {l!r} repeated")
    keep = set(output)
    for l, c in counts.items():
        if c > 2:
            raise ValueError(f"label {l!r} appears {c} times (hyperedges unsupported)")
        if c == 2 and l in keep:
            raise ValueError(f"label {l!r} is shared by two tensors and also in the output")
        if c == 1 and l not in keep:
            raise ValueError(f"dangling label {l!r} is not in the output")

    live = [dict(zip(t.inds, t.data.shape)) for t in tensors]
    if path is None:
        path = greedy_path(tensors)
    steps = []
    for i, j in path:
        if not 0 <= i < j < len(live):
            raise ValueError(f"path step {(i, j)} is not a pair i < j of {len(live)} tensors")
        pair, merged = _pair_step(live[i], live[j])
        steps.append((i, j) + pair)
        del live[j], live[i]
        live.append(merged)
    if len(live) > 1:
        raise ValueError(f"path stops with {len(live)} tensors left; it must be complete")
    inds = tuple(live[0])
    return ContractionPlan(tuple(steps), tuple(inds.index(l) for l in output))


def contract(
    tensors: Sequence[Tensor],
    output: Sequence[str] = (),
    path: Sequence[tuple[int, int]] | None = None,
) -> Tensor:
    """Contract a pairwise tensor network down to its dangling labels, in
    the order ``output`` lists them; shared labels are summed."""
    output = tuple(output)
    plan = plan_contraction(tensors, output, path)
    return Tensor(plan.run([t.data for t in tensors]), output)


def svd_rank(s: np.ndarray, chi: int | None, kappa: float) -> int:
    """Smallest kept rank whose discarded spectral tail obeys the kappa rule:
    sum of discarded squares <= kappa^2 * total squares (relative Frobenius
    error <= kappa); then the chi cap, and at least rank 1."""
    total2 = float(np.sum(s * s))
    r = len(s)
    if total2 > 0.0:
        tail2 = np.concatenate([np.cumsum((s * s)[::-1])[::-1], [0.0]])
        allowed = kappa * kappa * total2
        while r > 1 and tail2[r - 1] <= allowed:
            r -= 1
    else:
        r = 1
    if chi is not None:
        r = min(r, max(1, chi))
    return max(1, r)


def truncated_svd(
    t: Tensor,
    left: Sequence[str],
    chi: int | None = None,
    kappa: float = 0.0,
    new_label: str = "_svd",
) -> tuple[Tensor, np.ndarray, Tensor, float]:
    """SVD split keeping rank ``min(chi, kappa rule)``.

    Returns (U, s, Vh, discarded_weight) with U over ``left + (new_label,)``,
    Vh over ``(new_label,) + right`` and discarded_weight the discarded
    fraction of the squared spectrum.
    """
    left = tuple(left)
    right = tuple(l for l in t.inds if l not in left)
    if sorted(left + right) != sorted(t.inds) or len(left) + len(right) != len(t.inds):
        raise ValueError(f"bad left labels {left} for tensor over {t.inds}")
    mat = t.to_matrix(left, right)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    r = svd_rank(s, chi, kappa)
    total2 = float(np.sum(s * s))
    dw = float(np.sum(s[r:] ** 2) / total2) if total2 > 0 else 0.0
    ldims = tuple(t.dim(l) for l in left)
    rdims = tuple(t.dim(l) for l in right)
    u_t = Tensor(u[:, :r].reshape(ldims + (r,)), left + (new_label,))
    vh_t = Tensor(vh[:r].reshape((r,) + rdims), (new_label,) + right)
    return u_t, s[:r].copy(), vh_t, dw
