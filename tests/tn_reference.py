"""Slow references for planned contraction and belief propagation.

These are the earlier forms of ``greedy_path``, ``contract`` and
``bp_iterate``: the path re-planned and every step wrapped in a ``Tensor``
on each call, and each BP update rebuilding its message's input list and
contracting it afresh.  ``bp_iterate`` builds its sweep order level by
level, independently of the sorted ranking in ``spdtn.bp``.  The planned
versions in ``spdtn`` must give the same bits.  ``bp_iterate_jacobi`` keeps the
synchronous rounds that the sweeps replaced, as the fixed point the sweeps
must reach.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from spdtn.bp import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    MessageSet,
    SiteNetwork,
    _split_ket_bra,
    _uniform_message,
)
from spdtn.tensor import CapacityError, Tensor


def _letters(labels: Iterable[str]) -> dict[str, str]:
    import string

    pool = string.ascii_letters
    table = {}
    for l in labels:
        if l not in table:
            if len(table) >= len(pool):
                raise CapacityError("too many distinct labels for one reduction")
            table[l] = pool[len(table)]
    return table


def _reduce_tensor(t: Tensor, needed: set[str]) -> Tensor:
    """Trace repeated labels and sum out labels nobody else needs."""
    repeated = {l for l in t.inds if t.inds.count(l) > 1}
    drop = {l for l in set(t.inds) if l not in needed}
    if not repeated and not drop:
        return t
    table = _letters(t.inds)
    out_labels = []
    for l in t.inds:
        if l in out_labels or l in drop:
            continue
        out_labels.append(l)
    expr = "".join(table[l] for l in t.inds) + "->" + "".join(table[l] for l in out_labels)
    return Tensor(np.einsum(expr, t.data), tuple(out_labels))


def _pair_sum_labels(a: Tensor, b: Tensor, needed_outside: set[str]) -> list[str]:
    shared = [l for l in a.inds if l in b.inds]
    keep = [l for l in shared if l in needed_outside]
    if keep:
        raise ValueError(
            f"labels {keep} are shared by the contracting pair but still needed"
        )
    return shared


def _pair_contract(a: Tensor, b: Tensor, needed_outside: set[str]) -> Tensor:
    summed = _pair_sum_labels(a, b, needed_outside)
    ax_a = [a.inds.index(l) for l in summed]
    ax_b = [b.inds.index(l) for l in summed]
    data = np.tensordot(a.data, b.data, axes=(ax_a, ax_b))
    inds = tuple(l for l in a.inds if l not in summed) + tuple(
        l for l in b.inds if l not in summed
    )
    return Tensor(data, inds)


def greedy_path(
    tensors: Sequence[Tensor],
    output: Sequence[str] = (),
    budget: int | None = None,
) -> list[tuple[int, int]]:
    """Greedy pairwise contraction order (einsum-path position convention).

    Minimizes the size of each intermediate, breaking ties by multiply-add
    count; with a budget, raises CapacityError naming the first offending
    intermediate.
    """
    live: list[dict[str, int]] = [
        {l: t.data.shape[k] for k, l in enumerate(t.inds)} for t in tensors
    ]
    output = set(output)
    path: list[tuple[int, int]] = []
    while len(live) > 1:
        best = None
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                shared = set(live[i]) & set(live[j])
                if not shared:
                    continue
                outside = output.union(
                    *(set(live[k]) for k in range(len(live)) if k not in (i, j))
                )
                kept = {
                    l: d
                    for part in (live[i], live[j])
                    for l, d in part.items()
                    if l in outside or l not in shared
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


def contract(
    tensors: Sequence[Tensor],
    output: Sequence[str] = (),
    path: Sequence[tuple[int, int]] | None = None,
) -> Tensor:
    """Contract a tensor list down to the given output labels."""
    output = tuple(output)
    if not tensors:
        if output:
            raise ValueError(f"no tensors supply output labels {output}")
        return Tensor(np.asarray(1.0 + 0.0j), ())
    counts: dict[str, int] = {}
    for t in tensors:
        for l in t.inds:
            counts[l] = counts.get(l, 0) + 1
    for l in output:
        if l not in counts:
            raise ValueError(f"output label {l!r} absent from the network")
        if output.count(l) > 1:
            raise ValueError(f"output label {l!r} repeated")
    for l, c in counts.items():
        if c > 2:
            raise ValueError(f"label {l!r} appears {c} times (hyperedges unsupported)")

    live = []
    for t in tensors:
        needed = set(output) | {l for l in t.inds if counts[l] > t.inds.count(l)}
        live.append(_reduce_tensor(t, needed))
    if path is None:
        path = greedy_path(live, output)
    for i, j in path:
        needed_outside = set(output).union(
            *(set(live[k].inds) for k in range(len(live)) if k not in (i, j))
        )
        merged = _pair_contract(live[i], live[j], needed_outside)
        del live[j], live[i]
        live.append(merged)
    result = live[0]
    for extra in live[1:]:
        result = _pair_contract(result, extra, set(output))
    # sum out anything not requested (einsum semantics for dangling labels)
    result = _reduce_tensor(result, set(output))
    return result.transpose_to(output)


def _symmetrize(t: Tensor) -> Tensor:
    kets, bras = _split_ket_bra(t.inds)
    ordered = t.transpose_to(tuple(kets) + tuple(bras))
    shape = ordered.data.shape
    d = math.prod(shape[: len(kets)]) if kets else 1
    m = ordered.data.reshape(d, d)
    m = (m + m.conj().T) / 2.0
    return Tensor(m.reshape(shape), ordered.inds)


def _one_norm(t: Tensor) -> float:
    return float(np.sum(np.abs(t.data)))


def _start(
    sn: SiteNetwork, init: Mapping[tuple[Any, Any], Tensor] | None
) -> dict[tuple[Any, Any], Tensor]:
    messages: dict[tuple[Any, Any], Tensor] = {}
    for i, j in sorted(list(sn.edges) + [(j, i) for i, j in sn.edges]):
        labels = sn.bond_labels(i, j)
        if init is not None and (i, j) in init:
            messages[(i, j)] = init[(i, j)].transpose_to(labels)
        else:
            messages[(i, j)] = _uniform_message(sn, labels)
    return messages


def _update(
    sn: SiteNetwork,
    messages: Mapping[tuple[Any, Any], Tensor],
    j: Any,
    k: Any,
    mode: str,
    damping: float,
) -> tuple[Tensor, float]:
    """The new message j -> k from ``messages``, and its 1-norm change."""
    labels = sn.bond_labels(j, k)
    inputs = list(sn.sites[j])
    inputs += [messages[(l, j)] for l in sn.neighbors(j) if l != k]
    new = contract(inputs, output=labels)
    if mode == "two-norm":
        new = _symmetrize(new).transpose_to(labels)
    nrm = _one_norm(new)
    if nrm > 0.0:
        new = Tensor(new.data / nrm, labels)
    if mode == "one-norm":
        # fix the free global phase (lead entry real positive) so a
        # phase-rotating fixed point still registers as converged; the
        # Bethe ratio is invariant under per-message rescaling.  The lead
        # is the first entry within 1e-8 (relative) of the largest
        # magnitude, so rounding cannot flip it between tied entries
        flat = new.data.reshape(-1)
        mag = np.abs(flat)
        lead = flat[np.argmax(mag >= (1.0 - 1e-8) * mag.max())]
        if lead != 0.0:
            new = Tensor(new.data * (lead.conjugate() / abs(lead)), labels)
    old = messages[(j, k)]
    if damping > 0.0:
        new = Tensor((1.0 - damping) * new.data + damping * old.data, labels)
    return new, _one_norm(Tensor(new.data - old.data, labels))


def _check(sn: SiteNetwork, mode: str) -> None:
    if mode not in ("one-norm", "two-norm"):
        raise ValueError(f"unknown mode {mode!r}")
    if sn.dangling:
        raise ValueError(f"network has dangling labels {sn.dangling[:8]}")


def sweep_order(sn: SiteNetwork) -> list[tuple[Any, Any]]:
    """Directed messages in sweep order, level by level.

    A breadth-first search from the smallest unvisited site levels each
    connected component.  Then, for each level from the deepest up, the
    messages from its sites (in order) to neighbours one level up; for each
    level from the root down, the messages between its sites; and for each
    level from the root down, the messages from its sites to neighbours one
    level down.
    """
    level: dict[Any, int] = {}
    for root in sorted(sn.sites):
        if root in level:
            continue
        level[root] = 0
        queue = deque([root])
        while queue:
            s = queue.popleft()
            for t in sn.neighbors(s):
                if t not in level:
                    level[t] = level[s] + 1
                    queue.append(t)
    by_level: dict[int, list[Any]] = {}
    for s in sorted(sn.sites):
        by_level.setdefault(level[s], []).append(s)
    depth = max(by_level, default=-1)

    def out_of(d: int, to: int) -> list[tuple[Any, Any]]:
        return [(i, j) for i in by_level[d] for j in sn.neighbors(i) if level[j] == to]

    order = []
    for d in range(depth, 0, -1):
        order += out_of(d, d - 1)
    for d in range(depth + 1):
        order += out_of(d, d)
    for d in range(depth):
        order += out_of(d, d + 1)
    return order


def bp_iterate(
    sn: SiteNetwork,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = "one-norm",
    damping: float = 0.0,
    init: Mapping[tuple[Any, Any], Tensor] | None = None,
) -> MessageSet:
    """Run BP in sweeps of in-place updates, in ``sweep_order``.

    In two-norm mode every message is Hermitian-symmetrized over its
    (ket, bra) split after each update.  Non-convergence within max_iter is
    flagged on the result, not raised.
    """
    _check(sn, mode)
    messages = _start(sn, init)
    order = sweep_order(sn)
    it, max_delta, converged = 0, math.inf, False
    for it in range(1, max_iter + 1):
        max_delta = 0.0
        for j, k in order:
            messages[(j, k)], delta = _update(sn, messages, j, k, mode, damping)
            max_delta = max(max_delta, delta)
        if max_delta <= tol:
            converged = True
            break
    return MessageSet(messages, it, max_delta, converged)


def bp_iterate_jacobi(
    sn: SiteNetwork,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = "one-norm",
    damping: float = 0.0,
    init: Mapping[tuple[Any, Any], Tensor] | None = None,
) -> MessageSet:
    """Run synchronous BP: each round computes every message from the
    previous round only."""
    _check(sn, mode)
    messages = _start(sn, init)
    it, max_delta, converged = 0, math.inf, False
    for it in range(1, max_iter + 1):
        fresh: dict[tuple[Any, Any], Tensor] = {}
        max_delta = 0.0
        for j, k in messages:
            fresh[(j, k)], delta = _update(sn, messages, j, k, mode, damping)
            max_delta = max(max_delta, delta)
        messages = fresh
        if max_delta <= tol:
            converged = True
            break
    return MessageSet(messages, it, max_delta, converged)
