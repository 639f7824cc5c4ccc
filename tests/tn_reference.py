"""Slow references for planned contraction and belief propagation.

These are the earlier forms of ``greedy_path``, ``contract`` and
``bp_iterate``: the path re-planned and every step wrapped in a ``Tensor``
on each call, and each BP update rebuilding its message's input list and
contracting it afresh.  ``bp_iterate`` builds its sweep order level by
level, independently of the sorted ranking in ``spdtn.bp``.  The planned
versions in ``spdtn`` must give the same bits.  ``bp_iterate_recompute``
replays a plan per update, like ``spdtn.bp``, but recomputes every update
of every sweep, where ``spdtn.bp`` skips those whose inputs are unchanged.
``bp_iterate_jacobi`` keeps the synchronous rounds that the sweeps
replaced, as the fixed point the sweeps must reach.

``run_tn_full_sites`` is the tensor-network driver as it was before the
states held only their touched sites: every state, doubled network and
sandwich spans all n sites.  ``spdtn.tn.run_tn`` must give its bits.
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
    l1bp_value,
)
from spdtn.circuits import Circuit, lightcone_prune
from spdtn.paulis import PauliSum
from spdtn.tensor import CapacityError, Tensor, plan_contraction
from spdtn.tn import (
    BpOptions,
    apply_layer,
    evolve,
    peps_zero,
    pepo_from_word,
    sandwich_network,
    state_norm,
)


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
    return _finish(contract(inputs, output=labels), messages[(j, k)], mode, damping)


def _finish(new: Tensor, old: Tensor, mode: str, damping: float) -> tuple[Tensor, float]:
    """A contracted message symmetrized (two-norm), normalized, phase-fixed
    (one-norm) and damped against ``old``, and its 1-norm change."""
    labels = new.inds
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
        # magnitude, so rounding cannot flip it between tied entries; a zero
        # or non-finite lead fixes nothing
        flat = new.data.reshape(-1)
        mag = np.abs(flat)
        lead = flat[np.argmax(mag >= (1.0 - 1e-8) * mag.max())]
        if 0.0 < abs(lead) < math.inf:
            new = Tensor(new.data * (lead.conjugate() / abs(lead)), labels)
    if damping > 0.0:
        new = Tensor((1.0 - damping) * new.data + damping * old.data, labels)
    return new, _one_norm(Tensor(new.data - old.data, labels))


def _sweeps(
    order: Sequence[tuple[Any, Any]],
    messages: dict[tuple[Any, Any], Tensor],
    update,
    tol: float,
    max_iter: int,
) -> tuple[int, float, bool]:
    """Sweep ``update(key) -> (message, change)`` over ``order`` in place
    until a sweep's largest change is at most ``tol``; a non-finite change
    stops at once, unconverged, with that change as the residual.  Returns
    (sweeps, residual, converged)."""
    it, max_delta = 0, math.inf
    for it in range(1, max_iter + 1):
        max_delta = 0.0
        for key in order:
            messages[key], delta = update(key)
            if not math.isfinite(delta):
                return it, delta, False
            max_delta = max(max_delta, delta)
        if max_delta <= tol:
            return it, max_delta, True
    return it, max_delta, False


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
    stats = _sweeps(
        sweep_order(sn),
        messages,
        lambda key: _update(sn, messages, *key, mode, damping),
        tol,
        max_iter,
    )
    return MessageSet(messages, *stats)


def bp_iterate_recompute(
    sn: SiteNetwork,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    mode: str = "one-norm",
    damping: float = 0.0,
    init: Mapping[tuple[Any, Any], Tensor] | None = None,
) -> MessageSet:
    """``bp_iterate`` with each update's contraction planned once, before
    the first sweep, and replayed on every update of every sweep."""
    _check(sn, mode)
    messages = _start(sn, init)
    plans = {}
    for j, k in messages:
        inputs = sn.sites[j] + [messages[(l, j)] for l in sn.neighbors(j) if l != k]
        plans[(j, k)] = plan_contraction(inputs, sn.bond_labels(j, k))

    def update(key):
        j, k = key
        arrays = [t.data for t in sn.sites[j]]
        arrays += [messages[(l, j)].data for l in sn.neighbors(j) if l != k]
        new = Tensor(plans[key].run(arrays), sn.bond_labels(j, k))
        return _finish(new, messages[key], mode, damping)

    return MessageSet(messages, *_sweeps(sweep_order(sn), messages, update, tol, max_iter))


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


def run_tn_full_sites(
    circuit: Circuit, observable, method: str, chi: int, lightcone: bool = True, **bp
) -> dict[str, Any]:
    """``run_tn``'s value, norm proxies, largest sandwich bond, sandwich
    sweeps and flags, with the state and operator built on all n sites by
    ``peps_zero`` and ``pepo_from_word``."""
    ((word, scale),) = PauliSum.of(observable, circuit.n).terms()
    if lightcone:
        circuit = lightcone_prune(circuit, word.support())
    opts = BpOptions(**bp)
    steps = circuit.steps()
    total = len(steps)
    lazy = {"peps": min(total, 2), "pepo": min(total, int(math.log2(chi) / 2)), "mix": 0}
    lazy = lazy[method]
    tau = {"peps": total - lazy, "pepo": 0, "mix": (total + 1) // 2}[method]
    psi = peps_zero(circuit.n)
    for group in steps[:tau]:
        evolve(psi, group, chi, bp_options=opts)
    op = pepo_from_word(word)
    for group in reversed(steps[tau + lazy :]):
        evolve(op, list(reversed(group)), chi, bp_options=opts)
    n_psi, ms_psi = state_norm(psi, opts)
    n_o, ms_o = state_norm(op, opts)
    for state, norm in ((psi, ms_psi), (op, ms_o)):
        if not norm.converged:
            state.flags.append(f"norm_bp_nonconverged:delta={norm.max_delta:.3e}")
    for group in steps[tau : tau + lazy]:
        for layer in group:
            apply_layer(psi, layer)
    sn = sandwich_network(psi, op)
    ms = opts.iterate(sn, mode="one-norm")
    value = scale * l1bp_value(sn, ms)
    flags = psi.flags + op.flags
    if abs(value.imag) > 1e-8 * max(1.0, abs(value)):
        flags.append(f"imag_residue:{value.imag:.3e}")
    if not ms.converged:
        flags.append(f"l1bp_nonconverged:delta={ms.max_delta:.3e}")
    return dict(
        expectation=float(value.real),
        n_psi=n_psi,
        n_o=n_o,
        max_bond=max((sn.bond_dim(i, j) for i, j in sn.edges), default=1),
        bp_iterations=ms.iterations,
        flags=tuple(flags),
    )
