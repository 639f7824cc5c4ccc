"""Sparse Pauli dynamics: Heisenberg propagation of observable sums.

A ``PauliSum`` (see ``paulis``) holds N packed words (rows, sorted by
packed key and unique) with real coefficients.  A rotation
``exp(-i theta sigma / 2)`` maps each stored word P that anticommutes with
the axis sigma to

    a'_P      = cos(theta) a_P          (own coefficient damped)
    a'_{s^P} += i sin(theta) i^k a_P    with op(sigma) op(P) = i^k op(s^P)

where k is 1 or 3 for anticommuting words, so ``i * i^k = k - 2`` is real.
Words are stored big-endian (``">u8"``), so each row's sort key is a view of
its bytes and no pass re-serializes the sum.  Each gate runs as:

(1) one parity fold over the axis's nonzero words gives the indices of the
    anticommuting terms; with none, the sum is returned as it is.  The
    axis's fold and phase constants are derived on the word's first use
    and kept on the word (see ``paulis``), so the rotations that share an
    axis word share them;
(2) their rows are gathered whole and multiplied by sigma in place;
(3) every product is binary-searched among the stored keys; a product found
    adds to its resident coefficient, and the missing ones that reach the
    threshold are the new terms, ranked by key.  The rest of the product
    batch is released here;
(4) the new terms go straight to their merged positions, each after the
    resident terms kept below its search position and the new terms with
    smaller keys; the kept resident terms fill the other slots in order, a
    fixed-size chunk at a time.  Rows are merged first, then coefficients.

Working memory: apart from its input and output, a rotation holds the
product batch (the gathered rows, overwritten by the products) during
(2)-(3).  During (4) it holds the new terms (row,
coefficient and two slot indices each) and a working copy of the resident
coefficients, which stands in for the output coefficients until the rows
are merged.  That is row bytes + 16 per new term, 16 bytes per dropped term
and chunk-sized scratch: 48 bytes per new term on 127 qubits at delta = 0.

Truncation keeps |a| >= delta, so delta = 0 keeps everything (including
exact zeros).

``run_spd`` keeps ``reach``, an int of every site a held term may touch:
the sites of the truncated observable, grown by the axis sites of each
rotation that changed the sum.  A rotation whose axis sites miss it
commutes with every term, so it is not called at all: no mask and no axis
constants.  Truncation and the drops below only remove terms, so the
reach stays a superset of the sum's support.

Only Z-type words read out nonzero at |0...0>.  ``run_spd`` applies the
circuit's first RX layer last: the leading run of rotations whose axes are
single-site X words, which ``_first_rx_layer`` tells by the axis's
``PauliWord.bits`` (no z bit, one x bit).  An X rotation on site j swaps Z
and Y on j and leaves I and X, so once only that run is left, a term with
an X factor, or with a Y factor on a site no remaining rotation turns,
keeps that factor in every product and never feeds a readable term.  Such
terms are dropped before the run, in one masked pass over the sum against
the raw x words of the sites the run turns.  After that a term can only
become unreadable at the last run rotation on its site (in Heisenberg
order), and only through a Y on that site, so the drop there tests one bit
of one x column; after the other run rotations it would find nothing.
Readable coefficients and truncation decisions are those of carrying every
term, so the expectation is the same bit for bit, and the final sum is all
Z-type.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .clifford import RecompiledCircuit
from .paulis import PauliSum, PauliWord, anticommute_mask, mul_rows, pack_keys

__all__ = [
    "SpdResult",
    "SpdCapacityError",
    "apply_rotation",
    "run_spd",
    "MAX_TERMS_ENV",
    "DEFAULT_MAX_TERMS",
]

MAX_TERMS_ENV = "SIM_MAX_TERMS"
DEFAULT_MAX_TERMS = 50_000_000

class SpdCapacityError(RuntimeError):
    """Raised when a gate would push the term count past the configured cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"sparse Pauli dynamics needs {needed} terms, cap is {cap} "
            f"(raise via the {MAX_TERMS_ENV} environment variable or max_terms)"
        )
        self.needed = needed
        self.cap = cap


def apply_rotation(
    s: PauliSum,
    axis: PauliWord,
    theta: float,
    delta: float = 0.0,
    max_terms: int | None = None,
) -> PauliSum:
    """One Heisenberg rotation update with threshold truncation.

    The input sum is only read: every in-place step works on an array this
    call made.
    """
    if axis.n != s.n:
        raise ValueError(f"axis on {axis.n} sites, sum on {s.n}")
    if not delta >= 0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    anti = anticommute_mask(s.words, axis).nonzero()[0]
    if anti.size == 0:
        return s
    sin_t = np.sin(theta)
    if sin_t == 0.0:
        # only at theta = +-0.0, where cos(theta) = 1
        return s.truncate(delta)
    rows = _row_view(s.words)
    prod = _from_rows(rows.take(anti))
    prod, k = mul_rows(axis, prod, out=prod)
    # copied only now, so that the copy and the temporaries of mul_rows are
    # never alive together
    coeffs = s.coeffs.copy()
    a = coeffs.take(anti)
    coeffs[anti] = a * np.cos(theta)
    k -= 2
    contrib = sin_t * k  # sin(theta) (k - 2) a, as i sin(theta) i^k is real
    contrib *= a
    del anti, a, k

    keys = pack_keys(s.words)
    prod_keys = pack_keys(prod)
    pos = keys.searchsorted(prod_keys)
    found = _found(keys, prod_keys, pos)
    # sigma*P -> P^sigma is a bijection, so the found positions are unique
    hit = found.nonzero()[0]
    coeffs[pos.take(hit)] += contrib.take(hit)
    born = np.logical_not(found, out=found).nonzero()[0]
    born = born[np.abs(contrib.take(born)) >= delta]
    born_coeffs = contrib.take(born)
    below = pos.take(born)
    # keys are views of the rows, so the born keys are the born rows; they
    # stay in product order, ranked by order and placed by slots below
    born_rows = prod_keys.take(born) if born.size < prod_keys.size else prod_keys
    # of the product batch only the born terms go on to the merge
    del prod, prod_keys, contrib, pos, found, hit, born
    order = born_rows.argsort(kind="stable")
    born_rows = born_rows.view(rows.dtype)

    # not |c| >= delta, without an N-sized float temporary
    gone = coeffs >= delta
    gone |= coeffs <= -delta
    dropped = np.logical_not(gone, out=gone).nonzero()[0]
    del gone
    total = len(coeffs) - dropped.size + born_coeffs.size
    cap = _resolve_cap(max_terms)
    if total > cap:
        raise SpdCapacityError(total, cap)
    # A born term goes after the kept residents below it and the born terms
    # with smaller keys: pos counted every resident below a product, and the
    # dropped ones leave no slot.
    if dropped.size:
        below -= dropped.searchsorted(below)
    slots = below.copy()
    slots[order] += np.arange(order.size)
    kept_below = below.take(order)
    del below, order

    # rows first, while the working copy of the coefficients holds the place
    # of the output coefficients
    merged_rows = np.empty(total, dtype=rows.dtype)
    _merge(merged_rows, rows, born_rows, slots, kept_below, dropped)
    del born_rows
    merged_coeffs = np.empty(total)
    _merge(merged_coeffs, coeffs, born_coeffs, slots, kept_below, dropped)
    return PauliSum(s.n, _from_rows(merged_rows), merged_coeffs)


_CHUNK = 1 << 14  # items per step of the chunked passes below


def _found(keys, prod_keys, pos) -> np.ndarray:
    """``keys[pos] == prod_keys`` (False where pos is past the end), taken
    ``_CHUNK`` products at a time."""
    if pos.size <= _CHUNK:
        return keys.take(pos, mode="clip") == prod_keys
    found = np.empty(pos.size, dtype=bool)
    for c in range(0, pos.size, _CHUNK):
        part = slice(c, c + _CHUNK)
        np.equal(keys.take(pos[part], mode="clip"), prod_keys[part], out=found[part])
    return found


def _merge(out, residents, born, slots, kept_below, dropped) -> None:
    """Fill ``out`` with ``born`` at ``slots`` and, in the other slots in
    order, the ``residents`` less the ``dropped`` ones.

    ``kept_below`` is ``slots`` sorted less each born term's rank: the number
    of kept residents before it.  Residents are placed ``_CHUNK`` at a time,
    so no temporary grows with their number.
    """
    out[slots] = born
    n = len(residents)
    if n <= _CHUNK:
        if dropped.size:
            gone = np.zeros(n, dtype=bool)
            gone[dropped] = True
            residents = residents[~gone]
        if slots.size:
            taken = np.zeros(len(out), dtype=bool)
            taken[slots] = True
            out[~taken] = residents
        else:
            out[:] = residents
        return
    k = j = d = 0  # kept residents, born terms and dropped residents passed
    for i0 in range(0, n, _CHUNK):
        i1 = min(i0 + _CHUNK, n)
        part = residents[i0:i1]
        d1 = dropped.searchsorted(i1) if i1 < n else dropped.size
        if d1 > d:
            gone = np.zeros(len(part), dtype=bool)
            gone[dropped[d:d1] - i0] = True
            part = part[~gone]
            d = d1
        # the last chunk's span runs to the end, past any born terms after it
        j1 = kept_below.searchsorted(k + len(part)) if i1 < n else kept_below.size
        span = out[k + j : k + len(part) + j1]
        if j1 > j:
            taken = np.zeros(len(span), dtype=bool)
            taken[kept_below[j:j1] + np.arange(-k, j1 - j - k)] = True
            span[~taken] = part
        else:
            span[:] = part
        k += len(part)
        j = j1


def _row_view(words: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous (N, 2*nw) word array as N opaque items."""
    return words.view(f"V{words.shape[1] * 8}")[:, 0]


def _from_rows(rows: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_row_view` on a gathered row array."""
    return rows.view(">u8").reshape(len(rows), rows.dtype.itemsize // 8)


def _resolve_cap(max_terms: int | None) -> int:
    if max_terms is not None:
        return max_terms
    env = os.environ.get(MAX_TERMS_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ValueError(f"bad {MAX_TERMS_ENV} value {env!r}") from exc
        if cap < 1:
            raise ValueError(f"bad {MAX_TERMS_ENV} value {env!r}: the cap must be >= 1")
        return cap
    return DEFAULT_MAX_TERMS


@dataclass(frozen=True)
class SpdResult:
    expectation: float
    norm: float
    peak_terms: int
    final_terms: int
    num_rotations: int
    wall_time_s: float


def run_spd(
    rc: RecompiledCircuit,
    delta: float,
    max_terms: int | None = None,
) -> SpdResult:
    """Propagate the recompiled observable through all rotations.

    Rotations stored in circuit-time order apply in reverse (Heisenberg
    order: the last circuit rotation hits the observable first), each with
    threshold truncation, and the result is read out at |0...0>.  Once
    truncation empties the sum no rotation can refill it, so the remaining
    rotations are skipped, and so is each rotation whose axis misses every
    site a held term may touch (``reach``, see the module docstring).

    The first RX layer, the leading run of rotations whose axes are
    single-site X words, carries only the terms that can still read out
    nonzero (see the module docstring); the expectation is that of carrying
    every term, bit for bit.  Without such a run nothing is dropped.

    - ``peak_terms``: the largest sum held, counted after each rotation and
      before the unreadable terms are dropped;
    - ``final_terms``: the terms left at the end, all Z-type after a run;
    - ``norm``: ``sqrt(|final|^2 + sum of the dropped a^2)``, so that
      ``|O|^2 - norm^2`` is the weight truncation removed from terms that
      could still be read.  At delta = 0 it is ``|O|`` up to rounding.
    """
    t0 = time.perf_counter()
    if not delta >= 0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")
    rotations = rc.rotations
    s = rc.transformed_observable.truncate(delta)
    lead, live, last = _first_rx_layer(rotations, s.nw)
    reach = s.support_bits  # grows by the axis of each rotation that changes s
    peak = s.num_terms
    cap = _resolve_cap(max_terms)
    dropped = 0.0  # squared weight of the unreadable terms dropped
    for i in reversed(range(len(rotations))):
        if not s.num_terms:
            break
        if i == lead - 1:
            s, dropped = _drop_unreadable(s, live, dropped)
        rot = rotations[i]
        sites = rot.axis.support_bits
        if not sites & reach:
            continue  # it commutes with every term held
        held = s
        s = apply_rotation(s, rot.axis, rot.angle, delta, cap)
        if s is not held:
            reach |= sites
            if s.num_terms > peak:
                peak = s.num_terms
        if i in last:
            s, dropped = _drop_site(s, *last[i], dropped)
    return SpdResult(
        expectation=s.expectation(),
        norm=math.hypot(s.frobenius_norm(), math.sqrt(dropped)),
        peak_terms=peak,
        final_terms=s.num_terms,
        num_rotations=len(rotations),
        wall_time_s=time.perf_counter() - t0,
    )


def _first_rx_layer(rotations, nw: int) -> tuple[int, np.ndarray, dict]:
    """The leading run of rotations whose axes are single-site X words (by
    ``bits``): its length, the raw x words of the sites it turns, and the
    raw x column and mask of the site of each run rotation that is the last
    on its site in Heisenberg order, by the rotation's index."""
    live = np.zeros(nw, dtype=np.uint64)
    last = {}
    seen = 0  # sites of the rotations before i
    for i, rot in enumerate(rotations):
        z, x = rot.axis.bits
        if z or x.bit_count() != 1:
            return i, live, last
        raw = rot.axis.row.view(np.uint64)[nw:]
        if not x & seen:
            w = (x.bit_length() - 1) // 64
            last[i] = (nw + w, raw[w])
            seen |= x
        live |= raw
    return len(rotations), live, last


def _drop_unreadable(s: PauliSum, live: np.ndarray, dropped: float) -> tuple[PauliSum, float]:
    """Drop the terms with an X factor or a Y factor outside the sites whose
    raw x words are ``live``; returns the rest and ``dropped`` plus their
    squared weight."""
    raw = s.words.view(np.uint64)
    dead = raw[:, s.nw :] & ~(raw[:, : s.nw] & live)
    return _drop(s, dead.any(axis=1), dropped)


def _drop_site(s: PauliSum, col: int, mask: np.uint64, dropped: float) -> tuple[PauliSum, float]:
    """Drop the terms with an x bit at one site, the bit ``mask`` of raw
    word ``col``; as ``_drop_unreadable``."""
    gone = s.words.view(np.uint64)[:, col] & mask
    return _drop(s, gone.astype(bool), dropped)


def _drop(s: PauliSum, gone: np.ndarray, dropped: float) -> tuple[PauliSum, float]:
    """The terms of ``s`` not ``gone`` (a mask), and ``dropped`` plus the
    squared weight of the others."""
    if not gone.any():
        return s, dropped
    lost = s.coeffs[gone]
    keep = np.logical_not(gone, out=gone)
    return PauliSum(s.n, s.words[keep], s.coeffs[keep]), dropped + float(lost @ lost)
