"""Slow references for the sparse-Pauli-dynamics kernels.

These are the earlier, straightforward forms of ``anticommute_mask``,
``mul_rows``, ``pack_keys``, ``apply_rotation`` and ``run_spd``: per-row
popcount sums over every word, a serializing key copy, boolean masks
throughout, a separate truncation before the merge, and every rotation
applied.  The fast kernels in ``spdtn`` must give the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from spdtn import PauliSum, PauliWord, SpdCapacityError, SpdResult
from spdtn.spd import _resolve_cap


def popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a)


def pack_keys(rows: np.ndarray) -> np.ndarray:
    be = np.ascontiguousarray(rows).astype(">u8")
    width = be.shape[-1] * 8
    return be.view(f"S{width}").reshape(rows.shape[:-1])


def y_counts(rows: np.ndarray) -> np.ndarray:
    nw = rows.shape[-1] // 2
    return popcount(rows[..., :nw] & rows[..., nw:]).sum(axis=-1, dtype=np.int64)


def anticommute_mask(rows: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Anticommute iff popcount(a.z & b.x) + popcount(a.x & b.z) is odd."""
    nw = row.shape[0] // 2
    zx = popcount(rows[..., :nw] & row[nw:]).sum(axis=-1, dtype=np.int64)
    xz = popcount(rows[..., nw:] & row[:nw]).sum(axis=-1, dtype=np.int64)
    return ((zx + xz) & 1).astype(bool)


def mul_rows(left: np.ndarray, rights: np.ndarray):
    """k = y(c) - y(left) - y(r) + 2 * |left.x & r.z|  (mod 4)."""
    nw = left.shape[0] // 2
    prod = rights ^ left
    swaps = popcount(rights[..., :nw] & left[nw:]).sum(axis=-1, dtype=np.int64)
    k = y_counts(prod) - y_counts(left) - y_counts(rights) + 2 * swaps
    return prod, np.mod(k, 4)


def apply_rotation(
    s: PauliSum,
    axis: PauliWord,
    theta: float,
    delta: float = 0.0,
    max_terms: int | None = None,
) -> PauliSum:
    """Mask, multiply, search, truncate the residents, sort the new terms and
    merge the two sorted runs, each as its own pass on native rows."""
    words = np.asarray(s.words, dtype=np.uint64)
    nw = s.nw
    anti = anticommute_mask(words, axis.row)
    sin_t = np.sin(theta)
    if not anti.any():
        return s
    coeffs = s.coeffs.copy()
    if sin_t == 0.0:
        coeffs[anti] *= np.cos(theta)
        return PauliSum(s.n, words, coeffs).truncate(delta)
    prod_words, k = mul_rows(axis.row, words[anti])
    contrib = sin_t * (k - 2) * s.coeffs[anti]
    coeffs[anti] *= np.cos(theta)

    keys = pack_keys(words)
    prod_keys = pack_keys(prod_words)
    pos = np.searchsorted(keys, prod_keys)
    pos_clip = np.minimum(pos, len(keys) - 1)
    found = keys[pos_clip] == prod_keys
    coeffs[pos_clip[found]] += contrib[found]

    new_mask = ~found
    new_coeffs = contrib[new_mask]
    born = np.abs(new_coeffs) >= delta
    new_words = prod_words[new_mask][born]
    new_coeffs = new_coeffs[born]
    new_keys = prod_keys[new_mask][born]

    keep = np.abs(coeffs) >= delta
    old_words, old_coeffs, old_keys = words[keep], coeffs[keep], keys[keep]

    total = len(old_coeffs) + len(new_coeffs)
    cap = _resolve_cap(max_terms)
    if total > cap:
        raise SpdCapacityError(total, cap)
    if len(new_coeffs) == 0:
        return PauliSum(s.n, old_words, old_coeffs)

    order = np.argsort(new_keys, kind="stable")
    new_words, new_coeffs, new_keys = new_words[order], new_coeffs[order], new_keys[order]

    insert_at = np.searchsorted(old_keys, new_keys)
    merged_words = np.empty((total, 2 * nw), dtype=np.uint64)
    merged_coeffs = np.empty(total)
    new_dest = insert_at + np.arange(len(new_keys))
    old_dest = np.arange(len(old_keys)) + np.cumsum(
        np.bincount(insert_at, minlength=len(old_keys) + 1)
    )[: len(old_keys)]
    merged_words[new_dest] = new_words
    merged_coeffs[new_dest] = new_coeffs
    merged_words[old_dest] = old_words
    merged_coeffs[old_dest] = old_coeffs
    return PauliSum(s.n, merged_words, merged_coeffs)


def run_spd(rc, delta: float) -> SpdResult:
    """Every rotation applied, in Heisenberg order.  Through the leading run
    of single-site X rotations (the first RX layer) the terms with an X
    factor, or a Y factor on a site no remaining rotation turns, are dropped
    before the run and after each run rotation, each time by a mask over
    every word; their squared weight enters ``norm``."""
    rotations = rc.rotations
    s = rc.transformed_observable.truncate(delta)
    nw = s.nw
    lead = 0
    for rot in rotations:
        x = rot.axis.row[nw:].astype(np.uint64)
        if rot.axis.row[:nw].any() or int(popcount(x).sum()) != 1:
            break
        lead += 1
    # live[i]: the x words of the sites that rotations[:i] turn
    live = np.zeros((lead + 1, nw), dtype=np.uint64)
    for i in range(lead):
        live[i + 1] = live[i] | rotations[i].axis.row[nw:].astype(np.uint64)

    def drop(s, live, dropped):
        words = s.words.astype(np.uint64)
        gone = (words[:, nw:] & ~(words[:, :nw] & live)).any(axis=1)
        lost = s.coeffs[gone]
        return PauliSum(s.n, s.words[~gone], s.coeffs[~gone]), dropped + float(lost @ lost)

    peak = s.num_terms
    dropped = 0.0
    for i in reversed(range(len(rotations))):
        if not s.num_terms:
            break
        if i == lead - 1:
            s, dropped = drop(s, live[lead], dropped)
        s = apply_rotation(s, rotations[i].axis, rotations[i].angle, delta)
        peak = max(peak, s.num_terms)
        if i < lead:
            s, dropped = drop(s, live[i], dropped)
    return SpdResult(
        expectation=s.expectation(),
        norm=math.hypot(s.frobenius_norm(), math.sqrt(dropped)),
        peak_terms=peak,
        final_terms=s.num_terms,
        num_rotations=len(rotations),
        wall_time_s=0.0,
    )
