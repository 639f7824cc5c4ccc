"""Sparse Pauli dynamics: Heisenberg propagation of observable sums.

A ``PauliSum`` holds N packed words (rows, sorted by packed key and unique)
with real coefficients.  A rotation ``exp(-i theta sigma / 2)`` maps each
stored word P that anticommutes with the axis sigma to

    a'_P      = cos(theta) a_P          (own coefficient damped)
    a'_{s^P} += i sin(theta) i^k a_P    with op(sigma) op(P) = i^k op(s^P)

where k is 1 or 3 for anticommuting words, so ``i * i^k = k - 2`` is real.
Words are stored big-endian (``">u8"``), so each row's sort key is a view of
its bytes and no pass re-serializes the sum.  Each gate runs as:

(1) one parity fold over the axis's nonzero words gives the indices of the
    anticommuting terms; with none, the sum is returned as it is;
(2) their rows are gathered whole and multiplied by sigma;
(3) every product is binary-searched among the stored keys; a product found
    adds to its resident coefficient, and the missing ones that reach the
    threshold are sorted as new terms;
(4) the new terms go straight to their merged positions, each after the
    resident terms kept below its search position and the new terms with
    smaller keys; the kept resident terms fill the other slots in order.

Truncation keeps |a| >= delta, so delta = 0 keeps everything (including
exact zeros).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .clifford import RecompiledCircuit
from .paulis import (
    PauliWord,
    anticommute_mask,
    mul_rows,
    nwords64,
    pack_keys,
    parse_pauli,
)

__all__ = [
    "PauliSum",
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


@dataclass(frozen=True)
class PauliSum:
    """Sorted, duplicate-free packed Pauli words with real coefficients.

    ``words`` is stored C-contiguous big-endian (dtype ``">u8"``); the
    constructor converts other input once.  The numeric values are those of
    native rows, but each row's bytes already compare in the packed-key
    order, so :func:`pack_keys` on ``words`` is a view, not a copy.
    """

    n: int
    words: np.ndarray  # (N, 2*nw) ">u8", sorted by packed key
    coeffs: np.ndarray  # (N,) float64

    def __post_init__(self):
        words = np.ascontiguousarray(self.words, dtype=">u8")
        coeffs = _real(self.coeffs)
        if words.ndim != 2 or words.shape[1] != 2 * nwords64(self.n):
            raise ValueError(f"words shape {words.shape} does not match n={self.n}")
        if coeffs.shape != (words.shape[0],):
            raise ValueError("coefficient count does not match word count")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "coeffs", coeffs)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_terms(cls, n: int, terms: Iterable[tuple[PauliWord | str, float]]) -> "PauliSum":
        """Build from (word-or-text, coefficient) pairs; duplicates combine."""
        nw = nwords64(n)
        rows, coeffs = [], []
        for word, coeff in terms:
            if isinstance(word, str):
                word = parse_pauli(word, n)
            if word.n != n:
                raise ValueError(f"term on {word.n} sites in an n={n} sum")
            rows.append(word.row)
            coeffs.append(coeff)
        words = np.array(rows, dtype=">u8").reshape(-1, 2 * nw)
        _, first, group = np.unique(pack_keys(words), return_index=True, return_inverse=True)
        summed = np.bincount(group, weights=_real(coeffs), minlength=len(first))
        return cls(n, words[first], summed)

    # -- basic queries -----------------------------------------------------

    @property
    def num_terms(self) -> int:
        return self.words.shape[0]

    @property
    def nw(self) -> int:
        return nwords64(self.n)

    def terms(self) -> Iterator[tuple[PauliWord, float]]:
        for row, coeff in zip(self.words, self.coeffs):
            yield PauliWord(self.n, row), float(coeff)

    def coefficient(self, word: PauliWord | str) -> float:
        """Coefficient of one word (0 if absent), by binary search."""
        if isinstance(word, str):
            word = parse_pauli(word, self.n)
        keys = pack_keys(self.words)
        key = pack_keys(word.row[None, :])
        pos = int(np.searchsorted(keys, key[0]))
        if pos < len(keys) and keys[pos] == key[0]:
            return float(self.coeffs[pos])
        return 0.0

    def validate(self) -> None:
        """Assert sortedness and uniqueness of the packed words."""
        keys = pack_keys(self.words)
        if np.any(keys[1:] <= keys[:-1]):
            raise AssertionError("words are not strictly sorted")

    # -- observable functionals -------------------------------------------

    def z_type_mask(self) -> np.ndarray:
        """Terms with no X or Y factor (all x words clear)."""
        return ~self.words[:, self.nw :].any(axis=1)

    def expectation(self) -> float:
        """<0| sum |0> = sum of coefficients of z-type words.

        Every Z-only word fixes |0...0>, all others map it off-diagonal.
        """
        return float(self.coeffs[self.z_type_mask()].sum())

    def frobenius_norm(self) -> float:
        """sqrt(Tr(O' O) / 2^n) = l2 norm of the coefficient vector."""
        return float(np.linalg.norm(self.coeffs))

    def truncate(self, delta: float) -> "PauliSum":
        """Keep terms with |a| >= delta (identity at delta = 0)."""
        if delta < 0:
            raise ValueError("delta must be >= 0")
        keep = np.abs(self.coeffs) >= delta
        if keep.all():
            return self
        return PauliSum(self.n, self.words[keep], self.coeffs[keep])


def apply_rotation(
    s: PauliSum,
    axis: PauliWord,
    theta: float,
    delta: float = 0.0,
    max_terms: int | None = None,
) -> PauliSum:
    """One Heisenberg rotation update with threshold truncation."""
    if axis.n != s.n:
        raise ValueError(f"axis on {axis.n} sites, sum on {s.n}")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    anti = np.flatnonzero(anticommute_mask(s.words, axis.row))
    if anti.size == 0:
        return s
    sin_t = np.sin(theta)
    coeffs = s.coeffs.copy()
    a = coeffs[anti]
    coeffs[anti] = a * np.cos(theta)
    if sin_t == 0.0:
        # pure +-1 Clifford content: coefficients scale by cos = +-1 only
        return PauliSum(s.n, s.words, coeffs).truncate(delta)
    rows = _row_view(s.words)
    prod_words, k = mul_rows(axis.row, _from_rows(rows[anti]))
    contrib = sin_t * (k - 2) * a

    keys = pack_keys(s.words)
    prod_keys = pack_keys(prod_words)
    pos = np.searchsorted(keys, prod_keys)
    found = keys[np.minimum(pos, len(keys) - 1)] == prod_keys
    # sigma*P -> P^sigma is a bijection, so the found positions are unique
    hit = np.flatnonzero(found)
    coeffs[pos[hit]] += contrib[hit]
    miss = np.flatnonzero(~found)
    born = miss[np.abs(contrib[miss]) >= delta]
    born = born[np.argsort(prod_keys[born], kind="stable")]

    keep = np.abs(coeffs) >= delta
    dropped = np.flatnonzero(~keep)
    total = len(keys) - dropped.size + born.size
    cap = _resolve_cap(max_terms)
    if total > cap:
        raise SpdCapacityError(total, cap)

    # pos counts every resident below a product; the dropped ones leave no slot
    below = pos[born]
    new_at = below - np.searchsorted(dropped, below) + np.arange(born.size)
    is_new = np.zeros(total, dtype=bool)
    is_new[new_at] = True
    merged_rows = np.empty(total, dtype=rows.dtype)
    merged_coeffs = np.empty(total)
    merged_rows[new_at] = _row_view(prod_words)[born]
    merged_coeffs[new_at] = contrib[born]
    if dropped.size:
        rows, coeffs = rows[keep], coeffs[keep]
    is_old = ~is_new
    merged_rows[is_old] = rows
    merged_coeffs[is_old] = coeffs
    return PauliSum(s.n, _from_rows(merged_rows), merged_coeffs)


def _row_view(words: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous (N, 2*nw) word array as N opaque items."""
    return words.view(f"V{words.shape[1] * 8}")[:, 0]


def _from_rows(rows: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_row_view` on a gathered row array."""
    return rows.view(">u8").reshape(len(rows), rows.dtype.itemsize // 8)


def _real(coeffs) -> np.ndarray:
    """Coefficients as float64; a nonzero imaginary part is rejected."""
    coeffs = np.asarray(coeffs)
    if np.iscomplexobj(coeffs) and np.any(coeffs.imag):
        raise ValueError("coefficient with a nonzero imaginary part; Pauli sums are real")
    return coeffs.real.astype(np.float64, copy=False)


def _resolve_cap(max_terms: int | None) -> int:
    if max_terms is not None:
        return max_terms
    env = os.environ.get(MAX_TERMS_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"bad {MAX_TERMS_ENV} value {env!r}") from exc
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
    threshold truncation, and the result is read out at |0...0>.
    """
    t0 = time.perf_counter()
    s = rc.transformed_observable.truncate(delta)
    peak = s.num_terms
    for rot in reversed(rc.rotations):
        s = apply_rotation(s, rot.axis, rot.angle, delta, max_terms)
        if s.num_terms > peak:
            peak = s.num_terms
    return SpdResult(
        expectation=s.expectation(),
        norm=s.frobenius_norm(),
        peak_terms=peak,
        final_terms=s.num_terms,
        num_rotations=len(rc.rotations),
        wall_time_s=time.perf_counter() - t0,
    )
