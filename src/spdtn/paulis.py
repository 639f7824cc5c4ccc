"""Bit-packed Pauli words, their product algebra, and sums of words.

An n-qubit Pauli word is a pair of bit vectors (z, x), packed little-endian
into ``ceil(n/64)`` uint64 words each and stored concatenated as
``[z-words | x-words]`` (bit ``j`` lives in word ``j // 64`` at position
``j % 64``).  Bit j of z (x) means a Z (X) factor on site j; both bits set
means a Y factor.  ``PauliWord.bits`` reads a word's (z, x) as two Python
ints, bit j for site j, and ``PauliWord.from_bits`` builds a word from them;
this pair is the package's one conversion between a row and its bits, and
the single-word queries (``site``, ``weight``, ``support``, parsing and
formatting) work on the ints.

The operator denoted by (z, x) is the canonical Hermitian word

    (-i)^{|z & x|} * (prod_j Z_j^{z_j}) * (prod_j X_j^{x_j})

which is Hermitian, squares to the identity, and equals the standard Pauli
Y on sites where both bits are set.  Products of two canonical words carry
a phase i^k, k in {0, 1, 2, 3}, returned explicitly; k is even exactly when
the two words commute.  Words carry no phase of their own.

Term ordering everywhere in this package is the lexicographic order of the
packed row ``[z_0, .., z_{w-1}, x_0, .., x_{w-1}]`` with each uint64 compared
numerically.  Written big-endian (dtype ``">u8"``), a row's bytes compare in
that same order, so :func:`pack_keys` turns each row into one fixed-width
byte string; on rows already stored big-endian and C-contiguous, as
``PauliSum`` stores them, the keys are a view of the same memory.

A ``PauliSum`` is a real linear combination of words: its rows sorted by
that order and unique, one float64 coefficient each.  It is the observable
every engine takes and the sum that ``spd`` propagates.

Every row is held big-endian: ``PauliWord.row`` like ``PauliSum.words``.
The batch kernels below work on the raw bytes of big-endian rows (a native
batch is converted by value first): AND, XOR and the parity of a popcount do
not depend on the order of the bytes within a word, so stored rows are never
byte-swapped.  What they need of an axis (its raw words, the columns and
masks of the parity fold, its Y count, the words that carry the phase and,
for a one-site axis, the phase by the letter at its site) is derived on the
first use of the axis word and kept on the word, so it lives as long as the
word does.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "PauliWord",
    "PhasedWord",
    "PauliSum",
    "nwords64",
    "pauli_mul",
    "anticommutes",
    "parse_pauli",
    "format_pauli",
    "pack_keys",
    "anticommute_mask",
    "mul_rows",
]

_PHASES = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)


def nwords64(n: int) -> int:
    """Number of uint64 words per bit vector for n sites."""
    if n < 1:
        raise ValueError(f"need at least one site, got n={n}")
    return (n + 63) // 64


def pack_keys(rows: np.ndarray) -> np.ndarray:
    """Fixed-width byte keys whose bytewise order is the packed-row order.

    ``rows`` has shape (..., 2*nw) uint64; the result has shape (...,) with
    dtype ``S{16*nw}``.  Each word is written big-endian, so bytewise
    comparison agrees with numeric word-by-word comparison.  Rows that are
    already C-contiguous ``">u8"`` are not copied: the keys are a view of
    their memory.
    """
    be = np.ascontiguousarray(rows, dtype=">u8")
    return be.view(f"S{be.shape[-1] * 8}").reshape(be.shape[:-1])


@dataclass(frozen=True, slots=True)
class PauliWord:
    """One n-site Pauli word as a packed (z | x) big-endian uint64 row."""

    n: int
    row: np.ndarray = field(repr=False)
    # the batch kernels' constants of this word as an axis, once derived
    _axis: _Axis | None = field(default=None, init=False, repr=False, compare=False)
    # ``support_bits``, once read
    _support: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        nw = nwords64(self.n)
        row = np.array(self.row, dtype=">u8", order="C")
        if row.shape != (2 * nw,):
            raise ValueError(f"row shape {row.shape} does not match n={self.n}")
        row.setflags(write=False)
        object.__setattr__(self, "row", row)

    @classmethod
    def identity(cls, n: int) -> "PauliWord":
        return cls.from_bits(n, 0, 0)

    @classmethod
    def from_bits(cls, n: int, z: int, x: int) -> "PauliWord":
        """The word whose z and x bits are the ints ``z`` and ``x``, bit j
        for site j; a negative int or a bit at or above n raises."""
        z, x = operator.index(z), operator.index(x)
        nw = nwords64(n)
        if z < 0 or x < 0 or (z | x) >> n:
            raise ValueError(f"bits z={z:#x}, x={x:#x} out of range for n={n}")
        data = z.to_bytes(8 * nw, "little") + x.to_bytes(8 * nw, "little")
        return cls(n, np.frombuffer(data, dtype="<u8"))

    @classmethod
    def from_sites(cls, n: int, z=(), x=()) -> "PauliWord":
        """Build from site index iterables; a site in both z and x is a Y."""
        masks = []
        for sites in (z, x):
            mask = 0
            for j in map(operator.index, sites):
                if not 0 <= j < n:
                    raise ValueError(f"site {j} out of range for n={n}")
                mask |= 1 << j
            masks.append(mask)
        return cls.from_bits(n, *masks)

    @property
    def nw(self) -> int:
        return nwords64(self.n)

    @property
    def bits(self) -> tuple[int, int]:
        """(z, x) as Python ints, bit j for site j."""
        data = self.row.astype("<u8").tobytes()
        half = len(data) // 2
        return int.from_bytes(data[:half], "little"), int.from_bytes(data[half:], "little")

    def site(self, j: int) -> str:
        """Letter at site j: one of 'I', 'X', 'Y', 'Z'."""
        j = operator.index(j)
        if not 0 <= j < self.n:
            raise ValueError(f"site {j} out of range for n={self.n}")
        z, x = self.bits
        return "IXZY"[(x >> j & 1) + 2 * (z >> j & 1)]

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return self.support_bits.bit_count()

    @property
    def support_bits(self) -> int:
        """The sites carrying a non-identity factor as an int, bit j for
        site j; kept on the word after the first read."""
        if self._support is None:
            z, x = self.bits
            object.__setattr__(self, "_support", z | x)
        return self._support

    def support(self) -> tuple[int, ...]:
        """Sites carrying a non-identity factor, ascending."""
        mask, sites = self.support_bits, []
        while mask:
            low = mask & -mask
            sites.append(low.bit_length() - 1)
            mask ^= low
        return tuple(sites)

    @property
    def is_z_type(self) -> bool:
        """True when the word has no X or Y factor (all x bits clear)."""
        return not self.row[self.nw :].any()

    @property
    def key(self) -> bytes:
        return pack_keys(self.row).item()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliWord)
            and self.n == other.n
            and bool(np.array_equal(self.row, other.row))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.key))

    def __str__(self) -> str:
        return format_pauli(self) or "I"

    def __repr__(self) -> str:
        return f"PauliWord(n={self.n}, '{format_pauli(self)}')"


@dataclass(frozen=True)
class PhasedWord:
    """A canonical word together with a unit phase (one of 1, i, -1, -i)."""

    word: PauliWord
    phase: complex

    def __repr__(self) -> str:
        return f"PhasedWord({self.phase!r} * {format_pauli(self.word)!r})"


class _Axis(NamedTuple):
    """What the batch kernels need of one axis word.

    ``words`` is the axis' big-endian row viewed as native uint64, so that
    bitwise results on it and on the rows' raw words are the byte-swapped
    results on the values, with the same popcounts.  Masks are 0-d arrays,
    the cheapest operand for a numpy ufunc.
    """

    words: np.ndarray
    # (rows' column, mask) of each nonzero axis word: its z word w meets the
    # rows' x word w, its x word w their z word w
    fold: tuple[tuple[int, np.ndarray], ...]
    # every mask of the fold is the same single bit, so the XOR of the terms
    # has at most that bit set and its parity is whether it is nonzero
    single: bool
    y: int  # Y sites of the axis
    # (word, x mask or None) of each word where the axis is nonzero
    phase: tuple[tuple[int, np.ndarray | None], ...]
    # of a one-site axis: the rows' z and x columns at its site, its raw
    # mask there and k by the row's letter there, indexed 2 * z bit + x bit
    site: tuple[int, int, np.ndarray, np.ndarray] | None


# k of op(axis) op(r) = i^k op(axis ^ r) for a one-site axis, by the letter
# of r at the site (I, X, Z, Y), for an X, Z and Y axis
_SITE_K = {
    (0, 1): np.array([0, 0, 3, 1], dtype=np.int64),
    (1, 0): np.array([0, 1, 0, 3], dtype=np.int64),
    (1, 1): np.array([0, 3, 1, 0], dtype=np.int64),
}


def _derive_axis(word: PauliWord) -> _Axis:
    """The constants of ``word`` as an axis, stored on the word for its later
    uses.  The raw words are read as ints once.  Two threads may derive them
    at once; the results are equal, so either may be kept."""
    words = word.row.view(np.uint64)
    raw = words.tolist()
    nw = len(raw) // 2
    masks = {w: np.array(v, dtype=np.uint64) for w, v in enumerate(raw) if v}
    fold = tuple(((w + nw) % (2 * nw), m) for w, m in masks.items())
    bits = {raw[w] for w in masks}
    single = len(bits) == 1 and bits.pop().bit_count() == 1
    y = sum((raw[w] & raw[nw + w]).bit_count() for w in range(nw))
    phase = tuple(
        (w, masks.get(nw + w)) for w in range(nw) if w in masks or nw + w in masks
    )
    site = None
    if single and len(phase) == 1:
        w = phase[0][0]
        mask = masks.get(w, masks.get(nw + w))
        site = (w, nw + w, mask, _SITE_K[bool(raw[w]), bool(raw[nw + w])])
    axis = _Axis(words, fold, single, y, phase, site)
    object.__setattr__(word, "_axis", axis)
    return axis


def anticommute_mask(rows: np.ndarray, axis: PauliWord) -> np.ndarray:
    """Boolean mask of packed rows that anticommute with the word ``axis``.

    Two words anticommute iff popcount(a.z & b.x) + popcount(a.x & b.z) is
    odd, which is the parity of one popcount of the XOR of every
    ``a.z[w] & b.x[w]`` and ``a.x[w] & b.z[w]``.  Only the words where
    ``axis`` is nonzero enter the fold; an identity ``axis`` commutes with all.
    """
    rows = np.asarray(rows, dtype=">u8")
    const = axis._axis or _derive_axis(axis)
    raw = rows.view(np.uint64)
    fold = None
    for col, mask in const.fold:
        if fold is None:
            fold = raw[..., col] & mask
        else:
            fold ^= raw[..., col] & mask
    if fold is None:
        return np.zeros(raw.shape[:-1], dtype=bool)
    if const.single:
        return fold.astype(bool)
    parity = np.bitwise_count(fold)
    parity &= 1
    return parity.view(bool)


def mul_rows(axis: PauliWord, rights: np.ndarray, out: np.ndarray | None = None):
    """Products ``op(axis) @ op(rights[k])`` for a batch of packed rows.

    Returns ``(prod_rows, k)`` with ``op(axis) op(r) = i^k op(axis ^ r)``;
    ``prod_rows`` is big-endian, and native ``rights`` are taken by value.
    With ``out`` (``">u8"`` of the shape of ``rights``, and big-endian
    ``rights`` itself allowed) the products are written there.  The
    exponent follows from counting Y-normalization factors on each operand
    and the product plus the X-past-Z swaps:

        k = y(c) - y(axis) - y(r) + 2 * |axis.x & r.z|   (mod 4)

    On a word where ``axis`` is zero, c equals r, so ``y(c) - y(r)`` and the
    swaps are summed over the nonzero words of ``axis`` only; the terms of r
    are counted before the product overwrites it.  For a one-site axis k
    depends only on r's letter at that site and is looked up by it.
    """
    rights = np.asarray(rights, dtype=">u8")
    if out is None:
        out = np.empty_like(rights)
    elif out.shape != rights.shape or out.dtype != rights.dtype:
        raise ValueError(f"out has shape {out.shape} and dtype {out.dtype}, "
                         f"not {rights.shape} and >u8")
    const = axis._axis or _derive_axis(axis)
    raw = rights.view(np.uint64)
    prod = out.view(np.uint64)
    if const.site is not None:
        zc, xc, mask, site_k = const.site
        letter = np.bitwise_count(raw[..., zc] & mask)
        letter <<= 1
        letter |= np.bitwise_count(raw[..., xc] & mask)
        k = site_k.take(letter)
        np.bitwise_xor(raw, const.words, out=prod)
        return out, k
    nw = raw.shape[-1] // 2
    k = np.full(raw.shape[:-1], -const.y, dtype=np.int64)
    for w, x in const.phase:
        k -= np.bitwise_count(raw[..., w] & raw[..., nw + w])
        if x is not None:
            k += 2 * np.bitwise_count(raw[..., w] & x)
    np.bitwise_xor(raw, const.words, out=prod)
    for w, _ in const.phase:
        k += np.bitwise_count(prod[..., w] & prod[..., nw + w])
    k &= 3
    return out, k


def pauli_mul(a: PauliWord, b: PauliWord) -> PhasedWord:
    """Product of two canonical words: ``op(a) op(b) = phase * op(c)``."""
    if a.n != b.n:
        raise ValueError(f"site counts differ: {a.n} != {b.n}")
    prod, k = mul_rows(a, b.row[None, :])
    return PhasedWord(PauliWord(a.n, prod[0]), complex(_PHASES[k[0]]))


def anticommutes(a: PauliWord, b: PauliWord) -> bool:
    """True when the two words anticommute."""
    if a.n != b.n:
        raise ValueError(f"site counts differ: {a.n} != {b.n}")
    return bool(anticommute_mask(a.row[None, :], b)[0])


_TOKEN = re.compile(r"([XYZ])(\d+)\Z")


def parse_pauli(text: str, n: int) -> PauliWord:
    """Parse whitespace-separated site tokens like ``"X0 Y3 Z62"``.

    Letters are X, Y, Z (case sensitive); the empty string is the identity.
    Raises ValueError naming the offending token position for a bad letter,
    an out-of-range index, or a repeated site.
    """
    z = x = 0
    seen: set[int] = set()
    for pos, tok in enumerate(text.split()):
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad Pauli token {tok!r} at position {pos}")
        letter, j = m.group(1), int(m.group(2))
        if j >= n:
            raise ValueError(f"site {j} out of range for n={n} (token {pos})")
        if j in seen:
            raise ValueError(f"site {j} repeated (token {pos})")
        seen.add(j)
        if letter != "X":
            z |= 1 << j
        if letter != "Z":
            x |= 1 << j
    return PauliWord.from_bits(n, z, x)


def format_pauli(word: PauliWord) -> str:
    """Inverse of :func:`parse_pauli`; identity formats as the empty string."""
    return " ".join(f"{word.site(j)}{j}" for j in word.support())


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

    @classmethod
    def of(cls, observable: "PauliSum | PauliWord", n: int) -> "PauliSum":
        """An observable on n sites as a sum: a word becomes a one-term sum
        with coefficient 1, a sum is taken as it is."""
        if isinstance(observable, PauliWord):
            observable = cls.from_terms(observable.n, [(observable, 1.0)])
        elif not isinstance(observable, PauliSum):
            raise TypeError(f"unsupported observable type {type(observable).__name__}")
        if observable.n != n:
            raise ValueError(
                f"observable and circuit sizes differ: {observable.n} != {n}"
            )
        return observable

    # -- basic queries -----------------------------------------------------

    @property
    def num_terms(self) -> int:
        return self.words.shape[0]

    @property
    def nw(self) -> int:
        return nwords64(self.n)

    @property
    def support_bits(self) -> int:
        """The sites where some term has a non-identity factor, as an int,
        bit j for site j."""
        return PauliWord(self.n, np.bitwise_or.reduce(self.words, axis=0)).support_bits

    def terms(self) -> Iterator[tuple[PauliWord, float]]:
        for row, coeff in zip(self.words, self.coeffs):
            yield PauliWord(self.n, row), float(coeff)

    def coefficient(self, word: PauliWord | str) -> float:
        """Coefficient of one word (0 if absent), by binary search."""
        if isinstance(word, str):
            word = parse_pauli(word, self.n)
        if word.n != self.n:
            raise ValueError(f"word on {word.n} sites, sum on {self.n}")
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
        if not delta >= 0:
            raise ValueError(f"delta must be >= 0, got {delta!r}")
        keep = np.abs(self.coeffs) >= delta
        if keep.all():
            return self
        return PauliSum(self.n, self.words[keep], self.coeffs[keep])


def _real(coeffs) -> np.ndarray:
    """Coefficients as float64; a nonzero imaginary part is rejected."""
    coeffs = np.asarray(coeffs)
    if np.iscomplexobj(coeffs) and np.any(coeffs.imag):
        raise ValueError("coefficient with a nonzero imaginary part; Pauli sums are real")
    return coeffs.real.astype(np.float64, copy=False)
