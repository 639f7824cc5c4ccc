"""Plain-Python truncated Pauli propagation, written apart from ``spdtn.spd``.

A Pauli word is a pair of Python integers ``(z, x)`` (bit j set means a Z,
X or, with both set, a Y factor on site j) and a sum is a dict from words to
complex coefficients.  The operator of ``(z, x)`` is the Hermitian word
``(-i)^|z&x| Z^z X^x``, so the product of two words is

    op(a) op(b) = (-i)^(y(a)+y(b)) (-1)^|a.x & b.z| Z^(a.z^b.z) X^(a.x^b.x)
                = i^(y(c) - y(a) - y(b) + 2|a.x & b.z|) op(c),   c = a ^ b.

Each rotation ``exp(-i theta sigma / 2)`` sends every word P that
anticommutes with sigma to ``cos(theta) P + i sin(theta) sigma P``; after
each rotation that branches, every term with ``|a| < delta`` is dropped and
a product that lands on no existing word is created only if its
coefficient reaches ``delta``.  That is the truncation rule of the sparse
Pauli dynamics paper (arXiv 2306.16372), applied rotation by rotation.
"""

from __future__ import annotations

import math

import numpy as np

_PHASES = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def word_ints(row, nw: int) -> tuple[int, int]:
    """``(z, x)`` integers of a packed ``[z-words | x-words]`` uint64 row."""
    z = sum(int(row[i]) << (64 * i) for i in range(nw))
    x = sum(int(row[nw + i]) << (64 * i) for i in range(nw))
    return z, x


def propagate(rotations, terms: dict, delta: float) -> dict:
    """Heisenberg-propagate ``terms`` through ``rotations`` (circuit order).

    ``rotations`` is a sequence of ``(z, x, angle)``; the last one acts on
    the observable first.  Returns the final sum with its peak term count.
    Sine and cosine come from numpy, as in the engine, so the two agree on
    every truncation decision; everything else is plain Python arithmetic.
    """
    terms = {w: c for w, c in terms.items() if abs(c) >= delta}
    peak = len(terms)
    for sz, sx, angle in reversed(rotations):
        anti = [
            (w, c)
            for w, c in terms.items()
            if ((w[0] & sx).bit_count() + (w[1] & sz).bit_count()) & 1
        ]
        if not anti:
            continue
        isin = 1.0j * float(np.sin(angle))
        cos = float(np.cos(angle))
        y_axis = (sz & sx).bit_count()
        products = []
        for (z, x), c in anti:
            pz, px = z ^ sz, x ^ sx
            k = ((pz & px).bit_count() - y_axis - (z & x).bit_count()
                 + 2 * (sx & z).bit_count()) % 4
            products.append(((pz, px), isin * _PHASES[k] * c))
        for w, c in anti:
            terms[w] = c * cos
        born = []
        for w, c in products:
            if w in terms:
                terms[w] = terms[w] + c
            elif abs(c) >= delta:
                born.append((w, c))
        terms = {w: c for w, c in terms.items() if abs(c) >= delta}
        terms.update(born)
        peak = max(peak, len(terms))
    return {"terms": terms, "peak": peak}


def readout(terms: dict) -> tuple[float, float]:
    """``(<0|O|0>, Frobenius norm)``: z-type words fix ``|0...0>``."""
    value = math.fsum(c.real for (z, x), c in terms.items() if x == 0)
    norm = math.sqrt(math.fsum(abs(c) ** 2 for c in terms.values()))
    return value, norm


def from_recompiled(rc) -> tuple[list, dict]:
    """Rotations and observable of a ``spdtn.RecompiledCircuit`` as integers."""
    nw = rc.transformed_observable.nw
    rotations = [(*word_ints(r.axis.row, nw), r.angle) for r in rc.rotations]
    obs = rc.transformed_observable
    terms = {word_ints(row, nw): complex(c) for row, c in zip(obs.words, obs.coeffs)}
    return rotations, terms
