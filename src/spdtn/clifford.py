"""Clifford tableaus and circuit recompilation.

A tableau stores the Heisenberg images ``C' P C`` (with ``C'`` the adjoint)
of the 2n generators: row j is the image of X_j, row n+j the image of Z_j,
each a canonical Pauli word with a sign in {+1, -1}.  A row is held as two
Python ints, the z bits and the x bits (bit j for site j, as in
``paulis``), plus the exponent e of the sign ``i^e`` (0 or 2).  Products
of rows use the ``mul_rows`` phase rule written for ints,

    op(a) op(b) = i^k op(a ^ b),  k = y(a^b) - y(a) - y(b) + 2|a.x & b.z|,

with ``y`` the Y-site count ``(z & x).bit_count()``, so conjugation is
integer bit arithmetic only.  Packed ``PauliWord`` rows appear only where
words enter or leave: ``conjugate``, the rotation axes and the transformed
observable of ``recompile``.

``recompile`` rewrites a Clifford + Pauli-rotation circuit as an equivalent
sequence of pure Pauli rotations followed by one residual Clifford: it scans
the circuit once in circuit-time order, keeping a single accumulated tableau
of all Clifford content seen so far; every rotation angle is folded to
``theta = theta' + k*pi/2`` with ``theta'`` in (-pi/4, pi/4], the ``k*pi/2``
part is absorbed into the tableau as a Clifford, and the surviving rotation
axis is conjugated through the accumulated tableau (an axis picking up a -1
sign flips the angle instead).  The final tableau transforms the observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .circuits import Circuit, Gate
from .paulis import PauliWord, PhasedWord, nwords64

__all__ = [
    "CliffordTableau",
    "Rotation",
    "RecompiledCircuit",
    "fold_angle",
    "recompile",
]

_UNITS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# Heisenberg images of the named 1- and 2-qubit Clifford gates.  Entry p of
# a gate's tuple is the image of generator p, ordered (X on qubit 0, Z on
# qubit 0, X on qubit 1, Z on qubit 1), as (z mask, x mask, sign exponent)
# with mask bit i standing for the gate's i-th qubit.
_GATE_IMAGES = {
    "h": ((0b1, 0b0, 0), (0b0, 0b1, 0)),
    "s": ((0b1, 0b1, 2), (0b1, 0b0, 0)),
    "sdg": ((0b1, 0b1, 0), (0b1, 0b0, 0)),
    "x": ((0b0, 0b1, 0), (0b1, 0b0, 2)),
    "y": ((0b0, 0b1, 2), (0b1, 0b0, 2)),
    "z": ((0b0, 0b1, 2), (0b1, 0b0, 0)),
    "cx": ((0b00, 0b11, 0), (0b01, 0b00, 0), (0b00, 0b10, 0), (0b11, 0b00, 0)),
    "cz": ((0b10, 0b01, 0), (0b01, 0b00, 0), (0b01, 0b10, 0), (0b10, 0b00, 0)),
}


def _ints(row: np.ndarray, nw: int) -> tuple[int, int]:
    """(z, x) ints of a packed ``[z-words | x-words]`` uint64 row."""
    data = np.ascontiguousarray(row, dtype="<u8").tobytes()
    return int.from_bytes(data[: 8 * nw], "little"), int.from_bytes(data[8 * nw :], "little")


def _row(z: int, x: int, nw: int) -> np.ndarray:
    """Packed uint64 row of the word with bits (z, x)."""
    data = z.to_bytes(8 * nw, "little") + x.to_bytes(8 * nw, "little")
    return np.frombuffer(data, dtype="<u8")


def _spread(mask: int, qubits: tuple[int, ...]) -> int:
    """Site bits of a gate-local mask: local bit i is site ``qubits[i]``."""
    out = 0
    for i, q in enumerate(qubits):
        if (mask >> i) & 1:
            out |= 1 << q
    return out


def _sign_exponent(e: int) -> int:
    """Reduce an image phase exponent mod 4; only i^0 and i^2 are signs."""
    e &= 3
    if e & 1:
        raise ValueError(f"expected a +-1 image phase, got i^{e}")
    return e


def _axis_ints(gate: Gate) -> tuple[int, int]:
    """(z, x) site bits of a rotation gate's axis."""
    name = gate.name
    if name == "rot":
        z = sum(1 << i for i, letter in enumerate(gate.axis) if letter != "X")
        x = sum(1 << i for i, letter in enumerate(gate.axis) if letter != "Z")
        return _spread(z, gate.qubits), _spread(x, gate.qubits)
    bit = 1 << gate.qubits[0]
    if name == "rx":
        return 0, bit
    if name == "ry":
        return bit, bit
    if name == "rz":
        return bit, 0
    if name == "rzz":
        return bit | (1 << gate.qubits[1]), 0
    raise ValueError(f"{name!r} is not a rotation")


class CliffordTableau:
    """Heisenberg generator images of an n-site Clifford unitary."""

    __slots__ = ("n", "_z", "_x", "_e")

    def __init__(self, n: int, z: list[int], x: list[int], e: list[int]):
        """Row g of the tableau is ``i^e[g] op(z[g], x[g])``; the lists are
        taken as they are, not copied."""
        self.n, self._z, self._x, self._e = n, z, x, e

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        nwords64(n)  # rejects n < 1
        bits = [1 << j for j in range(n)]
        return cls(n, [0] * n + bits, bits + [0] * n, [0] * (2 * n))

    @classmethod
    def from_gates(cls, n: int, gates: Iterable) -> "CliffordTableau":
        """Accumulate named Clifford gates and rotations whose angles fold to
        pure Cliffords (k*pi/2); any other angle raises."""
        acc = cls.identity(n)
        for g in gates:
            if g.is_clifford:
                acc._absorb_named(g.name, g.qubits)
            else:
                theta_p, k = fold_angle(g.angle)
                if theta_p != 0.0:
                    raise ValueError(f"gate {g} is not Clifford (residual angle {theta_p})")
                acc._absorb_half_turns(*_axis_ints(g), k)
        return acc

    # -- conjugation ---------------------------------------------------

    def _conjugate(self, z: int, x: int) -> tuple[int, int, int]:
        """Image of the canonical word (z, x) as (z', x', e): ``i^e op(z', x')``."""
        tz, tx, te = self._z, self._x, self._e
        az = ax = ay = 0
        e = -(z & x).bit_count()
        # Z-group images first, then X-group, matching the canonical form
        # (-i)^y prod_j Z_j^{z_j} prod_j X_j^{x_j}.
        for base, bits in ((self.n, z), (0, x)):
            while bits:
                low = bits & -bits
                bits ^= low
                g = base + low.bit_length() - 1
                gz, gx = tz[g], tx[g]
                swaps = (ax & gz).bit_count()
                az ^= gz
                ax ^= gx
                y = (az & ax).bit_count()
                e += te[g] + y - ay - (gz & gx).bit_count() + 2 * swaps
                ay = y
        return az, ax, e & 3

    def conjugate(self, p: PauliWord | PhasedWord) -> PhasedWord:
        """Heisenberg image of a (phased) word under this tableau."""
        if isinstance(p, PhasedWord):
            word, in_phase = p.word, p.phase
        else:
            word, in_phase = p, 1.0 + 0.0j
        if word.n != self.n:
            raise ValueError(f"site counts differ: {word.n} != {self.n}")
        nw = nwords64(self.n)
        z, x, e = self._conjugate(*_ints(word.row, nw))
        return PhasedWord(PauliWord(self.n, _row(z, x, nw)), in_phase * _UNITS[e])

    def validate(self) -> None:
        """Check the symplectic condition: generator images preserve all
        pairwise (anti)commutation relations (X_j and Z_j anticommute, every
        other pair commutes)."""
        n, z, x = self.n, self._z, self._x
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                anti = ((z[a] & x[b]).bit_count() + (x[a] & z[b]).bit_count()) & 1
                if anti != (b == a + n):
                    raise AssertionError("tableau violates the symplectic condition")

    # -- in-place gate absorption (builder API) ------------------------

    def _absorb_named(self, name: str, qubits: tuple[int, ...]) -> None:
        """Append gate G (later in circuit time): images of the affected
        generators become conj_acc(conj_G(generator))."""
        n = self.n
        updates = []
        for p, (mz, mx, sign) in enumerate(_GATE_IMAGES[name]):
            q = qubits[p >> 1]
            g = n + q if p & 1 else q
            z, x, e = self._conjugate(_spread(mz, qubits), _spread(mx, qubits))
            updates.append((g, z, x, _sign_exponent(e + sign)))
        for g, z, x, e in updates:
            self._z[g], self._x[g], self._e[g] = z, x, e

    def _absorb_half_turns(self, az: int, ax: int, k: int) -> None:
        """Append the Clifford ``exp(-i (k*pi/2) axis / 2)``, axis bits (az, ax).

        Only generators anticommuting with the axis change:
        g -> i^k (axis g)^{k odd} with  U' g U = i^{m+k} op(axis ^ g)  for
        odd k (m the product exponent) and g -> -g for k = 2.
        """
        k %= 4
        if k == 0:
            return
        n = self.n
        ay = (az & ax).bit_count()
        updates = []
        # X_j anticommutes with the axis iff the axis has a z bit at j;
        # Z_j iff it has an x bit there.
        for base, bits in ((0, az), (n, ax)):
            while bits:
                low = bits & -bits
                bits ^= low
                g = base + low.bit_length() - 1
                if k == 2:
                    updates.append((g, self._z[g], self._x[g], self._e[g] ^ 2))
                    continue
                # op(axis) op(g) = i^m op(axis ^ g); g is X_j (base 0) or Z_j
                gz, gx = (0, low) if base == 0 else (low, 0)
                cz, cx = az ^ gz, ax ^ gx
                m = (cz & cx).bit_count() - ay + 2 * (ax & gz).bit_count()
                z, x, e = self._conjugate(cz, cx)
                updates.append((g, z, x, _sign_exponent(m + k + e)))
        for g, z, x, e in updates:
            self._z[g], self._x[g], self._e[g] = z, x, e


def fold_angle(theta: float) -> tuple[float, int]:
    """Fold to ``theta = theta' + k*pi/2`` with theta' in (-pi/4, pi/4].

    Residual angles within 1e-12 of zero snap to exactly 0.0 so pure
    Clifford rotations drop cleanly.  A NaN or infinite angle raises
    ``ValueError``.
    """
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    half = math.pi / 2
    k = math.ceil((theta - math.pi / 4) / half)
    theta_p = theta - k * half
    if theta_p <= -math.pi / 4:
        theta_p += half
        k -= 1
    elif theta_p > math.pi / 4 + 1e-12:
        theta_p -= half
        k += 1
    if abs(theta_p) < 1e-12:
        theta_p = 0.0
    return theta_p, k


@dataclass(frozen=True, slots=True)
class Rotation:
    axis: PauliWord
    angle: float


@dataclass(frozen=True)
class RecompiledCircuit:
    """Rotations in circuit-time order plus the residual Clifford.

    Applying the rotations (in order) and then the residual Clifford to a
    state reproduces the original circuit's action.  Heisenberg evolution
    of an observable therefore applies ``transformed_observable`` first and
    the rotations in reverse order (last circuit rotation first).
    """

    n: int
    rotations: tuple[Rotation, ...]
    residual_clifford: CliffordTableau
    transformed_observable: "object"  # spd.PauliSum


def recompile(circuit: Circuit, observable) -> RecompiledCircuit:
    """Fold all Clifford content of a circuit into one tableau.

    ``observable`` is a ``spd.PauliSum`` or a single ``PauliWord`` on the
    circuit's sites (see ``PauliSum.of``).  Rotation angles fold to
    (-pi/4, pi/4]; axes are conjugated through the Clifford content earlier
    in circuit time; folded k*pi/2 parts and all named Cliffords accumulate
    in the tableau, which finally transforms the observable.  Rotations on
    equal axes share one ``PauliWord``.
    """
    from .spd import PauliSum

    n = circuit.n
    observable = PauliSum.of(observable, n)
    nw = nwords64(n)
    acc = CliffordTableau.identity(n)
    rotations: list[Rotation] = []
    # one word per distinct axis, so that rotations on the same axis share
    # the kernel constants the word keeps
    axes: dict[tuple[int, int], PauliWord] = {}
    for gate in circuit.gates():
        if gate.is_clifford:
            acc._absorb_named(gate.name, gate.qubits)
            continue
        az, ax = _axis_ints(gate)
        theta_p, k = fold_angle(gate.angle)
        if theta_p != 0.0:
            z, x, e = acc._conjugate(az, ax)
            sign = 1 - _sign_exponent(e)
            axis = axes.get((z, x))
            if axis is None:
                axis = axes[z, x] = PauliWord(n, _row(z, x, nw))
            rotations.append(Rotation(axis, sign * theta_p))
        if k % 4:
            acc._absorb_half_turns(az, ax, k)
    new_terms = []
    for word, coeff in observable.terms():
        z, x, e = acc._conjugate(*_ints(word.row, nw))
        new_terms.append((PauliWord(n, _row(z, x, nw)), coeff * (1 - _sign_exponent(e))))
    transformed = PauliSum.from_terms(n, new_terms)
    return RecompiledCircuit(n, tuple(rotations), acc, transformed)
