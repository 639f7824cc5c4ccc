"""Tableau conjugation and recompilation against dense linear algebra."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdtn import (
    CliffordTableau,
    Circuit,
    Gate,
    Layer,
    PauliSum,
    PauliWord,
    Rotation,
    chain,
    fold_angle,
    kicked_ising,
    parse_pauli,
    recompile,
)
from spdtn.oracle import clifford_image

from conftest import dense_unitary, dense_word, mixed_gate, random_circuit, random_word


def dense_conjugate(circuit, word):
    """U_adj P U with everything dense."""
    u = dense_unitary(circuit)
    return u.conj().T @ dense_word(word) @ u


def assert_tableau_matches_dense(tableau, circuit, words):
    for word in words:
        pw = tableau.conjugate(word)
        got = pw.phase * dense_word(pw.word)
        np.testing.assert_allclose(got, dense_conjugate(circuit, word), atol=1e-12)


NAMED_CASES = [
    ("h", (0,)),
    ("s", (0,)),
    ("sdg", (1,)),
    ("x", (0,)),
    ("y", (1,)),
    ("z", (2,)),
    ("cx", (0, 1)),
    ("cx", (2, 0)),
    ("cz", (1, 2)),
]


class TestSingleGates:
    @pytest.mark.parametrize("name,qubits", NAMED_CASES)
    def test_named_gate_images(self, name, qubits, rng):
        n = 3
        circuit = Circuit(n, (Layer((Gate(name, qubits),)),))
        tableau = CliffordTableau.from_gates(n, list(circuit.gates()))
        words = [random_word(rng, n) for _ in range(12)]
        assert_tableau_matches_dense(tableau, circuit, words)

    @pytest.mark.parametrize("name", ["rx", "rz", "rzz"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, -1])
    def test_half_turn_rotations(self, name, k, rng):
        n = 3
        qubits = (0, 2) if name == "rzz" else (1,)
        gate = Gate(name, qubits, k * math.pi / 2)
        circuit = Circuit(n, (Layer((gate,)),))
        tableau = CliffordTableau.from_gates(n, [gate])
        words = [random_word(rng, n) for _ in range(12)]
        assert_tableau_matches_dense(tableau, circuit, words)

    def test_half_turn_rot_gate(self, rng):
        n = 4
        gate = Gate("rot", (0, 2, 3), -math.pi / 2, "XYZ")
        tableau = CliffordTableau.from_gates(n, [gate])
        circuit = Circuit(n, (Layer((gate,)),))
        words = [random_word(rng, n) for _ in range(12)]
        assert_tableau_matches_dense(tableau, circuit, words)

    def test_non_clifford_angle_raises(self):
        with pytest.raises(ValueError, match="not Clifford"):
            CliffordTableau.from_gates(2, [Gate("rx", (0,), 0.3)])


class TestSequences:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_clifford_circuits(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        circuit = random_circuit(rng, n, depth=12, clifford_only=True)
        tableau = CliffordTableau.from_gates(n, list(circuit.gates()))
        words = [random_word(rng, n) for _ in range(8)]
        assert_tableau_matches_dense(tableau, circuit, words)

    def test_conjugate_preserves_phased_input(self, rng):
        n = 3
        tableau = CliffordTableau.from_gates(n, [Gate("s", (0,))])
        word = random_word(rng, n)
        plain = tableau.conjugate(word)
        from spdtn import PhasedWord

        phased = tableau.conjugate(PhasedWord(word, -1j))
        assert phased.word == plain.word
        assert np.isclose(phased.phase, -1j * plain.phase)

    def test_conjugate_size_mismatch(self):
        tableau = CliffordTableau.identity(3)
        with pytest.raises(ValueError):
            tableau.conjugate(PauliWord.identity(4))

    def test_identity_tableau(self, rng):
        tableau = CliffordTableau.identity(5)
        word = random_word(rng, 5)
        pw = tableau.conjugate(word)
        assert pw.word == word and pw.phase == 1.0


class TestTableauRows:
    def test_non_sign_image_phase_raises(self):
        # X0 and Z0 both map to X0, so the image of Y0 is -i times the
        # identity: no Hermitian image, and absorbing S must say so.
        tableau = CliffordTableau(1, [0, 0], [1, 1], [0, 0])
        with pytest.raises(ValueError, match=r"\+-1 image phase"):
            tableau._absorb_named("s", (0,))


class TestValidate:
    def test_valid_tableaus_pass(self, rng):
        circuit = random_circuit(rng, 3, depth=10, clifford_only=True)
        CliffordTableau.from_gates(3, list(circuit.gates())).validate()
        CliffordTableau.identity(4).validate()

    def test_broken_tableau_fails(self):
        t = CliffordTableau.identity(3)
        z, x = t._z[:], t._x[:]
        z[0], x[0] = z[3], x[3]  # image of X0 := image of Z0
        with pytest.raises(AssertionError):
            CliffordTableau(3, z, x, t._e[:]).validate()


class TestFoldAngle:
    @given(st.floats(-12.0, 12.0, allow_nan=False))
    def test_fold_properties(self, theta):
        theta_p, k = fold_angle(theta)
        assert -math.pi / 4 < theta_p <= math.pi / 4 + 1e-9
        assert math.isclose(theta_p + k * math.pi / 2, theta, abs_tol=1e-9)

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_exact_half_turns_snap(self, k):
        theta_p, kk = fold_angle(k * math.pi / 2)
        assert theta_p == 0.0
        assert kk == k

    def test_quarter_turn_is_residual(self):
        theta_p, k = fold_angle(math.pi / 4)
        assert math.isclose(theta_p, math.pi / 4)
        assert k == 0
        theta_p, k = fold_angle(-math.pi / 4)
        assert math.isclose(theta_p, math.pi / 4)
        assert k == -1

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises(self, theta):
        """No fold exists for a NaN or infinite angle; ``math.ceil`` used to
        fail on it with a message that did not name the angle.  No circuit
        reaches ``recompile`` with one: its gates refuse it, in the same
        words."""
        message = f"rotation angle must be finite, got {theta!r}"
        with pytest.raises(ValueError, match=message):
            fold_angle(theta)
        with pytest.raises(ValueError, match=message):
            kicked_ising(chain(3), 1, theta)


class TestRecompile:
    @pytest.mark.parametrize("seed", range(6))
    def test_recompile_identity_on_observables(self, seed):
        """U_adj P U == V_adj (C_adj P C) V with V the surviving rotations."""
        rng = np.random.default_rng(300 + seed)
        n = 3
        circuit = random_circuit(rng, n, depth=10)
        rc = recompile(circuit, PauliWord.identity(n))
        for _ in range(4):
            word = random_word(rng, n)
            lhs = dense_conjugate(circuit, word)
            pw = rc.residual_clifford.conjugate(word)
            mid = pw.phase * dense_word(pw.word)
            v = np.eye(2**n, dtype=complex)
            for rot in rc.rotations:
                w = dense_word(rot.axis)
                half = 0.5 * rot.angle
                v = (math.cos(half) * np.eye(2**n) - 1j * math.sin(half) * w) @ v
            np.testing.assert_allclose(v.conj().T @ mid @ v, lhs, atol=1e-10)

    def test_rotation_angles_are_folded(self, rng):
        n = 2
        gates = [
            Gate("rx", (0,), 0.3),
            Gate("rz", (1,), math.pi / 2),
            Gate("rzz", (0, 1), -math.pi / 2 + 0.1),
            Gate("h", (0,)),
        ]
        circuit = Circuit(n, tuple(Layer((g,)) for g in gates))
        rc = recompile(circuit, parse_pauli("Z0", n))
        assert len(rc.rotations) == 2
        for rot in rc.rotations:
            assert -math.pi / 4 < rot.angle <= math.pi / 4

    def test_pure_clifford_has_no_rotations(self, rng):
        circuit = random_circuit(rng, 3, depth=15, clifford_only=True)
        rc = recompile(circuit, parse_pauli("Z0", 3))
        assert rc.rotations == ()
        assert rc.transformed_observable.num_terms == 1

    def test_transformed_observable_uses_final_tableau(self, rng):
        n = 3
        circuit = random_circuit(rng, n, depth=8)
        obs = PauliSum.from_terms(
            n, [(parse_pauli("Z0", n), 0.5), (parse_pauli("X1 Y2", n), -2.0)]
        )
        rc = recompile(circuit, obs)
        expected = {}
        for word, coeff in obs.terms():
            pw = rc.residual_clifford.conjugate(word)
            expected[pw.word.key] = expected.get(pw.word.key, 0.0) + coeff * pw.phase
        got = {word.key: coeff for word, coeff in rc.transformed_observable.terms()}
        assert set(got) == {k for k, v in expected.items() if abs(v) > 0}
        for key, coeff in got.items():
            assert np.isclose(coeff, expected[key])

    def test_single_word_observable_is_wrapped(self):
        rc = recompile(Circuit(2, ()), parse_pauli("X0", 2))
        assert rc.transformed_observable.num_terms == 1
        ((word, coeff),) = rc.transformed_observable.terms()
        assert word == parse_pauli("X0", 2)
        assert coeff == 1.0


def _axis_word(gate: Gate, n: int) -> PauliWord:
    """Axis of a rotation gate over n sites, built from its letters."""
    letters = gate.axis or {"rx": "X", "ry": "Y", "rz": "Z", "rzz": "ZZ"}[gate.name]
    pairs = list(zip(gate.qubits, letters))
    return PauliWord.from_sites(
        n, z=[q for q, lt in pairs if lt in "ZY"], x=[q for q, lt in pairs if lt in "XY"]
    )


class TestRecompileAgainstOracle:
    @pytest.mark.parametrize("n", [65, 127])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_gate_local_oracle(self, n, seed):
        """Each rotation axis and angle sign is the gate-local oracle's
        image of the axis under the Clifford prefix (every earlier rotation
        cut to its k*pi/2 part); the transformed observable is the image
        under the whole Clifford part.  Equality is exact."""
        rng = np.random.default_rng(2100 + seed)
        gates = [mixed_gate(rng, n) for _ in range(120)]
        terms = [(random_word(rng, n), complex(rng.standard_normal())) for _ in range(4)]
        terms.append((PauliWord.from_sites(n, z=[3, 64, n - 1], x=[3, 70 % n]), 0.5))
        obs = PauliSum.from_terms(n, terms)
        rc = recompile(Circuit(n, tuple(Layer((g,)) for g in gates)), obs)

        cliffords: list[Gate] = []
        expected = []
        for g in gates:
            if g.is_clifford:
                cliffords.append(g)
                continue
            theta_p, k = fold_angle(g.angle)
            if theta_p != 0.0:
                prefix = Circuit(n, tuple(Layer((c,)) for c in cliffords))
                image = clifford_image(prefix, _axis_word(g, n))
                assert image.phase in (1.0, -1.0)
                expected.append(Rotation(image.word, image.phase.real * theta_p))
            cliffords.append(Gate(g.name, g.qubits, k * math.pi / 2, g.axis))
        assert any(g.name in ("ry", "rot") for g in gates)
        assert len(expected) > 10
        assert rc.rotations == tuple(expected)

        whole = Circuit(n, tuple(Layer((c,)) for c in cliffords))
        images = []
        for word, coeff in obs.terms():
            image = clifford_image(whole, word)
            images.append((image.word, coeff * image.phase))
        want = PauliSum.from_terms(n, images)
        np.testing.assert_array_equal(rc.transformed_observable.words, want.words)
        np.testing.assert_array_equal(rc.transformed_observable.coeffs, want.coeffs)
