"""The ground-truth engines against fully independent dense recomputation."""

import math

import numpy as np
import pytest

from spdtn import (
    CliffordTableau,
    Circuit,
    Gate,
    Layer,
    PauliSum,
    PauliWord,
    PhasedWord,
    Tensor,
    chain,
    kicked_ising,
    parse_pauli,
)
from spdtn import oracle
from spdtn.circuits import gate_matrix
from spdtn.oracle import (
    CONTRACT_BUDGET,
    clifford_expectation,
    clifford_image,
    exact_contract,
    heisenberg_dense_expectation,
    observable_matrix,
    pauli_apply,
    statevector,
    statevector_expectation,
    word_matrix,
)
from spdtn.tensor import CapacityError

from conftest import (
    dense_expectation,
    dense_unitary,
    dense_word,
    naive_contract,
    random_circuit,
    random_word,
)


def random_observable(rng, n, k=3):
    return PauliSum.from_terms(
        n, [(random_word(rng, n), complex(rng.standard_normal())) for _ in range(k)]
    )


class TestStatevector:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_unitary(self, seed):
        rng = np.random.default_rng(1100 + seed)
        n = int(rng.integers(1, 5))
        circuit = random_circuit(rng, n, depth=12)
        got = statevector(circuit)
        want = dense_unitary(circuit)[:, 0]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_qubit_axis_order(self):
        # an X on qubit 0 of three flips the high bit of the flat index
        circuit = kicked_ising(chain(3), steps=1, theta_h=np.pi)
        psi = statevector(circuit)
        amp = np.abs(psi)
        assert np.argmax(amp) == 0b111  # every site flipped (up to phase)

    def test_cap(self):
        circuit = kicked_ising(chain(25), steps=1, theta_h=0.1)
        with pytest.raises(CapacityError):
            statevector(circuit)
        with pytest.raises(CapacityError):
            statevector_expectation(circuit, parse_pauli("Z0", 25))


class TestPauliApply:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_word(self, seed):
        rng = np.random.default_rng(1200 + seed)
        n = int(rng.integers(1, 6))
        word = random_word(rng, n)
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        got = pauli_apply(vec, word)
        want = dense_word(word) @ vec
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pauli_apply(np.zeros(4, dtype=complex), parse_pauli("Z0", 3))


class TestExpectationRoutes:
    @pytest.mark.parametrize("seed", range(6))
    def test_statevector_route_matches_dense(self, seed):
        rng = np.random.default_rng(1300 + seed)
        n = int(rng.integers(2, 5))
        circuit = random_circuit(rng, n, depth=15)
        obs = random_observable(rng, n)
        got = statevector_expectation(circuit, obs)
        want = dense_expectation(circuit, observable_matrix(obs, n))
        assert abs(got - want) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_heisenberg_route_matches_statevector(self, seed):
        rng = np.random.default_rng(1400 + seed)
        n = int(rng.integers(2, 5))
        circuit = random_circuit(rng, n, depth=15)
        obs = random_observable(rng, n)
        sv = statevector_expectation(circuit, obs)
        hd = heisenberg_dense_expectation(circuit, obs)
        assert abs(sv - hd) < 1e-12

    def test_heisenberg_cap(self):
        circuit = kicked_ising(chain(13), steps=1, theta_h=0.1)
        with pytest.raises(CapacityError):
            heisenberg_dense_expectation(circuit, parse_pauli("Z0", 13))

    def test_single_word_observable(self, rng):
        n = 3
        circuit = random_circuit(rng, n, depth=10)
        word = parse_pauli("Z1", n)
        as_word = statevector_expectation(circuit, word)
        as_sum = statevector_expectation(circuit, PauliSum.from_terms(n, [(word, 1.0)]))
        assert abs(as_word - as_sum) < 1e-14

    def test_unsupported_observable_type(self, rng):
        circuit = random_circuit(rng, 2, depth=2)
        with pytest.raises(TypeError):
            statevector_expectation(circuit, "Z0")


class TestCliffordRoute:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_statevector_on_clifford_circuits(self, seed):
        rng = np.random.default_rng(1500 + seed)
        n = int(rng.integers(2, 6))
        circuit = random_circuit(rng, n, depth=20, clifford_only=True)
        obs = random_observable(rng, n)
        got = clifford_expectation(circuit, obs)
        want = statevector_expectation(circuit, obs)
        assert abs(got - want) < 1e-10

    def test_values_are_quantized(self, rng):
        # single-word Clifford expectations are exactly -1, 0, or +1
        for seed in range(10):
            srng = np.random.default_rng(1600 + seed)
            circuit = random_circuit(srng, 4, depth=15, clifford_only=True)
            val = clifford_expectation(circuit, random_word(srng, 4))
            assert val in (-1.0, 0.0, 1.0)

    def test_kicked_ising_clifford_points(self):
        lat = chain(8)
        word = parse_pauli("Z3", 8)
        for theta in (0.0, np.pi / 2):
            circuit = kicked_ising(lat, steps=4, theta_h=theta)
            got = clifford_expectation(circuit, word)
            assert got in (-1.0, 0.0, 1.0)  # tableau route is exact
            want = statevector_expectation(circuit, word)
            assert abs(got - want) < 1e-12

    def test_rejects_non_clifford(self, rng):
        circuit = kicked_ising(chain(3), steps=1, theta_h=0.3)
        with pytest.raises(ValueError, match="not Clifford"):
            clifford_expectation(circuit, parse_pauli("Z0", 3))

    def test_rejects_rot_axis_off_gate(self):
        # An axis X0 X1 on a gate over qubit 0 alone would let the
        # gate-local skip return 1 for the disjoint observable Z1, where the
        # true rotation maps it off the Z type.  Such a gate cannot be
        # built: its axis names one letter per gate qubit.
        with pytest.raises(ValueError, match="rot axis must be one of X, Y, Z per qubit"):
            Gate("rot", (0,), math.pi / 2, parse_pauli("X0 X1", 2))
        circuit = Circuit(2, (Layer((Gate("rot", (0, 1), math.pi / 2, "XX"),)),))
        image = clifford_image(circuit, parse_pauli("Z1", 2))
        assert (image.word, image.phase) == (parse_pauli("X0 Y1", 2), 1.0)
        assert clifford_expectation(circuit, parse_pauli("Z1", 2)) == 0.0

    @pytest.mark.parametrize("n", [65, 127])
    @pytest.mark.parametrize("seed", range(3))
    def test_gate_local_path_matches_full_tableau(self, n, seed):
        # The slow route: every gate as a full n-site tableau acting on the
        # whole word, with no skipping.
        def full_image(circuit, word):
            cur = PhasedWord(word, 1.0 + 0.0j)
            for g in reversed(list(circuit.gates())):
                cur = CliffordTableau.from_gates(circuit.n, [g]).conjugate(cur)
            return cur

        rng = np.random.default_rng(1700 + seed)
        circuit = random_circuit(rng, n, depth=40, clifford_only=True)
        touched = sorted({q for g in circuit.gates() for q in g.qubits})
        terms = []
        for _ in range(4):
            terms.append((random_word(rng, n), complex(rng.standard_normal())))
            z_sites = rng.choice(touched, size=2, replace=False)
            terms.append((PauliWord.from_sites(n, z=z_sites), complex(rng.standard_normal())))
        obs = PauliSum.from_terms(n, terms)
        assert any((w.row[: w.nw] & w.row[w.nw :]).any() for w, _ in obs.terms())
        want = 0.0 + 0.0j
        for word, coeff in obs.terms():
            ref = full_image(circuit, word)
            got = clifford_image(circuit, word)
            assert got.word == ref.word
            assert got.phase == ref.phase
            if ref.word.is_z_type:
                want += coeff * ref.phase
        assert clifford_expectation(circuit, obs) == float(want.real)


class TestWordMatrix:
    def test_matches_conftest_kron(self, rng):
        for _ in range(10):
            word = random_word(rng, 4)
            np.testing.assert_allclose(word_matrix(word), dense_word(word))

    def test_observable_matrix_sums(self, rng):
        n = 3
        obs = random_observable(rng, n)
        want = np.zeros((8, 8), dtype=complex)
        for word, coeff in obs.terms():
            want += coeff * dense_word(word)
        np.testing.assert_allclose(observable_matrix(obs, n), want)

    def test_observable_matrix_size_check(self):
        with pytest.raises(ValueError):
            observable_matrix(PauliSum.from_terms(2, [("Z0", 1.0)]), 3)


class TestExactContract:
    def test_matches_naive(self, rng):
        dims = {"a": 2, "b": 3, "c": 2, "d": 2}
        ts = [
            Tensor(
                (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))),
                ("a", "b"),
            ),
            Tensor(
                (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))),
                ("b", "c"),
            ),
            Tensor(
                (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
                ("c", "a"),
            ),
        ]
        got = exact_contract(ts)
        want = naive_contract(ts).item()
        assert np.isclose(got, want, atol=1e-12)

    def test_accepts_site_network(self, rng):
        from spdtn.bp import SiteNetwork

        a = Tensor(rng.standard_normal((2,)).astype(complex), ("x",))
        b = Tensor(rng.standard_normal((2,)).astype(complex), ("x",))
        sn = SiteNetwork({0: [a], 1: [b]})
        got = exact_contract(sn)
        assert np.isclose(got, complex(np.dot(a.data, b.data)))

    def test_budget(self):
        # a triangle of wide tensors: every pairwise contraction leaves a
        # 600 x 600 intermediate, so no greedy order fits the budget
        ring3 = [
            Tensor(np.ones((600, 600), dtype=complex), ("a", "b")),
            Tensor(np.ones((600, 600), dtype=complex), ("b", "c")),
            Tensor(np.ones((600, 600), dtype=complex), ("c", "a")),
        ]
        with pytest.raises(CapacityError, match="budget"):
            exact_contract(ring3, budget=1000)
        assert CONTRACT_BUDGET > 10**6


class TestInvariantsRaise:
    """Broken invariants raise AssertionError explicitly, so the checks
    also hold under ``python -O``, which strips assert statements."""

    circuit = Circuit(2, (Layer((Gate("h", (1,)),)), Layer((Gate("rz", (0,), 0.3),))))

    def test_statevector_norm_drift(self, monkeypatch):
        monkeypatch.setattr(oracle, "gate_matrix", lambda g: 1.01 * gate_matrix(g))
        with pytest.raises(AssertionError, match="norm drifted to"):
            statevector(self.circuit)

    def test_statevector_imaginary_residue(self, monkeypatch):
        monkeypatch.setattr(oracle, "pauli_apply", lambda v, w: 1j * pauli_apply(v, w))
        with pytest.raises(AssertionError, match="imaginary residue"):
            statevector_expectation(self.circuit, parse_pauli("Z0", 2))

    def test_heisenberg_imaginary_residue(self, monkeypatch):
        monkeypatch.setattr(
            oracle, "observable_matrix", lambda o, n: 1j * observable_matrix(o, n)
        )
        with pytest.raises(AssertionError, match="imaginary residue"):
            heisenberg_dense_expectation(self.circuit, parse_pauli("Z0", 2))

    def test_clifford_imaginary_residue(self, monkeypatch):
        image = oracle._image
        monkeypatch.setattr(
            oracle,
            "_image",
            lambda steps, n, w: PhasedWord(image(steps, n, w).word, 1j),
        )
        circuit = Circuit(2, (Layer((Gate("h", (1,)),)),))
        with pytest.raises(AssertionError, match="imaginary residue"):
            clifford_expectation(circuit, parse_pauli("Z0", 2))
