"""Tensor-network evolution and the three sandwich drivers."""

import math

import numpy as np
import pytest

from spdtn import (
    Circuit,
    Gate,
    Layer,
    PauliSum,
    Tensor,
    chain,
    device_127,
    gate_matrix,
    grid,
    heavy_hex,
    kicked_ising,
    parse_pauli,
    ring,
)
from spdtn import tn
from spdtn.bp import SiteNetwork, bp_iterate
from spdtn.oracle import exact_contract, statevector, statevector_expectation
from spdtn.tensor import contract
from spdtn.tn import (
    BpOptions,
    EvolvingState,
    apply_layer,
    evolve,
    peps_zero,
    pepo_from_word,
    run_tn,
    sandwich_network,
    state_norm,
)

import tn_reference as ref
from conftest import PAULI_MATS, dense_gate_local, dense_word, embed_gate


def bond_graph(state):
    """The bonds of an evolving state, read from its site tensors' labels."""
    return SiteNetwork({i: [t] for i, t in state.tensors.items()})


def max_bond(state):
    sn = bond_graph(state)
    return max((sn.bond_dim(i, j) for i, j in sn.edges), default=1)


def state_vector_of(state):
    """Contract an evolving peps to its full (2,)*n amplitude tensor."""
    out = tuple(f"p{i}" for i in range(state.n))
    return contract(list(state.tensors.values()), output=out).data


PAULI_TENSOR = np.array([PAULI_MATS[letter] for letter in "IXYZ"])


def operator_matrix_of(op):
    """Contract an evolving pepo's Pauli coefficients (label a{i}, I X Y Z =
    0..3) with the Pauli matrices to its full 2^n x 2^n matrix."""
    kets = tuple(f"k{i}" for i in range(op.n))
    bras = tuple(f"b{i}" for i in range(op.n))
    paulis = [Tensor(PAULI_TENSOR, (f"a{i}", f"k{i}", f"b{i}")) for i in range(op.n)]
    t = contract(list(op.tensors.values()) + paulis, output=kets + bras)
    return t.data.reshape(2**op.n, 2**op.n)


class TestStates:
    def test_peps_zero(self):
        psi = peps_zero(3)
        vec = state_vector_of(psi).reshape(-1)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(vec, expected)
        norm, _ = state_norm(psi)
        assert np.isclose(norm, 1.0)

    def test_pepo_from_word(self):
        word = parse_pauli("X0 Z2", 3)
        op = pepo_from_word(word)
        np.testing.assert_allclose(operator_matrix_of(op), dense_word(word))
        for i, letter in enumerate("XIZ"):
            assert op.tensors[i].inds == (f"a{i}",)
            assert op.tensors[i].data.dtype == np.float64
            np.testing.assert_array_equal(op.tensors[i].data, np.eye(4)["IXYZ".index(letter)])

    def test_pepo_norm_is_one(self):
        op = pepo_from_word(parse_pauli("Y1", 2))
        norm, _ = state_norm(op)
        assert np.isclose(norm, 1.0)

    def test_bad_kind(self):
        from spdtn.tn import EvolvingState

        with pytest.raises(ValueError, match="kind"):
            EvolvingState("mps", 2, {})


class TestApplyLayer:
    @pytest.mark.parametrize("seed", range(5))
    def test_peps_matches_statevector(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = 4
        circuit = kicked_ising(chain(n), steps=2, theta_h=float(rng.uniform(0, 3)))
        psi = peps_zero(n)
        for layer in circuit.layers:
            apply_layer(psi, layer)
        np.testing.assert_allclose(
            state_vector_of(psi).reshape(-1), statevector(circuit), atol=1e-12
        )

    def test_pepo_is_heisenberg_image(self):
        n = 2
        word = parse_pauli("Z0", n)
        gate = Gate("rzz", (0, 1), 0.7)
        op = pepo_from_word(word)
        apply_layer(op, Layer((gate,)))
        from spdtn import gate_matrix

        u = np.kron(np.eye(1), gate_matrix(gate))
        expected = u.conj().T @ dense_word(word) @ u
        np.testing.assert_allclose(operator_matrix_of(op), expected, atol=1e-12)

    def test_one_site_gate(self):
        n = 2
        op = pepo_from_word(parse_pauli("Z0", n))
        apply_layer(op, Layer((Gate("h", (0,)),)))
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        u = np.kron(h, np.eye(2))
        np.testing.assert_allclose(
            operator_matrix_of(op), u.conj().T @ dense_word(parse_pauli("Z0", n)) @ u,
            atol=1e-12,
        )

    @staticmethod
    def every_gate(rng):
        """Every gate ``gate_matrix`` supports, on qubits (1,) or (2, 0), the
        rotations at a random angle and at +-pi/2."""
        gates = [Gate(name, (1,)) for name in ("h", "s", "sdg", "x", "y", "z")]
        gates += [Gate(name, (2, 0)) for name in ("cx", "cz")]
        for angle in (float(rng.uniform(-math.pi, math.pi)), math.pi / 2, -math.pi / 2):
            gates += [Gate(name, (1,), angle) for name in ("rx", "ry", "rz")]
            gates.append(Gate("rzz", (2, 0), angle))
            for qubits, axis in (((1,), "Y"), ((2, 0), "XZ"), ((2, 0), "YY")):
                gates.append(Gate("rot", qubits, angle, axis))
        return gates

    @pytest.mark.parametrize("seed", range(3))
    def test_transfer_matrix_matches_dense(self, seed):
        """A pepo absorbs each gate as a real transfer matrix: the result
        contracted with the Pauli matrices is the dense U† O U."""
        rng = np.random.default_rng(1100 + seed)
        n = 3
        for gate in self.every_gate(rng):
            coeffs = rng.standard_normal((n, 4))
            op = EvolvingState(
                "pepo", n, {i: Tensor(coeffs[i], (f"a{i}",)) for i in range(n)}
            )
            dense = operator_matrix_of(op)
            apply_layer(op, Layer((gate,)))
            u = embed_gate(dense_gate_local(gate), gate.qubits, n)
            np.testing.assert_allclose(
                operator_matrix_of(op), u.conj().T @ dense @ u, atol=1e-12, err_msg=str(gate)
            )
            assert all(t.data.dtype == np.float64 for t in op.tensors.values())
            if len(gate.qubits) == 2:
                assert max_bond(op) <= 4

    @pytest.mark.parametrize("angle", [0.3, 1.1, math.pi / 2, -math.pi / 2])
    def test_rzz_bond_is_two_on_state_four_on_operator(self, angle):
        """RZZ's operator-Schmidt rank is 2 and its transfer matrix's 4; the
        rest of the transfer matrix's spectrum is rounding noise near 1e-16."""
        layer = Layer((Gate("rzz", (0, 1), angle),))
        psi, op = peps_zero(2), pepo_from_word(parse_pauli("Z0", 2))
        apply_layer(psi, layer)
        apply_layer(op, layer)
        assert (max_bond(psi), max_bond(op)) == (2, 4)

    def test_rejects_three_site_gates(self):
        psi = peps_zero(3)
        layer = Layer((Gate("rot", (0, 1, 2), 0.4, "XXX"),))
        with pytest.raises(ValueError, match="1- and 2-qubit"):
            apply_layer(psi, layer)


class TestGateArrays:
    """Each distinct gate's arrays are built once per state and kept there,
    read-only; absorbing them again gives the bits of building them afresh."""

    PAIRS = {
        "rx": (Gate("rx", (0,), 0.3), Gate("rx", (2,), 0.3)),
        "rz": (Gate("rz", (1,), -1.1), Gate("rz", (3,), -1.1)),
        "rzz": (Gate("rzz", (0, 1), -math.pi / 2), Gate("rzz", (2, 3), -math.pi / 2)),
        "cz": (Gate("cz", (1, 0)), Gate("cz", (3, 2))),
        "cx": (Gate("cx", (0, 1)), Gate("cx", (2, 3))),
        "rot": (
            Gate("rot", (0, 1), 0.7, "ZX"),
            Gate("rot", (2, 3), 0.7, "ZX"),
        ),
    }

    @staticmethod
    def random_state(kind):
        rng = np.random.default_rng(1200)
        tensors = {}
        for i in range(4):
            if kind == "peps":
                data = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                tensors[i] = Tensor(data, (f"p{i}",))
            else:
                tensors[i] = Tensor(rng.standard_normal(4), (f"a{i}",))
        return EvolvingState(kind, 4, tensors)

    @staticmethod
    def fresh_arrays(kind, gate):
        mat = gate_matrix(gate)
        if kind == "pepo":
            mat = tn._pauli_transfer(mat)
        return (mat,) if len(gate.qubits) == 1 else tn._split_two_site(mat)

    @pytest.mark.parametrize("kind", ["peps", "pepo"])
    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_memo_is_reused_read_only_and_bit_identical(self, kind, name):
        first, second = self.PAIRS[name]
        assert gate_matrix(first).tobytes() == gate_matrix(second).tobytes()
        state = self.random_state(kind)
        apply_layer(state, Layer((first,)))
        (arrays,) = state._gates.values()
        fresh = self.fresh_arrays(kind, first)
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in fresh]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0
        apply_layer(state, Layer((second,)))
        (again,) = state._gates.values()
        assert again is arrays
        # the second gate, absorbed from the memo, against a state that
        # builds it afresh
        alone = self.random_state(kind)
        apply_layer(alone, Layer((second,)))
        for q in second.qubits:
            assert state.tensors[q].data.tobytes() == alone.tensors[q].data.tobytes()
            assert state.tensors[q].data.shape == alone.tensors[q].data.shape
        # each gate still draws its own fresh labels: (new, new, bond) per
        # two-qubit gate, the new ones renamed to the physical labels
        prefix = "s" if kind == "peps" else "o"
        bonds = {l for t in state.tensors.values() for l in t.inds if l[0] == prefix}
        assert bonds == (set() if len(first.qubits) == 1 else {f"{prefix}2", f"{prefix}5"})

    @pytest.mark.parametrize("kind", ["peps", "pepo"])
    def test_memo_keeps_each_gate_check(self, kind):
        """The memo is keyed by the gate's description: axis letters in
        qubit order, so "ZX" and "XZ" on the same qubits are two gates, and
        an angle of -0.0 is not taken for 0.0."""
        state = self.random_state(kind)
        apply_layer(state, Layer((Gate("rot", (0, 1), 0.7, "ZX"),)))
        apply_layer(state, Layer((Gate("rot", (0, 1), 0.7, "XZ"),)))
        apply_layer(state, Layer((Gate("rot", (1, 0), 0.7, "XZ"),)))
        apply_layer(state, Layer((Gate("rx", (2,), 0.0),)))
        apply_layer(state, Layer((Gate("rx", (2,), -0.0),)))
        assert len(state._gates) == 4

    def test_states_keep_their_own_memo(self):
        gate = Gate("rzz", (0, 1), 0.4)
        psi, op = self.random_state("peps"), self.random_state("pepo")
        apply_layer(psi, Layer((gate,)))
        apply_layer(op, Layer((gate,)))
        ((key_psi, (left_psi, _)),) = psi._gates.items()
        ((key_op, (left_op, _)),) = op._gates.items()
        assert key_psi[0] == "peps" and key_op[0] == "pepo"
        assert left_psi.dtype == np.complex128 and left_op.dtype == np.float64
        assert self.random_state("peps")._gates == {}


class TestEvolve:
    def test_lossless_evolution_matches_statevector(self):
        n = 5
        circuit = kicked_ising(chain(n), steps=3, theta_h=0.9)
        psi = peps_zero(n)
        for group in circuit.steps():
            evolve(psi, group, chi=8, kappa=0.0, bp_options=BpOptions(tol=1e-12))
        got = state_vector_of(psi).reshape(-1)
        want = statevector(circuit)
        # compression at full rank only regauges; compare physical amplitudes
        np.testing.assert_allclose(got, want, atol=1e-9)
        norm, _ = state_norm(psi)
        assert np.isclose(norm, 1.0, atol=1e-9)
        assert max_bond(psi) <= 8
        assert all(len(ls) == 1 for ls in bond_graph(psi).edges.values())

    @pytest.mark.filterwarnings("error")
    def test_non_finite_tensor_raises_naming_the_step(self):
        """A NaN entry in a state's tensor (no gate can put one there) ends
        the step's two-norm BP on a NaN message, which has no projector:
        ``evolve`` raises, naming the step, instead of failing in the SVD
        or eigensolver of the projectors.  No numpy warning escapes."""
        psi = peps_zero(3)
        evolve(psi, [Layer((Gate("rx", (0,), 0.3),))], chi=2)
        psi.tensors[1] = Tensor(np.array([math.nan, 0.0], dtype=complex), ("p1",))
        layer = Layer((Gate("rzz", (0, 1), 0.3), Gate("rzz", (1, 2), 0.3)))
        with pytest.raises(ValueError, match="two-norm BP message is not finite at step 2"):
            evolve(psi, [layer], chi=2)

    def test_truncating_evolution_shrinks_norm(self):
        n = 8
        circuit = kicked_ising(ring(n), steps=4, theta_h=0.9)
        psi = peps_zero(n)
        for group in circuit.steps():
            evolve(psi, group, chi=2, kappa=0.0, bp_options=BpOptions(tol=1e-10))
        norm, _ = state_norm(psi)
        assert norm <= 1.0 + 1e-8
        assert norm < 0.999  # chi=2 at T=4 must actually discard weight
        assert max_bond(psi) <= 2
        assert any(dw > 0 for _, _, _, dw in psi.trunc_log)

    def test_pepo_evolution_norm_bounded(self):
        n = 6
        circuit = kicked_ising(chain(n), steps=3, theta_h=1.1)
        op = pepo_from_word(parse_pauli("Z2", n))
        for group in reversed(circuit.steps()):
            evolve(op, list(reversed(group)), chi=4, kappa=0.0)
            assert all(t.data.dtype == np.float64 for t in op.tensors.values())
        norm, ms = state_norm(op)
        assert norm <= 1.0 + 1e-8
        assert all(m.data.dtype == np.float64 for m in ms.messages.values())


class TestSandwich:
    def test_exact_sandwich_matches_statevector(self):
        n = 4
        theta = 1.05
        circuit = kicked_ising(chain(n), steps=2, theta_h=theta)
        groups = circuit.steps()
        psi = peps_zero(n)
        evolve(psi, groups[0], chi=16, kappa=0.0, bp_options=BpOptions(tol=1e-12))
        word = parse_pauli("Z1", n)
        op = pepo_from_word(word)
        for layer in groups[1]:
            apply_layer(psi, layer)
        sn = sandwich_network(psi, op)
        assert sn.dangling == ()
        got = exact_contract(sn)
        want = statevector_expectation(circuit, word)
        assert abs(got.real - want) < 1e-10
        assert abs(got.imag) < 1e-10

    def test_sandwich_requires_matching_kinds(self):
        psi = peps_zero(3)
        op = pepo_from_word(parse_pauli("Z0", 3))
        with pytest.raises(ValueError, match="peps state and a pepo"):
            sandwich_network(op, op)
        with pytest.raises(ValueError, match="sizes differ"):
            sandwich_network(psi, pepo_from_word(parse_pauli("Z0", 2)))


class TestOneNormPhase:
    @pytest.mark.parametrize("sweeps", [4, 31])
    def test_tied_lead_entries_do_not_flip_messages(self, sweeps):
        """RZZ(-pi/2) bonds carry exactly tied weights; picking the lead
        entry by plain argmax let rounding flip converged messages' sign
        from sweep to sweep (max_delta 2.0 at every sweep count)."""
        circuit = kicked_ising(ring(6), steps=2, theta_h=7 * math.pi / 32)
        psi = peps_zero(6)
        for layer in circuit.layers:
            apply_layer(psi, layer)
        sn = sandwich_network(psi, pepo_from_word(parse_pauli("Z0", 6)))
        ms = bp_iterate(sn, tol=0.0, max_iter=sweeps, mode="one-norm")
        assert ms.max_delta <= 1e-12


class TestRunTn:
    @pytest.mark.parametrize("method", ["peps", "pepo", "mix"])
    def test_matches_statevector_at_generous_chi(self, method):
        n = 6
        circuit = kicked_ising(ring(n), steps=2, theta_h=0.35)
        word = parse_pauli("Z0", n)
        res = run_tn(
            circuit, word, method, chi=16, kappa=0.0, bp_tol=1e-12, lightcone=False
        )
        want = statevector_expectation(circuit, word)
        assert abs(res.expectation - want) < 1e-8
        assert res.n_psi <= 1.0 + 1e-8
        assert res.n_o <= 1.0 + 1e-8
        assert np.isclose(res.n_mix, res.n_psi * res.n_o)
        assert res.method == method and res.chi == 16

    def test_step_split_bookkeeping(self):
        n = 6
        circuit = kicked_ising(chain(n), steps=6, theta_h=0.2)
        word = parse_pauli("Z3", n)
        peps = run_tn(
            circuit, word, "peps", chi=4, bp_tol=1e-4, bp_max_iter=40, lightcone=False
        )
        assert (peps.tau, peps.op_steps, peps.lazy_steps) == (4, 0, 2)
        pepo = run_tn(
            circuit, word, "pepo", chi=4, bp_tol=1e-4, bp_max_iter=40, lightcone=False
        )
        assert (pepo.tau, pepo.op_steps, pepo.lazy_steps) == (0, 5, 1)
        mix = run_tn(
            circuit, word, "mix", chi=4, bp_tol=1e-4, bp_max_iter=40, lightcone=False
        )
        assert (mix.tau, mix.op_steps, mix.lazy_steps) == (3, 3, 0)

    def test_pepo_lazy_depth_scales_with_chi(self):
        n = 4
        circuit = kicked_ising(chain(n), steps=3, theta_h=0.2)
        word = parse_pauli("Z1", n)
        res1 = run_tn(circuit, word, "pepo", chi=1, bp_tol=1e-4, lightcone=False)
        assert res1.lazy_steps == 0
        res4 = run_tn(circuit, word, "pepo", chi=4, bp_tol=1e-4, lightcone=False)
        assert res4.lazy_steps == 1
        res16 = run_tn(circuit, word, "pepo", chi=16, bp_tol=1e-4, lightcone=False)
        assert res16.lazy_steps == 2

    def test_observable_coefficient_scales(self):
        n = 4
        circuit = kicked_ising(chain(n), steps=2, theta_h=0.5)
        base = run_tn(
            circuit, parse_pauli("Z1", n), "mix", chi=8, bp_tol=1e-10, lightcone=False
        )
        scaled = run_tn(
            circuit,
            PauliSum.from_terms(n, [("Z1", 2.5)]),
            "mix",
            chi=8,
            bp_tol=1e-10,
            lightcone=False,
        )
        assert np.isclose(scaled.expectation, 2.5 * base.expectation, atol=1e-9)

    def test_lightcone_option_preserves_value(self):
        n = 8
        circuit = kicked_ising(chain(n), steps=2, theta_h=0.7)
        word = parse_pauli("Z0", n)
        full = run_tn(
            circuit, word, "mix", chi=16, kappa=0.0, bp_tol=1e-12, lightcone=False
        )
        cone = run_tn(circuit, word, "mix", chi=16, kappa=0.0, bp_tol=1e-12)
        assert abs(full.expectation - cone.expectation) < 1e-8

    def test_validation_errors(self):
        n = 3
        circuit = kicked_ising(chain(n), steps=1, theta_h=0.3)
        word = parse_pauli("Z0", n)
        with pytest.raises(ValueError, match="unknown method"):
            run_tn(circuit, word, "mps", chi=4)
        with pytest.raises(ValueError, match="chi"):
            run_tn(circuit, word, "mix", chi=0)
        for kappa in (-1, math.nan, math.inf):
            with pytest.raises(ValueError, match="kappa must be >= 0"):
                run_tn(circuit, word, "mix", chi=4, kappa=kappa)
        with pytest.raises(ValueError, match="single Pauli word"):
            run_tn(
                circuit,
                PauliSum.from_terms(n, [("Z0", 1.0), ("X1", 1.0)]),
                "mix",
                chi=4,
            )
        with pytest.raises(ValueError, match="real"):
            run_tn(circuit, PauliSum.from_terms(n, [("Z0", 1.0j)]), "mix", chi=4)
        with pytest.raises(ValueError, match="sizes differ"):
            run_tn(circuit, parse_pauli("Z0", n + 1), "mix", chi=4)
        with pytest.raises(TypeError):
            run_tn(circuit, "Z0", "mix", chi=4)

    @pytest.mark.parametrize(
        "kind, message",
        [("peps", "state norm proxy 1.5 exceeds 1"), ("pepo", "operator norm proxy 1.5 exceeds 1")],
    )
    def test_norm_proxy_above_one_raises(self, monkeypatch, kind, message):
        """Explicit raises, so ``python -O`` keeps the check."""

        def inflated(state, opts=None):
            value, ms = state_norm(state, opts)
            return (1.5 if state.kind == kind else value), ms

        monkeypatch.setattr(tn, "state_norm", inflated)
        circuit = kicked_ising(chain(3), steps=1, theta_h=0.3)
        with pytest.raises(AssertionError, match=message):
            run_tn(circuit, parse_pauli("Z0", 3), "mix", chi=4)

    def test_nonconvergence_is_flagged_not_raised(self):
        n = 12
        circuit = kicked_ising(ring(n), steps=4, theta_h=1.2)
        word = parse_pauli("Z0", n)
        res = run_tn(
            circuit, word, "mix", chi=2, bp_tol=1e-14, bp_max_iter=2, lightcone=False
        )
        assert res.flags
        assert not res.converged
        assert any("nonconverged" in f for f in res.flags)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method, steps", [("mix", 2), ("peps", 3), ("pepo", 3)])
    def test_nan_compressing_step_raises(self, monkeypatch, method, steps):
        """A non-finite kick matrix (no ``Gate`` can build one, so it is
        patched in) that reaches a compressing step ends its two-norm BP on
        a NaN message; ``run_tn`` stops there, raising with the step named,
        instead of failing in the SVD or eigensolver of the projectors or
        returning a NaN row.  No numpy warning escapes."""
        real_matrix = tn.gate_matrix

        def nan_kick(gate):
            mat = real_matrix(gate)
            return np.full_like(mat, math.nan) if gate.name == "rx" else mat

        monkeypatch.setattr(tn, "gate_matrix", nan_kick)
        circuit = kicked_ising(chain(3), steps=steps, theta_h=0.3)
        with pytest.raises(ValueError, match="two-norm BP message is not finite at step 1"):
            run_tn(circuit, parse_pauli("Z1", 3), method, chi=2)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf])
    def test_infinite_kick_raises_naming_the_angle(self, theta):
        """An infinite kick has no gate; ``math.cos`` used to fail on it
        with a bare "math domain error", both here and in the statevector
        referee.  The circuit now refuses it before any engine runs."""
        with pytest.raises(ValueError, match=f"rotation angle must be finite, got {theta!r}"):
            kicked_ising(chain(3), steps=2, theta_h=theta)


class TestBitPins:
    """The ``tn_mix_ladder`` instance (T = 5 device light cone, k = 7,
    ``mix`` at chi 2, 4, 8), pinned to the last bit of the value and both
    norm proxies.  An intended change in the last bits is re-baselined here
    and stated in CHANGES.md."""

    PINS = {
        2: ("0x1.2832c1edc4612p-1", "0x1.c924575050f14p-1", "0x1.0000000000003p+0"),
        4: ("0x1.4e6ea3982fe1bp-1", "0x1.fd67926a85992p-1", "0x1.0000000000003p+0"),
        8: ("0x1.4fa5f5cedeb0ap-1", "0x1.fffffffffff22p-1", "0x1.0000000000003p+0"),
    }

    def test_mix_ladder_bits(self):
        circuit = kicked_ising(device_127(), steps=5, theta_h=7 * math.pi / 32)
        got = {}
        for chi in self.PINS:
            res = run_tn(circuit, parse_pauli("Z62", 127), "mix", chi=chi)
            got[chi] = (res.expectation.hex(), res.n_psi.hex(), res.n_o.hex())
        assert got == self.PINS


def device_t5():
    return kicked_ising(device_127(), steps=5, theta_h=7 * math.pi / 32)


def held_sites(monkeypatch):
    """Record, per ``sandwich_network`` call, the sites each side holds."""
    held = []

    def recording(psi, op):
        held.append((sorted(psi.tensors), sorted(op.tensors)))
        return sandwich_network(psi, op)

    monkeypatch.setattr(tn, "sandwich_network", recording)
    return held


class TestHeldSites:
    """``run_tn`` holds in each state only the sites its own gates touch
    (plus, for the operator, the observable's support).  The driver on all
    n sites, ``tn_reference.run_tn_full_sites``, must give the same bits:
    an untouched site contributes exactly 1, and BP's schedule depends only
    on the bonds."""

    @staticmethod
    def padded(n_extra):
        """A T = 2 kicked-Ising chain of 4 sites inside a register of
        4 + n_extra, so that no gate touches the last sites."""
        inner = kicked_ising(chain(4), steps=2, theta_h=0.6)
        return Circuit(4 + n_extra, inner.layers)

    CASES = [
        ("device_t5", device_t5, "Z62", {}),
        *[
            (f"{name}_t{steps}", lambda lat=lat, steps=steps: kicked_ising(lat(), steps, 0.7), obs, {})
            for name, lat, obs in (
                ("heavy_hex", lambda: heavy_hex(1, 1), "Z3"),
                ("grid", lambda: grid(3, 4), "Z5"),
            )
            for steps in (2, 3, 4)
        ],
        ("grid_t3_full", lambda: kicked_ising(grid(3, 4), 3, 0.4), "Z5", {"lightcone": False}),
        ("heavy_hex_t3_full", lambda: kicked_ising(heavy_hex(1, 1), 3, 0.7), "Z3", {"lightcone": False}),
        ("x_untouched", lambda: TestHeldSites.padded(2), "Z1 X5", {}),
        ("z_untouched", lambda: TestHeldSites.padded(2), "Z1 Z5", {"lightcone": False}),
    ]

    @pytest.mark.parametrize("chi", [2, 4])
    @pytest.mark.parametrize("method", ["peps", "pepo", "mix"])
    @pytest.mark.parametrize("name, build, obs, kwargs", CASES, ids=[c[0] for c in CASES])
    def test_matches_full_sites_bits(self, name, build, obs, kwargs, method, chi):
        circuit = build()
        word = parse_pauli(obs, circuit.n)
        got = run_tn(circuit, word, method, chi=chi, **kwargs)
        want = ref.run_tn_full_sites(circuit, word, method, chi, **kwargs)
        assert [getattr(got, key) for key in want] == list(want.values())
        assert got.expectation.hex() == want["expectation"].hex()
        assert got.n_psi.hex() == want["n_psi"].hex()
        assert got.n_o.hex() == want["n_o"].hex()
        if name == "x_untouched":
            assert got.expectation == 0.0

    def test_mix_ladder_holds_its_cones(self, monkeypatch):
        """T = 5, Z62: the state's three steps touch 31 of the 127 sites,
        the operator's two steps 7."""
        held = held_sites(monkeypatch)
        run_tn(device_t5(), parse_pauli("Z62", 127), "mix", chi=2)
        ((psi, op),) = held
        assert (len(psi), len(op)) == (31, 7)
        assert 62 in op and set(op) <= set(psi)

    def test_pepo_at_chi_two_holds_no_state_site(self, monkeypatch):
        held = held_sites(monkeypatch)
        res = run_tn(device_t5(), parse_pauli("Z62", 127), "pepo", chi=2)
        ((psi, op),) = held
        assert res.lazy_steps == 0
        assert psi == [] and len(op) == 31

    def test_untouched_site_is_its_blank_factor(self):
        psi = EvolvingState("peps", 3, {})
        op = EvolvingState("pepo", 3, {})
        assert psi.site(1).inds == ("p1",) and psi.site(1).data.tolist() == [1.0, 0.0]
        assert op.site(2).inds == ("a2",) and op.site(2).data.tolist() == [1.0, 0.0, 0.0, 0.0]
        apply_layer(psi, Layer((Gate("rx", (1,), 0.3),)))
        assert sorted(psi.tensors) == [1]
        assert np.allclose(psi.tensors[1].data, gate_matrix(Gate("rx", (1,), 0.3))[:, 0])


class TestTraceHooks:
    def test_run_tn_calls_layers_through_module_names(self, monkeypatch):
        """A tracer wraps ``bp_iterate``, ``compress_bond``, ``l1bp_value``
        and ``contract`` where ``spdtn.tn`` looks them up, ``contract`` also
        where ``spdtn.bp`` does, and reads the BP mode from the keyword
        arguments; a truncating ``mix`` run must cross every one of them."""
        from spdtn import bp

        calls: dict[str, list] = {}

        def counting(module, name):
            inner = getattr(module, name)
            key = f"{module.__name__}.{name}"
            calls[key] = []

            def wrapper(*args, **kwargs):
                calls[key].append(kwargs.get("mode"))
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("bp_iterate", "compress_bond", "l1bp_value", "contract"):
            counting(tn, name)
        counting(bp, "contract")
        n = 6
        circuit = kicked_ising(chain(n), steps=3, theta_h=0.35)
        res = run_tn(
            circuit, parse_pauli("Z2", n), "mix", chi=2, bp_tol=1e-6, lightcone=False
        )
        assert math.isfinite(res.expectation)
        assert all(calls.values()), {key: len(c) for key, c in calls.items()}
        modes = set(calls["spdtn.tn.bp_iterate"])
        assert modes == {"two-norm", "one-norm"}

    def test_light_cone_networks_converge_in_two_sweeps(self, monkeypatch):
        """At T = 5 the light cone of Z62 on the 127-site device holds no
        loop, so every BP call of a ``mix`` run, each two-norm compression
        and norm and the one-norm sandwich, sees a tree and converges in
        two sweeps."""
        from spdtn import bp

        results, modes = [], set()

        def counting(*args, **kwargs):
            modes.add(kwargs.get("mode"))
            results.append(bp.bp_iterate(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(tn, "bp_iterate", counting)
        circuit = kicked_ising(device_127(), steps=5, theta_h=7 * math.pi / 32)
        res = run_tn(circuit, parse_pauli("Z62", 127), "mix", chi=4)
        assert not res.flags
        assert modes == {"two-norm", "one-norm"}
        assert all(ms.converged for ms in results)
        assert [ms.iterations for ms in results] == [2] * len(results)
