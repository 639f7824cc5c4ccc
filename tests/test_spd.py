"""Sparse Pauli dynamics against dense Heisenberg evolution."""

import dataclasses
import math

import numpy as np
import pytest

from spdtn import (
    Circuit,
    Gate,
    Layer,
    PauliSum,
    PauliWord,
    SpdCapacityError,
    apply_rotation,
    chain,
    device_127,
    heavy_hex,
    kicked_ising,
    lightcone_prune,
    parse_pauli,
    recompile,
    ring,
    run_spd,
    run_tn,
)
from spdtn import spd
from spdtn.oracle import (
    clifford_expectation,
    heisenberg_dense_expectation,
    statevector_expectation,
)
from spdtn.spd import DEFAULT_MAX_TERMS, MAX_TERMS_ENV, _resolve_cap

import spd_reference as ref
from conftest import dense_word, mixed_gate, random_circuit, random_word


def dense_sum(s: PauliSum) -> np.ndarray:
    out = np.zeros((2**s.n, 2**s.n), dtype=complex)
    for word, coeff in s.terms():
        out += coeff * dense_word(word)
    return out


def dense_rotate(mat: np.ndarray, axis: PauliWord, theta: float) -> np.ndarray:
    """Heisenberg image U_adj O U for U = exp(-i theta axis / 2), dense."""
    w = dense_word(axis)
    u = math.cos(theta / 2) * np.eye(w.shape[0]) - 1j * math.sin(theta / 2) * w
    return u.conj().T @ mat @ u


class TestPauliSum:
    def test_from_terms_sorts_and_merges(self):
        s = PauliSum.from_terms(
            3,
            [
                ("Z2", 1.0),
                ("X0", 2.0),
                ("Z2", 0.5),
                ("Y1", -0.25),
            ],
        )
        assert s.num_terms == 3
        s.validate()
        assert np.isclose(s.coefficient("Z2"), 1.5)
        assert np.isclose(s.coefficient("X0"), 2.0)
        assert np.isclose(s.coefficient("Y1"), -0.25)
        assert s.coefficient("Z0") == 0.0

    def test_empty_sum(self):
        s = PauliSum.from_terms(2, [])
        assert s.num_terms == 0
        assert s.expectation() == 0.0
        assert s.frobenius_norm() == 0.0

    def test_mismatched_sites_raise(self):
        with pytest.raises(ValueError):
            PauliSum.from_terms(2, [(parse_pauli("Z0", 3), 1.0)])

    def test_expectation_is_z_type_coefficient_sum(self, rng):
        n = 4
        terms = [(random_word(rng, n), complex(rng.standard_normal())) for _ in range(20)]
        s = PauliSum.from_terms(n, terms)
        zero = np.zeros(2**n, dtype=complex)
        zero[0] = 1.0
        expected = np.real(zero @ dense_sum(s) @ zero)
        assert np.isclose(s.expectation(), expected, atol=1e-12)

    def test_expectation_rejects_imaginary_residue(self):
        with pytest.raises(ValueError, match="imaginary"):
            PauliSum.from_terms(2, [("Z0", 1.0j)])

    def test_coefficients_are_real(self):
        s = PauliSum.from_terms(2, [("Z0", 1.0 + 0.0j), ("X1", 2)])
        assert s.coeffs.dtype == np.float64
        assert type(s.coefficient("Z0")) is float
        assert type(s.coefficient("Z1")) is float
        assert all(type(c) is float for _, c in s.terms())
        with pytest.raises(ValueError, match="imaginary.*real"):
            PauliSum(2, s.words, s.coeffs + 1e-300j)

    def test_coefficient_rejects_a_word_of_another_size(self):
        s = PauliSum.from_terms(4, [("Z1", 0.5)])
        assert s.coefficient(parse_pauli("Z1", 4)) == 0.5
        for n in (3, 60, 70):
            with pytest.raises(ValueError, match=f"word on {n} sites, sum on 4"):
                s.coefficient(parse_pauli("Z1", n))

    def test_frobenius_norm_matches_dense(self, rng):
        n = 3
        terms = [(random_word(rng, n), complex(rng.standard_normal())) for _ in range(8)]
        s = PauliSum.from_terms(n, terms)
        mat = dense_sum(s)
        dense_norm = math.sqrt(abs(np.trace(mat.conj().T @ mat)) / 2**n)
        assert np.isclose(s.frobenius_norm(), dense_norm, atol=1e-12)

    def test_truncate(self):
        s = PauliSum.from_terms(2, [("Z0", 1.0), ("X1", 0.01), ("Y0 Y1", -0.5)])
        t = s.truncate(0.1)
        assert t.num_terms == 2
        assert t.coefficient("X1") == 0.0
        assert s.truncate(0.0) is s
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="delta must be >= 0"):
                s.truncate(bad)


class TestObservableOf:
    def test_word_becomes_one_term_sum(self):
        word = parse_pauli("X0 Z2", 3)
        s = PauliSum.of(word, 3)
        assert s.n == 3
        assert [(w.row.tobytes(), c) for w, c in s.terms()] == [(word.row.tobytes(), 1.0)]

    def test_sum_taken_as_it_is(self):
        s = PauliSum.from_terms(3, [("Z0", 0.5), ("X1 Y2", -0.25)])
        assert PauliSum.of(s, 3) is s

    def test_other_type_raises(self):
        for observable in ("Z0", None, [("Z0", 1.0)]):
            with pytest.raises(TypeError, match="unsupported observable type"):
                PauliSum.of(observable, 3)


SIX_SITES = kicked_ising(chain(6), 2, 0.3)
SIX_SITES_CLIFFORD = kicked_ising(chain(6), 2, math.pi / 2)
ENGINES = {
    "recompile": lambda obs: recompile(SIX_SITES, obs),
    "run_tn": lambda obs: run_tn(SIX_SITES, obs, "mix", chi=4),
    "statevector": lambda obs: statevector_expectation(SIX_SITES, obs),
    "heisenberg_dense": lambda obs: heisenberg_dense_expectation(SIX_SITES, obs),
    "clifford": lambda obs: clifford_expectation(SIX_SITES_CLIFFORD, obs),
}


class TestObservableSizeEveryEngine:
    """Every engine takes its observable through ``PauliSum.of``."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sum_on_more_sites_raises(self, engine):
        # recompile once read Z65 on 70 sites as X1 on these 6
        observable = PauliSum.from_terms(70, [("Z65", 1.0)])
        with pytest.raises(ValueError, match="observable and circuit sizes differ: 70 != 6"):
            ENGINES[engine](observable)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n", [5, 7])
    def test_word_on_other_sites_raises(self, engine, n):
        with pytest.raises(ValueError, match=f"observable and circuit sizes differ: {n} != 6"):
            ENGINES[engine](parse_pauli("Z1", n))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_text_raises(self, engine):
        with pytest.raises(TypeError, match="unsupported observable type str"):
            ENGINES[engine]("Z1")


class TestApplyRotation:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_heisenberg(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = 3
        terms = [(random_word(rng, n), complex(rng.standard_normal())) for _ in range(6)]
        s = PauliSum.from_terms(n, terms)
        expected = dense_sum(s)
        for _ in range(5):
            axis = random_word(rng, n, p=0.5)
            if axis.weight == 0:
                continue
            theta = float(rng.uniform(-math.pi, math.pi))
            s = apply_rotation(s, axis, theta)
            s.validate()
            expected = dense_rotate(expected, axis, theta)
        np.testing.assert_allclose(dense_sum(s), expected, atol=1e-10)

    def test_norm_is_conserved_without_truncation(self, rng):
        n = 5
        s = PauliSum.from_terms(n, [("Z0 Z3", 0.7), ("X1", -0.2), ("Y2 Z4", 1.1)])
        norm = s.frobenius_norm()
        for _ in range(30):
            axis = random_word(rng, n, p=0.3)
            if axis.weight == 0:
                continue
            s = apply_rotation(s, axis, float(rng.uniform(-3, 3)))
        assert np.isclose(s.frobenius_norm(), norm, atol=1e-12)

    def test_commuting_axis_is_identity(self):
        s = PauliSum.from_terms(3, [("Z0", 1.0), ("Z1 Z2", 0.5)])
        out = apply_rotation(s, parse_pauli("Z0 Z1", 3), 0.7)
        assert out is s

    def test_half_turn_flips_sign(self):
        s = PauliSum.from_terms(2, [("Z0", 1.0), ("X1", 0.5)])
        # float pi is not exact, so a tiny threshold absorbs sin(pi) ~ 1e-16
        out = apply_rotation(s, parse_pauli("X0", 2), math.pi, delta=1e-9)
        assert out.num_terms == 2
        assert np.isclose(out.coefficient("Z0"), -1.0)
        assert np.isclose(out.coefficient("X1"), 0.5)

    def test_delta_zero_keeps_exact_zeros(self):
        s = PauliSum.from_terms(2, [("Z0", 1.0)])
        out = apply_rotation(s, parse_pauli("X0", 2), math.pi)
        assert out.num_terms == 2  # epsilon-weight Y0 survives at delta = 0

    def test_truncation_drops_damped_and_small_new_terms(self):
        s = PauliSum.from_terms(2, [("Z0", 1.0)])
        theta = 0.1  # sin ~ 0.0998 < delta
        out = apply_rotation(s, parse_pauli("X0", 2), theta, delta=0.2)
        assert out.num_terms == 1
        assert np.isclose(out.coefficient("Z0"), math.cos(theta))
        out2 = apply_rotation(s, parse_pauli("X0", 2), math.pi / 2 - 0.01, delta=0.2)
        assert out2.num_terms == 1
        assert out2.coefficient("Z0") == 0.0

    def test_merge_with_collision(self):
        """New products partly collide with resident terms."""
        s = PauliSum.from_terms(2, [("Z0", 1.0), ("Y0", 0.5)])
        theta = 0.3
        out = apply_rotation(s, parse_pauli("X0", 2), theta)
        out.validate()
        # Z0 -> cos Z0 + sin Y0 ; Y0 -> cos Y0 - sin Z0
        assert np.isclose(out.coefficient("Z0"), math.cos(theta) - 0.5 * math.sin(theta))
        assert np.isclose(out.coefficient("Y0"), 0.5 * math.cos(theta) + math.sin(theta))
        assert out.num_terms == 2

    def test_axis_size_mismatch(self):
        s = PauliSum.from_terms(2, [("Z0", 1.0)])
        with pytest.raises(ValueError):
            apply_rotation(s, parse_pauli("X0", 3), 0.3)


class TestCapacity:
    def test_capacity_error(self):
        s = PauliSum.from_terms(4, [("Z0", 1.0)])
        with pytest.raises(SpdCapacityError) as err:
            apply_rotation(s, parse_pauli("X0 X1", 4), 0.3, max_terms=1)
        assert err.value.needed == 2
        assert err.value.cap == 1
        assert MAX_TERMS_ENV in str(err.value)

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv(MAX_TERMS_ENV, "1")
        s = PauliSum.from_terms(4, [("Z0", 1.0)])
        with pytest.raises(SpdCapacityError):
            apply_rotation(s, parse_pauli("X0 X1", 4), 0.3)
        # explicit argument wins over the environment
        out = apply_rotation(s, parse_pauli("X0 X1", 4), 0.3, max_terms=10)
        assert out.num_terms == 2

    def test_resolve_cap(self, monkeypatch):
        monkeypatch.delenv(MAX_TERMS_ENV, raising=False)
        assert _resolve_cap(None) == DEFAULT_MAX_TERMS
        assert _resolve_cap(7) == 7
        monkeypatch.setenv(MAX_TERMS_ENV, "123")
        assert _resolve_cap(None) == 123
        for bad in ("lots", "0", "-3"):
            monkeypatch.setenv(MAX_TERMS_ENV, bad)
            with pytest.raises(ValueError, match=MAX_TERMS_ENV):
                _resolve_cap(None)


class TestRunSpd:
    @pytest.mark.parametrize("seed", range(6))
    def test_lossless_matches_statevector(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(2, 6))
        circuit = random_circuit(rng, n, depth=20)
        obs = PauliSum.from_terms(
            n, [(random_word(rng, n), complex(rng.standard_normal())) for _ in range(3)]
        )
        rc = recompile(circuit, obs)
        res = run_spd(rc, delta=0.0)
        expected = statevector_expectation(circuit, obs)
        assert abs(res.expectation - expected) < 1e-10

    def test_result_counters(self, rng):
        n = 3
        circuit = random_circuit(rng, n, depth=25)
        rc = recompile(circuit, parse_pauli("Z0", n))
        res = run_spd(rc, delta=0.0)
        assert res.num_rotations == len(rc.rotations)
        assert res.peak_terms >= res.final_terms >= 1
        assert res.wall_time_s >= 0.0
        assert res.norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("delta", [-1e-3, math.nan])
    def test_bad_delta_raises(self, delta):
        """A NaN threshold fails ``|a| >= delta`` for every term, so it would
        silently drop the whole sum; it is rejected like a negative one."""
        s = PauliSum.from_terms(2, [("Z0", 1.0)])
        with pytest.raises(ValueError, match="delta must be >= 0"):
            apply_rotation(s, parse_pauli("X0", 2), 0.3, delta)
        rc = recompile(random_circuit(np.random.default_rng(8), 3, depth=10), parse_pauli("Z0", 3))
        with pytest.raises(ValueError, match="delta must be >= 0"):
            run_spd(rc, delta)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_raises(self, theta):
        """At a NaN angle every anticommuting term would turn NaN and fail
        ``|a| >= delta``, leaving a finite sum without them ({Z0: 1, Z1:
        0.5} -> {Z1: 0.5}); an infinite one also warns.  Both are rejected,
        even where no term anticommutes."""
        s = PauliSum.from_terms(3, [("Z0", 1.0), ("Z1", 0.5)])
        for axis in ("X0", "Z2"):
            with pytest.raises(ValueError, match=f"rotation angle must be finite, got {theta!r}"):
                apply_rotation(s, parse_pauli(axis, 3), theta)

    def test_stops_once_the_sum_is_empty(self, monkeypatch):
        """At a large threshold truncation empties the sum partway through;
        ``run_spd`` calls no rotation after that, one call per rotation that
        meets the reach before it, and its result matches applying every
        rotation."""
        circuit = random_circuit(np.random.default_rng(1), 4, depth=40)
        rc = recompile(circuit, parse_pauli("Z0", 4))
        delta = 0.3
        met, sums = _meeting_reach(rc, delta)
        sizes = [rc.transformed_observable.truncate(delta).num_terms]
        sizes += [s.num_terms for s in sums]
        emptied = sizes.index(0)
        assert 1 < emptied < len(rc.rotations)
        s = sums[-1]

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].num_terms)
            return apply_rotation(*args, **kwargs)

        monkeypatch.setattr(spd, "apply_rotation", counting)
        res = run_spd(rc, delta)
        assert len(calls) == sum(pos < emptied for pos in met) and all(calls)
        assert (res.expectation, res.norm) == (s.expectation(), s.frobenius_norm())
        assert (res.peak_terms, res.final_terms) == (max(sizes), 0)
        assert res.num_rotations == len(rc.rotations)

    def test_truncation_reduces_terms(self):
        rng = np.random.default_rng(7)
        n = 6
        circuit = random_circuit(rng, n, depth=60)
        rc = recompile(circuit, parse_pauli("Z0", n))
        exact = run_spd(rc, delta=0.0)
        coarse = run_spd(rc, delta=0.05)
        assert coarse.peak_terms <= exact.peak_terms
        assert coarse.norm <= exact.norm + 1e-12
        assert abs(coarse.expectation - exact.expectation) < 0.5


def _meeting_reach(rc, delta: float) -> tuple[list[int], list[PauliSum]]:
    """The Heisenberg-order positions of the rotations whose axis sites meet
    the reach: the truncated observable's sites, grown by the axis sites of
    each rotation that some held term anticommutes with.  Also the sum after
    each rotation.  Every term is carried, with the reference kernels."""
    s = rc.transformed_observable.truncate(delta)
    reach = {j for word, _ in s.terms() for j in word.support()}
    met, sums = [], []
    for pos, rot in enumerate(reversed(rc.rotations)):
        sites = set(rot.axis.support())
        if sites & reach:
            met.append(pos)
        if ref.anticommute_mask(s.words, rot.axis.row).any():
            reach |= sites
        s = ref.apply_rotation(s, rot.axis, rot.angle, delta)
        sums.append(s)
    return met, sums


def _every_rotation(rc, delta: float) -> tuple[PauliSum, int]:
    """The slow reference of ``run_spd``: ``apply_rotation`` over every
    rotation, every term carried to the end; the final sum and the peak."""
    s = rc.transformed_observable.truncate(delta)
    peak = s.num_terms
    for rot in reversed(rc.rotations):
        s = apply_rotation(s, rot.axis, rot.angle, delta)
        peak = max(peak, s.num_terms)
    return s, peak


_LATTICES = {
    "chain": lambda: chain(6),
    "ring": lambda: ring(6),
    "heavy_hex": lambda: heavy_hex(1, 1),
}


class TestReadableTerms:
    """Through the first RX layer ``run_spd`` carries only the terms that can
    still read out nonzero; against the reference that carries them all."""

    def _check(self, monkeypatch, rc, delta: float) -> None:
        """Both drops are recorded: the full one before the run and the
        one-bit one after a run rotation, so that ``kept[-1]`` is the sum
        after the last drop."""
        kept = []

        def recording(drop):
            def inner(*args):
                out = drop(*args)
                kept.append(out[0])
                return out

            return inner

        for name in ("_drop_unreadable", "_drop_site"):
            monkeypatch.setattr(spd, name, recording(getattr(spd, name)))
        res = run_spd(rc, delta)
        want, peak = _every_rotation(rc, delta)
        readable = want.z_type_mask()
        assert kept
        assert res.expectation == want.expectation()
        assert res.peak_terms <= peak
        assert res.final_terms == int(readable.sum())
        if res.final_terms:
            # the sum ran to the end, and the last drop came after its last rotation
            final = kept[-1]
            assert final.z_type_mask().all()
            assert np.array_equal(final.words, want.words[readable])
            assert final.coeffs.tobytes() == want.coeffs[readable].tobytes()
        if delta == 0.0:
            assert abs(res.norm - want.frobenius_norm()) <= 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-2])
    @pytest.mark.parametrize("steps", [1, 2, 3, 4])
    @pytest.mark.parametrize("lattice", sorted(_LATTICES))
    def test_kicked_ising_matches_every_rotation(self, monkeypatch, lattice, steps, delta, sign):
        lat = _LATTICES[lattice]()
        word = parse_pauli("Z1", lat.n)
        circuit = kicked_ising(lat, steps, sign * 7 * math.pi / 32)
        rc = recompile(lightcone_prune(circuit, word.support()), word)
        self._check(monkeypatch, rc, delta)

    @pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-2])
    def test_two_rx_gates_on_one_site(self, monkeypatch, delta):
        """Site 0 is turned twice in the leading run: its Y terms are kept
        through the first of them (in Heisenberg order) and dropped only
        after the second."""
        n = 3
        layers = [
            Layer((Gate("rx", (0,), 0.3), Gate("rx", (1,), -0.5))),
            Layer((Gate("rx", (0,), 0.6),)),
            Layer((Gate("rzz", (0, 1), 0.4), Gate("rx", (2,), 0.2))),
            Layer((Gate("rzz", (1, 2), -math.pi / 2),)),
            Layer(tuple(Gate("rx", (q,), 0.7) for q in range(n))),
            Layer((Gate("rzz", (0, 2), 0.25),)),
        ]
        circuit = Circuit(n, tuple(layers))
        obs = PauliSum.from_terms(n, [("Z0 Z1", 0.6), ("Y1 Z2", 0.5), ("X0", 0.3), ("Z2", 0.2)])
        rc = recompile(circuit, obs)
        run = [str(rot.axis) for rot in rc.rotations[:4]]
        assert run[:3] == ["X0", "X1", "X0"] and run[3] != "X2"
        self._check(monkeypatch, rc, delta)
        if delta == 0.0:
            got = run_spd(rc, delta).expectation
            assert got == pytest.approx(statevector_expectation(circuit, obs), abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_no_leading_rx_layer_is_the_reference(self, monkeypatch, delta):
        """A circuit whose first rotation is not a single-site X word drops
        nothing: every field equals the reference's, the norm too."""
        n = 4
        rc = recompile(random_circuit(np.random.default_rng(2), n, depth=30), parse_pauli("Z0", n))
        assert str(rc.rotations[0].axis) not in {f"X{q}" for q in range(n)}
        monkeypatch.setattr(spd, "_drop_unreadable", None)  # never called
        monkeypatch.setattr(spd, "_drop_site", None)
        res = run_spd(rc, delta)
        want, peak = _every_rotation(rc, delta)
        assert dataclasses.replace(res, wall_time_s=0.0) == spd.SpdResult(
            expectation=want.expectation(),
            norm=want.frobenius_norm(),
            peak_terms=peak,
            final_terms=want.num_terms,
            num_rotations=len(rc.rotations),
            wall_time_s=0.0,
        )

    def test_device_t6_lossless_matches_mix(self):
        """T = 6 at delta = 0 on the 127-site device: the first RX layer
        would take 56M terms carrying every term, above the default cap;
        carrying only readable ones it agrees with lossless mix at chi 8."""
        lat = device_127()
        word = parse_pauli("Z62", lat.n)
        circuit = kicked_ising(lat, 6, 7 * math.pi / 32)
        res = run_spd(recompile(lightcone_prune(circuit, word.support()), word), delta=0.0)
        mix = run_tn(circuit, word, method="mix", chi=8)
        assert abs(res.expectation - mix.expectation) < 1e-10
        assert abs(mix.n_psi - 1.0) < 1e-9 and abs(mix.n_o - 1.0) < 1e-9
        assert abs(res.norm - 1.0) < 1e-12


class TestReach:
    """``run_spd`` calls no rotation whose axis sites miss the reach, the
    sites a held term may touch: such a rotation commutes with every term.
    Every field of the result, the bits of ``norm`` included, is that of
    the every-rotation reference."""

    @staticmethod
    def _calls(monkeypatch) -> list:
        calls = []
        inner = spd.apply_rotation

        def counting(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(spd, "apply_rotation", counting)
        return calls

    @staticmethod
    def _bits(res) -> tuple:
        return (res.expectation.hex(), res.norm.hex(), res.peak_terms, res.final_terms,
                res.num_rotations)

    @pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-2])
    @pytest.mark.parametrize("n", [10, 65, 130])
    def test_random_circuits_match_every_rotation(self, monkeypatch, n, delta):
        """Random gates on sites at the 64-bit word boundaries, each circuit
        with a two-term observable on two of them; some rotations are
        skipped over the circuits."""
        calls = self._calls(monkeypatch)
        skipped = 0
        for seed in range(4):
            circuit, _ = _random_recompiled(3900 + 10 * seed + n, n, gates=40)
            sites = sorted({q for gate in circuit.gates() for q in gate.qubits})
            q, r = sites[seed % len(sites)], sites[(seed + 1) % len(sites)]
            obs = PauliSum.from_terms(n, [(f"Z{q}", 1.0), (f"X{q} Y{r}", 0.5)])
            rc = recompile(circuit, obs)
            calls.clear()
            res = run_spd(rc, delta)
            assert self._bits(res) == self._bits(ref.run_spd(rc, delta))
            if res.final_terms:
                skipped += len(rc.rotations) - len(calls)
        assert skipped > 0

    @pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-2])
    @pytest.mark.parametrize("steps", [1, 2, 3])
    @pytest.mark.parametrize("site", [0, 4])
    def test_unpruned_kicked_ising_matches_every_rotation(self, monkeypatch, site, steps, delta):
        """Without light-cone pruning the rotations outside the observable's
        light cone are skipped, also in the first RX layer, where the
        one-bit drops run."""
        lat = chain(9)
        word = parse_pauli(f"Z{site}", lat.n)
        rc = recompile(kicked_ising(lat, steps, 7 * math.pi / 32), word)
        calls = self._calls(monkeypatch)
        res = run_spd(rc, delta)
        assert 0 < len(calls) < len(rc.rotations)
        assert self._bits(res) == self._bits(ref.run_spd(rc, delta))

    def test_device_counts(self, monkeypatch):
        """``device_127``, ``Z62``, T = 5, k = 7, delta = 0: 49 of the 74
        rotations meet the reach."""
        word = parse_pauli("Z62", 127)
        circuit = kicked_ising(device_127(), 5, 7 * math.pi / 32)
        rc = recompile(lightcone_prune(circuit, word.support()), word)
        calls = self._calls(monkeypatch)
        res = run_spd(rc, 0.0)
        assert (len(calls), len(rc.rotations)) == (49, 74)
        assert self._bits(res) == self._bits(ref.run_spd(rc, 0.0))


# -- complex reference ------------------------------------------------------

_UNITS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _word_ints(row, nw: int) -> tuple[int, int]:
    """(z, x) Python ints of a packed [z-words | x-words] row."""
    z = sum(int(row[i]) << (64 * i) for i in range(nw))
    x = sum(int(row[nw + i]) << (64 * i) for i in range(nw))
    return z, x


def complex_propagate(rotations, terms: dict, delta: float) -> tuple[dict, int]:
    """Heisenberg propagation on a dict from (z, x) ints to complex
    coefficients: the route that real coefficients replace.

    ``rotations`` holds (z, x, angle) in circuit order and acts last one
    first.  A word P that anticommutes with the axis sigma keeps
    cos(theta) a_P and passes i sin(theta) i^k a_P to sigma*P, with
    op(sigma) op(P) = i^k op(sigma*P) and i^k a complex unit.  Truncation
    follows the engine: after each branching rotation, drop resident terms
    with |a| < delta and create a product that lands on no resident word
    only if it reaches delta.  Returns the final terms and the peak count.
    """
    terms = {w: c for w, c in terms.items() if abs(c) >= delta}
    peak = len(terms)
    for sz, sx, angle in reversed(rotations):
        anti = [
            (w, c) for w, c in terms.items()
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
            products.append(((pz, px), isin * _UNITS[k] * c))
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
    return terms, peak


def _random_recompiled(seed: int, n: int, gates: int = 60):
    """A random circuit of ``mixed_gate``s on sites on both sides of the
    64-bit word boundaries, with a 4-term real observable, and its
    recompilation."""
    rng = np.random.default_rng(seed)
    sites = np.arange(n) if n < 12 else np.unique(
        [0, 1, 2, 30, 61, 62, 63, min(64, n - 1), n - 2, n - 1] + ([127, 128] if n > 128 else [])
    )
    circuit = Circuit(n, tuple(Layer((mixed_gate(rng, n, sites),)) for _ in range(gates)))
    word_sites = [int(q) for q in sites]
    terms = [
        (PauliWord.from_sites(
            n,
            z=[q for q in word_sites if rng.random() < 0.4],
            x=[q for q in word_sites if rng.random() < 0.4],
        ), float(rng.standard_normal()))
        for _ in range(4)
    ]
    return circuit, recompile(circuit, PauliSum.from_terms(n, terms))


class TestRealCoefficients:
    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    @pytest.mark.parametrize("n", [5, 65, 127])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_complex_reference_bit_for_bit(self, seed, n, delta):
        """Real float64 coefficients against complex arithmetic with the
        i^k phase table: the same words, every coefficient equal to the
        reference's real part bit for bit, and every reference imaginary
        part exactly 0.0."""
        circuit, rc = _random_recompiled(2600 + 10 * seed + n, n)
        assert any(g.name in ("ry", "rot") for g in circuit.gates())
        assert rc.transformed_observable.coeffs.dtype == np.float64
        assert len(rc.rotations) > 10

        nw = rc.transformed_observable.nw
        s = rc.transformed_observable.truncate(delta)
        peak = s.num_terms
        for rot in reversed(rc.rotations):
            s = apply_rotation(s, rot.axis, rot.angle, delta)
            peak = max(peak, s.num_terms)
            assert s.coeffs.dtype == np.float64
        rotations = [(*_word_ints(r.axis.row, nw), r.angle) for r in rc.rotations]
        start = {
            _word_ints(row, nw): complex(c)
            for row, c in zip(rc.transformed_observable.words, rc.transformed_observable.coeffs)
        }
        want, want_peak = complex_propagate(rotations, start, delta)

        assert peak == want_peak
        assert all(c.imag == 0.0 for c in want.values())
        got = {_word_ints(row, nw): float(c) for row, c in zip(s.words, s.coeffs)}
        assert got.keys() == want.keys()
        assert all(got[w].hex() == want[w].real.hex() for w in want)


# -- the rotation kernel against the slow reference -------------------------


def _schedule(rc):
    """Heisenberg-order (axis, angle) pairs; every fourth rotation is preceded
    by a zero-angle one on its axis, which takes the sin(theta) = 0 path."""
    out = []
    for i, rot in enumerate(reversed(rc.rotations)):
        if i % 4 == 0:
            out.append((rot.axis, 0.0 if i % 8 else -0.0))
        out.append((rot.axis, rot.angle))
    return out


class TestRotationEquivalence:
    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    @pytest.mark.parametrize("n", [5, 64, 65, 127, 139])
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_reference_after_every_rotation(self, seed, n, delta):
        _, rc = _random_recompiled(3100 + 10 * seed + n, n)
        assert len(rc.rotations) > 10
        s = want = rc.transformed_observable.truncate(delta)
        zero_branching = collisions = drops = 0
        for axis, angle in _schedule(rc):
            before = want
            anti = int(ref.anticommute_mask(before.words, axis.row).sum())
            s = apply_rotation(s, axis, angle, delta)
            want = ref.apply_rotation(before, axis, angle, delta)
            s.validate()
            assert s.words.dtype == np.dtype(">u8") and s.words.flags.c_contiguous
            assert np.array_equal(s.words, want.words)
            assert s.coeffs.tobytes() == want.coeffs.tobytes()
            zero_branching += angle == 0.0 and anti > 0
            # at delta = 0, a product that lands on a resident word adds no term
            collisions += angle != 0.0 and want.num_terms < before.num_terms + anti
            drops += bool(set(ref.pack_keys(before.words).tolist())
                          - set(ref.pack_keys(want.words).tolist()))
        assert zero_branching > 0
        assert collisions > 0 if delta == 0.0 else drops > 0

    @pytest.mark.parametrize("n", [5, 65, 139])
    def test_capacity_error_at_the_same_rotation(self, n):
        _, rc = _random_recompiled(3300 + n, n)
        delta = 1e-3
        s = rc.transformed_observable.truncate(delta)
        peak = s.num_terms
        for axis, angle in _schedule(rc):
            s = ref.apply_rotation(s, axis, angle, delta)
            peak = max(peak, s.num_terms)
        cap = max(1, peak // 2)

        def first_failure(rotate):
            s = rc.transformed_observable.truncate(delta)
            for i, (axis, angle) in enumerate(_schedule(rc)):
                try:
                    s = rotate(s, axis, angle, delta, max_terms=cap)
                except SpdCapacityError as err:
                    return i, err.needed, err.cap
            return None

        got = first_failure(apply_rotation)
        assert got is not None
        assert got == first_failure(ref.apply_rotation)
        assert got[1] > cap


class TestTraceHooks:
    def test_run_spd_calls_kernels_through_module_names(self, monkeypatch):
        """A tracer wraps ``anticommute_mask``, ``mul_rows`` and ``pack_keys``
        where ``spdtn.spd`` looks them up, and counts branching rotations from
        the ``mul_rows`` calls: one mask per rotation that meets the reach,
        one product per rotation that branches (some term anticommutes and
        sin(theta) != 0)."""
        _, rc = _random_recompiled(3400, 65, gates=80)
        delta = 1e-3
        calls = dict.fromkeys(("anticommute_mask", "mul_rows", "pack_keys"), 0)

        def counting(name):
            inner = getattr(spd, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(spd, name, counting(name))
        result = run_spd(rc, delta)

        met, _ = _meeting_reach(rc, delta)
        s = rc.transformed_observable.truncate(delta)
        branching = 0
        for rot in reversed(rc.rotations):
            if ref.anticommute_mask(s.words, rot.axis.row).any() and np.sin(rot.angle) != 0.0:
                branching += 1
            s = ref.apply_rotation(s, rot.axis, rot.angle, delta)
        assert branching > 5
        assert result.expectation == s.expectation()
        assert calls["anticommute_mask"] == len(met)
        assert calls["mul_rows"] == branching
        assert calls["pack_keys"] >= branching

    def test_device_run_derives_constants_once_per_distinct_axis(self, monkeypatch):
        """The T = 20 device circuit at 7*pi/32 recompiles to 1,637 rotations
        on 254 distinct axes, one word each.  A run derives at most one set
        of kernel constants per word: exactly one for each word of a
        rotation it calls, and none for the rotations it skips."""
        from spdtn import device_127, kicked_ising, lightcone_prune, paulis

        word = parse_pauli("Z62", 127)
        circuit = kicked_ising(device_127(), 20, 7 * math.pi / 32)
        rc = recompile(lightcone_prune(circuit, word.support()), word)
        assert len(rc.rotations) == 1637
        assert len({id(rot.axis) for rot in rc.rotations}) == len(
            {rot.axis for rot in rc.rotations}) == 254
        derived, called = [], []
        derive, apply = paulis._derive_axis, spd.apply_rotation

        def counting(axis):
            derived.append(axis)
            return derive(axis)

        def calling(s, axis, *args):
            called.append(axis)
            return apply(s, axis, *args)

        monkeypatch.setattr(paulis, "_derive_axis", counting)
        monkeypatch.setattr(spd, "apply_rotation", calling)
        result = run_spd(rc, delta=8e-3)
        assert result.final_terms > 0  # the sum never emptied
        assert 0 < len(called) < len(rc.rotations)
        derived_ids = [id(axis) for axis in derived]
        assert len(derived_ids) == len(set(derived_ids))
        assert set(derived_ids) == {id(axis) for axis in called}


# -- chunked merge, purity and working memory ---------------------------------


class TestChunkedMerge:
    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    @pytest.mark.parametrize("chunk", [1, 3, 16])
    @pytest.mark.parametrize("n", [65, 127])
    def test_small_chunks_match_reference(self, monkeypatch, n, chunk, delta):
        """Chunks of a few items put chunk edges between born terms, hits
        and dropped terms, and leave chunks with every resident dropped."""
        monkeypatch.setattr(spd, "_CHUNK", chunk)
        _, rc = _random_recompiled(3500 + n, n)
        s = want = rc.transformed_observable.truncate(delta)
        drops = 0
        for axis, angle in _schedule(rc):
            before = want
            s = apply_rotation(s, axis, angle, delta)
            want = ref.apply_rotation(before, axis, angle, delta)
            assert np.array_equal(s.words, want.words)
            assert s.coeffs.tobytes() == want.coeffs.tobytes()
            drops += bool(set(ref.pack_keys(before.words).tolist())
                          - set(ref.pack_keys(want.words).tolist()))
        assert drops > 0 if delta else want.num_terms > 4 * chunk


def _wide_sum(rng, n_terms: int, n: int = 127, paired: float = 0.05):
    """A sum of random words on n sites, a random axis, and about
    ``paired * n_terms`` pairs (P, axis*P) of terms that anticommute with the
    axis, so that products hit resident words.  Coefficients are standard
    normal; the caller truncates."""
    nw = (n + 63) // 64
    top = np.uint64((1 << (n - 64 * (nw - 1))) - 1) if n % 64 else np.uint64(2**64 - 1)
    raw = rng.integers(0, 2**64, size=(n_terms + 1, 2 * nw), dtype=np.uint64)
    raw[:, nw - 1] &= top
    raw[:, 2 * nw - 1] &= top
    axis = PauliWord(n, raw[-1])
    words = raw[:-1]
    anti = ref.anticommute_mask(words, axis.row)
    pick = words[anti][: int(paired * n_terms)]
    words = np.concatenate([words, ref.mul_rows(axis.row, pick)[0]])
    _, first = np.unique(ref.pack_keys(words), return_index=True)
    words = words[first]
    return PauliSum(n, words, rng.standard_normal(len(words))), axis


def _kept_and_born(s: PauliSum, out: PauliSum) -> tuple[int, int]:
    """How many of ``s``'s words are in ``out``, and how many of ``out``'s
    are new."""
    keys, out_keys = ref.pack_keys(s.words), ref.pack_keys(out.words)
    pos = np.minimum(np.searchsorted(keys, out_keys), len(keys) - 1)
    kept = int((keys[pos] == out_keys).sum())
    return kept, out.num_terms - kept


class TestPurity:
    @pytest.mark.parametrize(
        "theta, delta",
        [(0.7, 0.0), (0.5, 0.3), (0.0, 0.0), (math.pi, 0.0), (0.0, 0.3)],
        ids=["hit-born", "hit-born-dropped", "zero", "half-turn", "zero-dropped"],
    )
    def test_input_bytes_are_untouched(self, theta, delta):
        """Every in-place step of ``apply_rotation`` works on its own arrays,
        on each path: products that hit, are born or fall short, dropped
        residents, and sin(theta) = 0."""
        rng = np.random.default_rng(3600)
        s, axis = _wide_sum(rng, 3000, paired=0.2)
        anti = ref.anticommute_mask(s.words, axis.row)
        products = ref.pack_keys(ref.mul_rows(axis.row, s.words[anti])[0])
        assert np.isin(products, ref.pack_keys(s.words)).sum() > 100  # hits
        words, coeffs = s.words.tobytes(), s.coeffs.tobytes()
        out = apply_rotation(s, axis, theta, delta)
        assert s.words.tobytes() == words and s.coeffs.tobytes() == coeffs
        want = ref.apply_rotation(s, axis, theta, delta)
        assert np.array_equal(out.words, want.words)
        assert out.coeffs.tobytes() == want.coeffs.tobytes()
        kept, born = _kept_and_born(s, out)
        assert (born > 0) == (np.sin(theta) != 0.0)
        assert (kept < s.num_terms) == (delta > 0)


class TestWorkingMemory:
    """Above input and output, the traced peak of a rotation is at most
    row + coefficient + slot index bytes per born term, 16 bytes per dropped
    term and a fixed slack: no array of the product batch or of the
    resident count outlives the product phase."""

    SLACK = 1 << 20  # chunk-sized scratch and numpy's fancy-index buffers

    @pytest.mark.parametrize("theta, delta", [(0.7, 0.0), (0.5, 0.3)], ids=["exact", "dropping"])
    def test_peak_above_input_and_output(self, traced_peak, theta, delta):
        rng = np.random.default_rng(3700)
        s, axis = _wide_sum(rng, 300_000)
        s = s.truncate(delta)
        # an N-sized float array held into the merge would exceed the slack
        assert 8 * s.num_terms > self.SLACK
        out, peak = traced_peak(apply_rotation, s, axis, theta, delta)
        want = ref.apply_rotation(s, axis, theta, delta)
        assert np.array_equal(out.words, want.words)
        assert out.coeffs.tobytes() == want.coeffs.tobytes()

        kept, born = _kept_and_born(s, out)
        dropped = s.num_terms - kept
        anti = int(ref.anticommute_mask(s.words, axis.row).sum())
        assert born > 0.75 * anti if delta == 0 else born > 0.5 * anti and dropped > 1000
        row_bytes = s.words.shape[1] * 8
        extra = peak - (out.words.nbytes + out.coeffs.nbytes)
        assert extra <= born * (row_bytes + 8 + 8) + 16 * dropped + self.SLACK


class TestCapOnce:
    def test_run_spd_reads_the_environment_once(self, monkeypatch):
        """``run_spd`` resolves the cap before its loop; the rotations get it
        as a number and never look at the environment themselves."""
        _, rc = _random_recompiled(3800, 65)
        unresolved = []
        inner = spd._resolve_cap

        def counting(max_terms):
            if max_terms is None:
                unresolved.append(max_terms)
            return inner(max_terms)

        monkeypatch.setattr(spd, "_resolve_cap", counting)
        monkeypatch.setenv(MAX_TERMS_ENV, "1")
        with pytest.raises(SpdCapacityError) as err:
            run_spd(rc, 0.0)
        assert err.value.cap == 1
        assert len(unresolved) == 1
        monkeypatch.delenv(MAX_TERMS_ENV)
        unresolved.clear()
        result = run_spd(rc, 1e-3)
        assert len(unresolved) == 1
        assert result.num_rotations > 10
