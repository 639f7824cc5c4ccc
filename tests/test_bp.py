"""Belief propagation: tree exactness, gauges, and bond compression."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdtn import Tensor
from spdtn.bp import (
    DegenerateBondError,
    MessageSet,
    SiteNetwork,
    bp_iterate,
    compress_bond,
    doubled_sites,
    l1bp_value,
)
from spdtn import bp, tensor
from spdtn.tensor import ContractionPlan, contract

import tn_reference as ref
from conftest import naive_contract, random_tree_sites


def all_tensors(sites):
    return [t for ts in sites.values() for t in ts]


class TestSiteNetwork:
    def test_structure(self, rng):
        a = Tensor(rng.standard_normal((2, 3)).astype(complex), ("ab", "ac"))
        b = Tensor(rng.standard_normal((2, 2)).astype(complex), ("ab", "bb"))
        b2 = Tensor(rng.standard_normal((2,)).astype(complex), ("bb",))
        c = Tensor(rng.standard_normal((3,)).astype(complex), ("ac",))
        sn = SiteNetwork({"A": [a], "B": [b, b2], "C": [c]})
        assert sn.dangling == ()
        assert set(sn.edges) == {("A", "B"), ("A", "C")}
        assert sn.bond_labels("B", "A") == ("ab",)
        assert sn.neighbors("A") == ["B", "C"]
        assert sn.bond_dim("A", "C") == 3
        assert sn.dims["ab"] == 2

    def test_fused_multi_label_bond(self, rng):
        a = Tensor(rng.standard_normal((2, 3)).astype(complex), ("u", "v"))
        b = Tensor(rng.standard_normal((2, 3)).astype(complex), ("u", "v"))
        sn = SiteNetwork({0: [a], 1: [b]})
        assert sn.bond_labels(0, 1) == ("u", "v")
        assert sn.bond_dim(0, 1) == 6

    def test_dangling_detected(self, rng):
        t = Tensor(rng.standard_normal((2, 2)).astype(complex), ("a", "b"))
        sn = SiteNetwork({0: [t]})
        assert sn.dangling == ("a", "b")
        with pytest.raises(ValueError, match="dangling"):
            bp_iterate(sn)

    def test_label_on_three_sites_rejected(self, rng):
        ts = [
            Tensor(rng.standard_normal((2,)).astype(complex), ("a",)) for _ in range(3)
        ]
        with pytest.raises(ValueError, match="appears 3 times"):
            SiteNetwork({0: [ts[0]], 1: [ts[1]], 2: [ts[2]]})

    def test_dimension_mismatch_rejected(self, rng):
        a = Tensor(rng.standard_normal((2,)).astype(complex), ("a",))
        b = Tensor(rng.standard_normal((3,)).astype(complex), ("a",))
        with pytest.raises(ValueError, match="mismatched"):
            SiteNetwork({0: [a], 1: [b]})

    def test_internal_label_is_not_a_bond(self, rng):
        t = Tensor(rng.standard_normal((2, 2)).astype(complex), ("a", "a"))
        sn = SiteNetwork({0: [t]})
        assert sn.edges == {}
        assert sn.dangling == ()


class TestTreeExactness:
    @pytest.mark.parametrize("seed", range(6))
    def test_small_trees_match_naive(self, seed):
        rng = np.random.default_rng(800 + seed)
        sites, _ = random_tree_sites(rng, n_sites=5, max_dim=3)
        sn = SiteNetwork(sites)
        ms = bp_iterate(sn, tol=1e-13, max_iter=100)
        assert ms.converged
        got = l1bp_value(sn, ms)
        want = naive_contract(all_tensors(sites)).item()
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("seed", range(4))
    def test_larger_trees_match_contract(self, seed):
        rng = np.random.default_rng(900 + seed)
        sites, _ = random_tree_sites(rng, n_sites=12, max_dim=5)
        sn = SiteNetwork(sites)
        ms = bp_iterate(sn, tol=1e-13, max_iter=200)
        assert ms.converged
        got = l1bp_value(sn, ms)
        want = contract(all_tensors(sites)).item()
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_two_norm_tree_is_squared_magnitude(self, rng):
        sites, _ = random_tree_sites(rng, n_sites=6, max_dim=3)
        z = contract(all_tensors(sites)).item()
        doubled = doubled_sites(sites)
        sn = SiteNetwork(doubled)
        ms = bp_iterate(sn, tol=1e-13, max_iter=200, mode="two-norm")
        assert ms.converged
        got = l1bp_value(sn, ms)
        assert abs(got - abs(z) ** 2) <= 1e-9 * max(1.0, abs(z) ** 2)

    def test_converges_from_converged_messages_in_one_round(self, rng):
        sites, _ = random_tree_sites(rng, n_sites=10, max_dim=4)
        sn = SiteNetwork(sites)
        ms = bp_iterate(sn, tol=1e-12)
        again = bp_iterate(sn, tol=1e-9, init=ms.messages)
        assert again.converged
        assert again.iterations == 1


class TestGaugeInvariance:
    def test_positive_rescaling_leaves_value(self, rng):
        sites, edges = random_tree_sites(rng, n_sites=8, max_dim=4)
        sn = SiteNetwork(sites)
        ms = bp_iterate(sn, tol=1e-13)
        base = l1bp_value(sn, ms)
        scaled = {
            key: Tensor(t.data * float(rng.uniform(0.1, 10.0)), t.inds)
            for key, t in ms.messages.items()
        }
        rescaled = l1bp_value(sn, MessageSet(scaled))
        assert abs(rescaled - base) <= 1e-12 * max(1.0, abs(base))


class TestModesAndDamping:
    def test_unknown_mode_rejected(self, rng):
        sites, _ = random_tree_sites(rng, 3)
        with pytest.raises(ValueError, match="unknown mode"):
            bp_iterate(SiteNetwork(sites), mode="three-norm")

    def test_two_norm_messages_are_hermitian_psd(self, rng):
        sites, _ = random_tree_sites(rng, n_sites=6, max_dim=3)
        sn = SiteNetwork(doubled_sites(sites))
        ms = bp_iterate(sn, tol=1e-12, mode="two-norm")
        for (src, dst), t in ms.messages.items():
            kets = sorted(l for l in t.inds if not l.endswith("*"))
            bras = [l + "*" for l in kets]
            m = t.to_matrix(kets, bras)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
            vals = np.linalg.eigvalsh(m)
            assert vals.min() >= -1e-10

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(damping=1.0), r"damping must be in \[0, 1\)"),
            (dict(damping=-0.1), r"damping must be in \[0, 1\)"),
            (dict(damping=math.nan), r"damping must be in \[0, 1\)"),
            (dict(tol=-1e-6), "tol must be >= 0"),
            (dict(tol=math.nan), "tol must be >= 0"),
            (dict(tol=math.inf), "tol must be >= 0 and finite"),
        ],
    )
    def test_out_of_range_damping_or_tol_rejected(self, rng, kwargs, message):
        """At damping 1 the messages never move, so BP would report
        convergence at its uniform start."""
        sites, _ = random_tree_sites(rng, 3)
        with pytest.raises(ValueError, match=message):
            bp_iterate(SiteNetwork(sites), **kwargs)

    def test_damping_reaches_same_fixed_point(self, rng):
        sites, _ = random_tree_sites(rng, n_sites=8, max_dim=3)
        sn = SiteNetwork(sites)
        plain = l1bp_value(sn, bp_iterate(sn, tol=1e-12))
        damped_ms = bp_iterate(sn, tol=1e-12, damping=0.3, max_iter=2000)
        assert damped_ms.converged
        damped = l1bp_value(sn, damped_ms)
        assert abs(plain - damped) <= 1e-8 * max(1.0, abs(plain))

    @pytest.mark.parametrize("seed", [0, 1, 3, 4, 5])
    def test_matrix_ring_bethe_is_dominant_eigenvalue(self, seed):
        """On one cycle of matrices the exact value is the trace of the cycle
        product while converged BP keeps only its dominant eigenvalue; that
        pins the loop error exactly (seeds with eigenvalue near-degeneracy
        oscillate instead of converging and are excluded)."""
        rng = np.random.default_rng(seed)
        mats, tensors = [], {}
        for k in range(4):
            left, right = f"b{(k - 1) % 4}", f"b{k}"
            data = rng.standard_normal((2, 2)) + 0.001j * rng.standard_normal((2, 2))
            data += 2.0 * np.eye(2)
            mats.append(data)
            tensors[k] = [Tensor(data.astype(complex), (left, right))]
        sn = SiteNetwork(tensors)
        ms = bp_iterate(sn, tol=1e-12, max_iter=3000)
        assert ms.converged
        got = l1bp_value(sn, ms)
        lam = np.linalg.eigvals(mats[0] @ mats[1] @ mats[2] @ mats[3])
        lam1 = lam[np.argmax(np.abs(lam))]
        assert abs(got - lam1) <= 1e-10 * abs(lam1)


class TestL1bpValueEdges:
    def test_zero_site_numerator_returns_zero(self, rng):
        a = Tensor(np.zeros((2,), dtype=complex), ("k",))
        b = Tensor(rng.standard_normal((2,)).astype(complex), ("k",))
        sn = SiteNetwork({0: [a], 1: [b]})
        uniform = Tensor(np.ones(2, dtype=complex) / 2.0, ("k",))
        ms = MessageSet({(0, 1): uniform, (1, 0): uniform})
        assert l1bp_value(sn, ms) == 0.0j

    def test_degenerate_bond_raises(self, rng):
        a = Tensor(np.ones((2,), dtype=complex), ("k",))
        b = Tensor(np.ones((2,), dtype=complex), ("k",))
        sn = SiteNetwork({0: [a], 1: [b]})
        ms = MessageSet(
            {
                (0, 1): Tensor(np.array([1.0, 0.0], dtype=complex), ("k",)),
                (1, 0): Tensor(np.array([0.0, 1.0], dtype=complex), ("k",)),
            }
        )
        with pytest.raises(DegenerateBondError):
            l1bp_value(sn, ms)

    def test_dangling_rejected(self, rng):
        t = Tensor(rng.standard_normal((2,)).astype(complex), ("a",))
        with pytest.raises(ValueError, match="dangling"):
            l1bp_value(SiteNetwork({0: [t]}), MessageSet({}))


class TestDoubledSites:
    def test_star_convention(self, rng):
        t = Tensor(rng.standard_normal((2, 3)).astype(complex), ("bond", "out"))
        doubled = doubled_sites({0: [t]}, outer=("out",))
        assert len(doubled[0]) == 2
        ket, bra = doubled[0]
        assert ket.inds == ("bond", "out")
        assert bra.inds == ("bond*", "out")
        np.testing.assert_array_equal(bra.data, t.data.conj())

    def test_doubled_value_is_norm_square(self, rng):
        sites, _ = random_tree_sites(rng, n_sites=4, max_dim=3)
        z = naive_contract(all_tensors(sites)).item()
        doubled = doubled_sites(sites)
        got = naive_contract(all_tensors(doubled)).item()
        assert np.isclose(got, abs(z) ** 2, rtol=1e-10)


class TestCompressBond:
    def _two_site_setup(self, rng, d_out=4, d_bond=5):
        """Ket network  out0 --A-- bond --B-- out1  with exact environments."""
        a = rng.standard_normal((d_out, d_bond)) + 1j * rng.standard_normal(
            (d_out, d_bond)
        )
        b = rng.standard_normal((d_bond, d_out)) + 1j * rng.standard_normal(
            (d_bond, d_out)
        )
        ta = Tensor(a, ("out0", "k"))
        tb = Tensor(b, ("k", "out1"))
        doubled = doubled_sites({0: [ta], 1: [tb]}, outer=("out0", "out1"))
        m_01 = contract(doubled[0], output=("k", "k*"))
        m_10 = contract(doubled[1], output=("k", "k*"))
        return a, b, m_01, m_10

    def test_full_rank_is_identity(self, rng):
        # outer dims exceed the bond dim so both Gram matrices are invertible
        a, b, m_01, m_10 = self._two_site_setup(rng, d_out=6, d_bond=4)
        p_a, p_b, dw = compress_bond(m_01, m_10, chi=None, kappa=0.0, new_label="c")
        assert dw == 0.0
        assert p_a.inds == ("k", "c")
        assert p_b.inds == ("c", "k")
        prod = p_a.to_matrix(("k",), ("c",)) @ p_b.to_matrix(("c",), ("k",))
        np.testing.assert_allclose(prod, np.eye(4), atol=1e-9)

    def test_rank_deficient_bond_projects_without_error(self, rng):
        # outer dims below the bond dim: the Gram matrices have a null space,
        # the uncompressed pair is an oblique rank-4 projector, and inserting
        # it loses nothing because the null directions never held amplitude
        a, b, m_01, m_10 = self._two_site_setup(rng, d_out=4, d_bond=5)
        p_a, p_b, dw = compress_bond(m_01, m_10, chi=None, kappa=0.0, new_label="c")
        assert p_a.data.shape == (5, 4)
        pa = p_a.to_matrix(("k",), ("c",))
        pb = p_b.to_matrix(("c",), ("k",))
        np.testing.assert_allclose((a @ pa) @ (pb @ b), a @ b, atol=1e-9)

    @pytest.mark.parametrize("chi", [1, 2, 3, 4])
    def test_truncation_is_svd_optimal(self, chi, rng):
        """Inserting the rank-chi projector pair reproduces the best rank-chi
        approximation of the two-site product (exact environments)."""
        a, b, m_01, m_10 = self._two_site_setup(rng)
        p_a, p_b, dw = compress_bond(m_01, m_10, chi=chi, kappa=0.0, new_label="c")
        pa = p_a.to_matrix(("k",), ("c",))
        pb = p_b.to_matrix(("c",), ("k",))
        approx = (a @ pa) @ (pb @ b)
        full = a @ b
        u, s, vh = np.linalg.svd(full)
        best = (u[:, :chi] * s[:chi]) @ vh[:chi]
        err_got = np.linalg.norm(full - approx)
        err_best = np.linalg.norm(full - best)
        assert err_got <= err_best + 1e-9
        tail2 = float(np.sum(s[chi:] ** 2))
        assert np.isclose(dw, tail2 / float(np.sum(s**2)), atol=1e-9)
        r = pa.shape[1]
        np.testing.assert_allclose(pb @ pa, np.eye(r), atol=1e-9)

    def test_kappa_rule_drops_negligible_rank(self, rng):
        a = np.zeros((4, 3), dtype=complex)
        a[:, 0] = rng.standard_normal(4)
        a[:, 1] = 1e-9 * rng.standard_normal(4)
        ta = Tensor(a, ("out0", "k"))
        tb = Tensor(a.T.conj().copy(), ("k", "out1"))
        doubled = doubled_sites({0: [ta], 1: [tb]}, outer=("out0", "out1"))
        m_01 = contract(doubled[0], output=("k", "k*"))
        m_10 = contract(doubled[1], output=("k", "k*"))
        p_a, _, _ = compress_bond(m_01, m_10, chi=None, kappa=1e-5)
        assert p_a.data.shape[-1] == 1

    def test_dead_bond_warns_and_compresses_to_rank_zero(self):
        z = Tensor(np.zeros((2, 2), dtype=complex), ("k", "k*"))
        with pytest.warns(UserWarning, match="dead"):
            p_a, p_b, dw = compress_bond(z, z, None, 0.0)
        assert p_a.data.shape == (2, 0)
        assert p_b.data.shape == (0, 2)

    def test_label_mismatch_rejected(self, rng):
        m = Tensor(np.eye(2, dtype=complex), ("k", "k*"))
        other = Tensor(np.eye(2, dtype=complex), ("q", "q*"))
        with pytest.raises(ValueError, match="different labels"):
            compress_bond(m, other, None, 0.0)

    def test_unpaired_labels_rejected(self):
        m = Tensor(np.eye(2, dtype=complex), ("k", "q"))
        with pytest.raises(ValueError, match="star pairs"):
            compress_bond(m, m, None, 0.0)


class TestRealNetworks:
    """A real network runs BP and compression in float64, and agrees with
    the same network cast to complex."""

    @staticmethod
    def doubled_real_ring(seed):
        rng = np.random.default_rng(seed)
        sites, outer = random_ring_sites(rng, 5, phys=True, real=True)
        return doubled_sites(sites, outer=outer)

    @staticmethod
    def as_complex(sites):
        return {
            k: [Tensor(t.data.astype(complex), t.inds) for t in ts]
            for k, ts in sites.items()
        }

    @pytest.mark.parametrize("mode", ["one-norm", "two-norm"])
    @pytest.mark.parametrize("seed", range(3))
    def test_messages_are_float64_and_match_complex(self, mode, seed):
        sites = self.doubled_real_ring(4500 + seed)
        real = bp_iterate(SiteNetwork(sites), tol=1e-11, max_iter=100, mode=mode)
        cplx = bp_iterate(
            SiteNetwork(self.as_complex(sites)), tol=1e-11, max_iter=100, mode=mode
        )
        assert real.iterations == cplx.iterations
        for key, t in real.messages.items():
            assert t.data.dtype == np.float64
            assert cplx.messages[key].data.dtype == np.complex128
            np.testing.assert_allclose(t.data, cplx.messages[key].data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("chi", [None, 3, 1])
    @pytest.mark.parametrize("seed", range(3))
    def test_projectors_are_float64_and_match_complex(self, chi, seed):
        """Projectors are fixed up to a gauge on the new bond (eigenvector
        and singular-vector signs or phases), so the pairs are compared
        through the gauge-free product P_A P_B."""
        sites = self.doubled_real_ring(4600 + seed)
        sn = SiteNetwork(sites)
        ms = bp_iterate(sn, tol=1e-12, max_iter=200, mode="two-norm")
        cms = bp_iterate(
            SiteNetwork(self.as_complex(sites)), tol=1e-12, max_iter=200, mode="two-norm"
        )
        for i, j in sn.edges:
            p_a, p_b, dw = compress_bond(ms.messages[(i, j)], ms.messages[(j, i)], chi, 0.0)
            c_a, c_b, cdw = compress_bond(cms.messages[(i, j)], cms.messages[(j, i)], chi, 0.0)
            assert p_a.data.dtype == p_b.data.dtype == np.float64
            assert p_a.data.shape == c_a.data.shape and p_b.data.shape == c_b.data.shape
            kets = p_a.inds[:-1]
            prod = p_a.to_matrix(kets, ("_c",)) @ p_b.to_matrix(("_c",), kets)
            cprod = c_a.to_matrix(kets, ("_c",)) @ c_b.to_matrix(("_c",), kets)
            np.testing.assert_allclose(prod, cprod, rtol=0, atol=1e-12)
            assert abs(dw - cdw) <= 1e-12


def random_ring_sites(rng, n_sites, max_dim=3, phys=False, real=False, wheel=False):
    """Random loopy site network: a ring plus one chord, bond dimensions in
    2..max_dim, and on some sites the tensor split in two over an internal
    label.  With ``wheel`` site 0 is joined to every other site instead of
    one, so the rest of the ring lies at one BFS depth.  With ``phys`` every
    site also gets a dangling physical label ``p<k>``, for doubling; with
    ``real`` the tensors are float64.  Returns (sites, physical labels)."""
    chords = range(2, n_sites - 1) if wheel else [n_sites // 2]
    edges = [(k, (k + 1) % n_sites) for k in range(n_sites)] + [(0, k) for k in chords]
    dims = {}
    legs: dict[int, list[str]] = {k: [] for k in range(n_sites)}
    for u, v in edges:
        label = f"r{u}_{v}"
        dims[label] = int(rng.integers(2, max_dim + 1))
        legs[u].append(label)
        legs[v].append(label)
    outer = []
    sites = {}
    for k in range(n_sites):
        labels = list(legs[k])
        if phys:
            outer.append(f"p{k}")
            dims[f"p{k}"] = 2
            labels.append(f"p{k}")
        rng.shuffle(labels)
        groups = [labels]
        if len(labels) > 1 and rng.random() < 0.5:
            cut = int(rng.integers(1, len(labels)))
            dims[f"i{k}"] = int(rng.integers(1, max_dim + 1))
            groups = [labels[:cut] + [f"i{k}"], [f"i{k}"] + labels[cut:]]
        tensors = []
        for group in groups:
            shape = tuple(dims[l] for l in group)
            data = rng.standard_normal(shape)
            if not real:
                data = data + 1j * rng.standard_normal(shape)
            tensors.append(Tensor(data, tuple(group)))
        sites[k] = tensors
    return sites, outer


def uniform(sn, labels):
    return Tensor(np.ones(tuple(sn.dims[l] for l in labels), dtype=complex), labels)


def structures(networks):
    """The distinct (labels numbered by first appearance, shapes, output in
    that numbering) among (tensors, output) pairs."""
    found = set()
    for tensors, output in networks:
        ids = {}
        labels = tuple(tuple(ids.setdefault(l, len(ids)) for l in t.inds) for t in tensors)
        shapes = tuple(t.data.shape for t in tensors)
        found.add((labels, shapes, tuple(ids[l] for l in output)))
    return found


def assert_same_messages(got, want):
    assert got.iterations == want.iterations
    assert got.max_delta == want.max_delta
    assert got.converged == want.converged
    assert got.messages.keys() == want.messages.keys()
    for key, t in want.messages.items():
        g = got.messages[key]
        assert g.inds == t.inds
        assert g.data.shape == t.data.shape and g.data.dtype == t.data.dtype
        assert g.data.tobytes() == t.data.tobytes()


class TestPlannedBp:
    """``bp_iterate`` looks up each message update's plan by structure and
    runs the sweeps on arrays; messages, ``iterations`` and ``max_delta``
    must carry the bits of the earlier re-planning loop kept in
    ``tn_reference``."""

    @staticmethod
    def network(kind, seed, mode):
        rng = np.random.default_rng(seed)
        if kind == "tree":
            sites, _ = random_tree_sites(rng, n_sites=7, max_dim=3)
            outer = ()
        else:
            sites, outer = random_ring_sites(
                rng, 5, phys=mode == "two-norm", real=kind == "real_ring", wheel=kind == "wheel"
            )
        if mode == "two-norm":
            sites = doubled_sites(sites, outer=outer)
        return SiteNetwork(sites)

    @pytest.mark.parametrize("mode", ["one-norm", "two-norm"])
    @pytest.mark.parametrize("kind", ["tree", "ring", "real_ring", "wheel"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_bits(self, kind, mode, seed):
        sn = self.network(kind, 4100 + seed, mode)
        for kwargs in (
            dict(tol=1e-11, max_iter=60),
            dict(tol=1e-11, max_iter=60, damping=0.25),
            dict(tol=1e-3, max_iter=3),
            dict(max_iter=0),
        ):
            assert_same_messages(
                bp_iterate(sn, mode=mode, **kwargs), ref.bp_iterate(sn, mode=mode, **kwargs)
            )

    @pytest.mark.parametrize("mode", ["one-norm", "two-norm"])
    @pytest.mark.parametrize("kind", ["tree", "ring"])
    def test_from_init_matches_reference_bits(self, kind, mode):
        sn = self.network(kind, 4200, mode)
        start = ref.bp_iterate(sn, mode=mode, tol=1e-2, max_iter=4)
        # init messages in their reversed label order, and one left out
        init = {key: t.transpose_to(t.inds[::-1]) for key, t in start.messages.items()}
        del init[min(init)]
        kwargs = dict(mode=mode, tol=1e-11, max_iter=40, damping=0.1, init=init)
        assert_same_messages(bp_iterate(sn, **kwargs), ref.bp_iterate(sn, **kwargs))

    @staticmethod
    def uniform_ring(n_sites):
        """A doubled ring of identical sites, whose messages in each
        direction all share one structure."""
        rng = np.random.default_rng(4310)
        sites, outer = {}, []
        for k in range(n_sites):
            data = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            sites[k] = [Tensor(data, (f"b{(k - 1) % n_sites}", f"b{k}", f"p{k}"))]
            outer.append(f"p{k}")
        return SiteNetwork(doubled_sites(sites, outer=outer))

    def test_plans_once_per_directed_message(self, greedy_calls):
        """Plans are looked up by structure: the first ``bp_iterate`` call
        plans each distinct message structure once, however many sweeps it
        runs, a repeat call plans nothing, and ``l1bp_value`` plans only the
        structures not seen before, among the bonds and the sites it
        contracts: those with no recorded scale (``MessageSet.scales``)."""
        ring = self.network("ring", 4300, "two-norm")
        # (network, distinct message structures, sites l1bp_value contracts,
        # structures l1bp_value plans)
        for sn, distinct, n_contracted, planned in (
            (ring, 12, 2, 4),
            (self.uniform_ring(6), 2, 1, 2),
        ):
            assert len(sn.edges) == 6
            tensor.clear_plan_cache()
            messages = []
            for j, k in sorted(list(sn.edges) + [(j, i) for i, j in sn.edges]):
                incoming = [uniform(sn, sn.bond_labels(l, j)) for l in sn.neighbors(j) if l != k]
                messages.append((sn.sites[j] + incoming, sn.bond_labels(j, k)))
            seen = structures(messages)
            assert len(seen) == distinct
            for expected in (distinct, 0):
                greedy_calls.clear()
                ms = bp_iterate(sn, tol=1e-12, max_iter=200, mode="two-norm")
                assert ms.iterations > 2
                assert len(greedy_calls) == expected
            contracted = [
                s for s in sn.sites if not any((s, l) in ms.scales for l in sn.neighbors(s))
            ]
            assert len(contracted) == n_contracted
            sites = [
                (sn.sites[s] + [ms.messages[(l, s)] for l in sn.neighbors(s)], ())
                for s in contracted
            ]
            bonds = [([ms.messages[(i, j)], ms.messages[(j, i)]], ()) for i, j in sn.edges]
            assert len(structures(sites + bonds) - seen) == planned
            for expected in (planned, 0):
                greedy_calls.clear()
                l1bp_value(sn, ms)
                assert len(greedy_calls) == expected


def max_message_gap(got, want):
    return max(np.abs(got.messages[k].data - want.messages[k].data).sum() for k in want.messages)


class TestSweepSchedule:
    """The in-place sweeps reach the fixed point of the synchronous Jacobi
    rounds kept in ``tn_reference``: exactly, in two sweeps, on trees, and
    to the Bethe value on loops."""

    @pytest.mark.parametrize("mode", ["one-norm", "two-norm"])
    @pytest.mark.parametrize("seed", range(6))
    def test_tree_converges_in_two_sweeps(self, mode, seed):
        rng = np.random.default_rng(4700 + seed)
        sites, _ = random_tree_sites(rng, n_sites=9, max_dim=3)
        if mode == "two-norm":
            sites = doubled_sites(sites)
        sn = SiteNetwork(sites)
        ms = bp_iterate(sn, tol=0.0, max_iter=10, mode=mode)
        jacobi = ref.bp_iterate_jacobi(sn, tol=1e-13, max_iter=100, mode=mode)
        assert ms.converged and jacobi.converged
        assert (ms.iterations, ms.max_delta) == (2, 0.0)
        assert max_message_gap(ms, jacobi) <= 1e-12

    def test_forest_converges_in_two_sweeps(self, rng):
        """Each component is rooted at its own smallest site."""
        left, _ = random_tree_sites(rng, n_sites=5, max_dim=3)
        right, _ = random_tree_sites(rng, n_sites=4, max_dim=3)
        sites = dict(left)
        for k, ts in right.items():
            sites[10 + k] = [t.relabel({l: "f" + l for l in t.inds}) for t in ts]
        sn = SiteNetwork(sites)
        ms = bp_iterate(sn, tol=0.0, max_iter=10)
        assert (ms.iterations, ms.max_delta) == (2, 0.0)
        assert max_message_gap(ms, ref.bp_iterate_jacobi(sn, tol=1e-13)) <= 1e-12

    @pytest.mark.parametrize("mode", ["one-norm", "two-norm"])
    @pytest.mark.parametrize("seed", range(5))
    def test_ring_matches_jacobi_bethe_value(self, mode, seed):
        rng = np.random.default_rng(4800 + seed)
        sites, outer = random_ring_sites(rng, 6, phys=mode == "two-norm")
        if mode == "two-norm":
            sites = doubled_sites(sites, outer=outer)
        sn = SiteNetwork(sites)
        ms = bp_iterate(sn, tol=1e-12, max_iter=1000, mode=mode)
        jacobi = ref.bp_iterate_jacobi(sn, tol=1e-12, max_iter=1000, mode=mode)
        assert ms.converged and jacobi.converged
        got, want = l1bp_value(sn, ms), l1bp_value(sn, jacobi)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def random_forest_sites(rng, sizes, max_dim=3):
    """Random trees of the given sizes side by side; tree t's sites are
    ``100 * t + k`` and its labels carry the prefix ``t<t>``."""
    sites = {}
    for t, n_sites in enumerate(sizes):
        tree, _ = random_tree_sites(rng, n_sites=n_sites, max_dim=max_dim)
        for k, ts in tree.items():
            sites[100 * t + k] = [x.relabel({l: f"t{t}{l}" for l in x.inds}) for x in ts]
    return sites


class TestChangeDrivenSweeps:
    """``bp_iterate`` skips an update whose input messages (and, with
    damping, its own) carry the bits it last read; it must return the bits
    of ``tn_reference.bp_iterate_recompute``, which recomputes every update
    of every sweep."""

    @staticmethod
    def network(kind, seed, mode):
        rng = np.random.default_rng(seed)
        outer = ()
        if kind == "tree":
            sites, _ = random_tree_sites(rng, n_sites=int(rng.integers(2, 9)), max_dim=3)
        elif kind == "forest":
            # the first tree has a bond, a later one may be a lone site
            sizes = [int(rng.integers(2, 6))] + [int(rng.integers(1, 6)) for _ in range(2)]
            sites = random_forest_sites(rng, sizes)
        else:
            sites, outer = random_ring_sites(
                rng, int(rng.integers(4, 8)), phys=mode == "two-norm", real=seed % 2 == 1
            )
        if mode == "two-norm":
            sites = doubled_sites(sites, outer=outer)
        return SiteNetwork(sites)

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["tree", "forest", "ring"]),
        mode=st.sampled_from(["one-norm", "two-norm"]),
        damping=st.sampled_from([0.0, 0.3]),
        with_init=st.booleans(),
        stop=st.sampled_from([(1e-11, 40), (0.0, 6), (1e-3, 3)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_recompute_reference_bits(self, seed, kind, mode, damping, with_init, stop):
        sn = self.network(kind, seed, mode)
        tol, max_iter = stop
        kwargs = dict(mode=mode, tol=tol, max_iter=max_iter, damping=damping)
        if with_init:
            start = ref.bp_iterate_recompute(sn, mode=mode, tol=1e-2, max_iter=2)
            # init messages in their reversed label order, and one left out
            init = {key: t.transpose_to(t.inds[::-1]) for key, t in start.messages.items()}
            del init[min(init)]
            kwargs["init"] = init
        assert_same_messages(bp_iterate(sn, **kwargs), ref.bp_iterate_recompute(sn, **kwargs))

    @pytest.mark.parametrize("mode", ["one-norm", "two-norm"])
    @pytest.mark.parametrize("kind", ["tree", "forest"])
    @pytest.mark.parametrize("seed", range(3))
    def test_confirming_sweep_contracts_nothing(self, monkeypatch, kind, mode, seed):
        """On a tree or forest the second sweep's inputs are those of the
        first, so it replays no plan."""
        runs = []
        inner = ContractionPlan.run

        def counting(plan, arrays):
            runs.append(1)
            return inner(plan, arrays)

        monkeypatch.setattr(ContractionPlan, "run", counting)
        sn = self.network(kind, 5100 + seed, mode)
        first = bp_iterate(sn, tol=0.0, max_iter=1, mode=mode)
        assert first.iterations == 1 and len(runs) == 2 * len(sn.edges)
        runs.clear()
        ms = bp_iterate(sn, tol=0.0, max_iter=10, mode=mode)
        assert (ms.iterations, ms.max_delta, ms.converged) == (2, 0.0, True)
        assert len(runs) == 2 * len(sn.edges)
        for key, t in first.messages.items():
            assert ms.messages[key].data.tobytes() == t.data.tobytes()

    def test_equal_values_in_another_dtype_count_as_a_change(self):
        """A rewrite whose change is 0.0 but whose bits differ still moves
        the message's version.  On the ring 0-1-2 the first sweep sends
        1 -> 0 from the starting 2 -> 1, which is set to the complex copy
        of the value 2 -> 1 is about to get; the second sweep must recompute
        1 -> 0 from the float64 value."""
        rng = np.random.default_rng(5300)
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        sn = SiteNetwork(
            {0: [Tensor(a, ("ab", "ac"))], 1: [Tensor(b, ("ab", "bc"))], 2: [Tensor(c, ("ac", "bc"))]}
        )
        a_to_c = Tensor(np.array([0.25, 0.75]), ("ac",))
        c_to_b = contract([sn.sites[2][0], a_to_c], output=("bc",))
        c_to_b, _ = ref._finish(c_to_b, c_to_b, "one-norm", 0.0)
        init = {(0, 2): a_to_c, (2, 1): Tensor(c_to_b.data.astype(complex), ("bc",))}
        kwargs = dict(tol=0.0, max_iter=2, init=init)
        ms = bp_iterate(sn, **kwargs)
        assert_same_messages(ms, ref.bp_iterate_recompute(sn, **kwargs))
        assert ms.messages[(1, 0)].data.dtype == np.float64


class TestNonFiniteMessages:
    """A NaN message ends BP unconverged, with the NaN as the residual;
    ``max`` would otherwise keep the sweep's 0.0 and call it converged."""

    @staticmethod
    def nan_ring():
        rng = np.random.default_rng(5200)
        x_y, y_z, z_x = (rng.standard_normal((2, 2)) for _ in range(3))
        x_y[0, 1] = np.nan
        return SiteNetwork(
            {0: [Tensor(x_y, ("x", "y"))], 1: [Tensor(y_z, ("y", "z"))], 2: [Tensor(z_x, ("z", "x"))]}
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_nan_stops_unconverged(self, damping):
        """No numpy warning escapes either: the one-norm phase fix skips a
        NaN lead entry, and a NaN message records no scale."""
        sn = self.nan_ring()
        for run in (bp_iterate, ref.bp_iterate_recompute, ref.bp_iterate):
            ms = run(sn, tol=1e-10, max_iter=50, damping=damping)
            assert (ms.iterations, ms.converged) == (1, False)
            assert math.isnan(ms.max_delta)
        ms = bp_iterate(sn, tol=1e-10, max_iter=50, damping=damping)
        assert all(math.isfinite(abs(c)) for c in ms.scales.values())
        assert cmath.isnan(l1bp_value(sn, ms))


class TestReusedSiteFactors:
    """Without damping ``bp_iterate`` records, for each message whose
    incoming messages are still the arrays it was computed from, the factor
    c its contraction was divided by (``MessageSet.scales``).
    ``l1bp_value`` takes such a site's factor as c <m_ij, m_ji> instead of
    contracting it again, which changes the value only by rounding."""

    network = staticmethod(TestChangeDrivenSweeps.network)

    @staticmethod
    def fresh(sn, ms, i, j):
        """Site i contracted with its current incoming messages but j's."""
        incoming = [ms.messages[(l, i)] for l in sn.neighbors(i) if l != j]
        return contract(sn.sites[i] + incoming, output=ms.messages[(i, j)].inds).data

    @pytest.mark.parametrize("mode", ["one-norm", "two-norm"])
    @pytest.mark.parametrize("kind", ["tree", "forest", "ring"])
    @pytest.mark.parametrize("seed", range(4))
    def test_value_with_and_without_scales(self, kind, mode, seed):
        sn = self.network(kind, 5300 + seed, mode)
        for kwargs in (dict(tol=1e-11, max_iter=60), dict(tol=0.0, max_iter=2), dict(max_iter=1)):
            ms = bp_iterate(sn, mode=mode, **kwargs)
            if kind != "ring":
                # every message of a tree is final after the first sweep
                assert ms.scales.keys() == ms.messages.keys()
            full = l1bp_value(sn, dataclasses.replace(ms, scales={}))
            assert abs(l1bp_value(sn, ms) - full) <= 1e-12 * abs(full)

    @pytest.mark.parametrize("mode", ["one-norm", "two-norm"])
    @pytest.mark.parametrize("kind", ["tree", "forest", "ring"])
    @pytest.mark.parametrize("seed", range(4))
    def test_scales_are_what_the_update_divided_out(self, kind, mode, seed):
        """A recorded scale turns the stored message back into the site's
        contraction.  A message whose inputs changed after it was computed
        (only on loops, before convergence) records none: the first update
        of a ring's first sweep reads start messages that the same sweep
        replaces."""
        sn = self.network(kind, 5400 + seed, mode)
        for max_iter in (1, 2):
            ms = bp_iterate(sn, mode=mode, tol=0.0, max_iter=max_iter)
            for (i, j), m in ms.messages.items():
                if (i, j) in ms.scales:
                    fresh = self.fresh(sn, ms, i, j)
                    got = ms.scales[(i, j)] * m.data
                    assert np.abs(got - fresh).max() <= 1e-12 * np.abs(fresh).max()
                else:
                    assert kind == "ring"
            if kind == "ring" and max_iter == 1:
                assert bp._schedule(sn)[0] not in ms.scales

    @pytest.mark.parametrize("mode", ["one-norm", "two-norm"])
    @pytest.mark.parametrize("kind", ["tree", "ring"])
    def test_no_scales_with_damping_or_without_updates(self, kind, mode):
        sn = self.network(kind, 5500, mode)
        assert bp_iterate(sn, mode=mode, tol=1e-11, max_iter=60, damping=0.3).scales == {}
        assert bp_iterate(sn, mode=mode, max_iter=0).scales == {}
