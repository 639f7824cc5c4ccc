"""Labeled tensors and contraction against brute-force index sums."""

from collections import Counter

import numpy as np
import pytest

from spdtn import Tensor, tensor
from spdtn.tensor import (
    CapacityError,
    ContractionPlan,
    contract,
    greedy_path,
    plan_contraction,
    svd_rank,
    truncated_svd,
)

import tn_reference as ref
from conftest import naive_contract


def random_tensor(rng, labels, dims):
    shape = tuple(dims[l] for l in labels)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Tensor(data, labels)


def dangling(tensors):
    """The labels on one tensor only, in order of first appearance."""
    counts = Counter(l for t in tensors for l in t.inds)
    return tuple(l for l, c in counts.items() if c == 1)


def closed(rng, tensors, output):
    """The network with a random vector on each output label: a scalar."""
    dims = {l: t.dim(l) for t in tensors for l in t.inds}
    return tensors + [random_tensor(rng, (l,), dims) for l in output]


def random_network(rng, n_tensors=5, n_labels=7, max_dim=3):
    """Random pairwise network, every label on at most two tensors; returns
    (tensors, output) with the dangling labels as the output."""
    labels = [f"l{k}" for k in range(n_labels)]
    dims = {l: int(rng.integers(2, max_dim + 1)) for l in labels}
    slots = {l: 2 for l in labels}
    tensors = []
    for _ in range(n_tensors):
        avail = [l for l in labels if slots[l] > 0]
        take = rng.choice(
            len(avail), size=min(len(avail), int(rng.integers(1, 4))), replace=False
        )
        chosen = tuple(avail[i] for i in take)
        for l in chosen:
            slots[l] -= 1
        tensors.append(random_tensor(rng, chosen, dims))
    return tensors, dangling(tensors)


class TestTensorBasics:
    def test_shape_label_mismatch(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3)), ("a",))

    def test_dim_relabel_transpose(self, rng):
        t = random_tensor(rng, ("a", "b", "c"), {"a": 2, "b": 3, "c": 4})
        assert t.dim("b") == 3
        r = t.relabel({"b": "x"})
        assert r.inds == ("a", "x", "c")
        p = t.transpose_to(("c", "a", "b"))
        assert p.data.shape == (4, 2, 3)
        np.testing.assert_array_equal(p.data, np.transpose(t.data, (2, 0, 1)))
        with pytest.raises(ValueError):
            t.transpose_to(("a", "b"))

    def test_to_matrix(self, rng):
        t = random_tensor(rng, ("a", "b", "c"), {"a": 2, "b": 3, "c": 4})
        m = t.to_matrix(("c", "a"), ("b",))
        assert m.shape == (8, 3)
        np.testing.assert_allclose(
            m[1 * 2 + 0, 2], t.data[0, 2, 1]
        )

    def test_item(self):
        assert Tensor(np.asarray(2.0 + 1j), ()).item() == 2.0 + 1j
        with pytest.raises(ValueError):
            Tensor(np.zeros(3), ("a",)).item()

    def test_conj(self, rng):
        t = random_tensor(rng, ("a",), {"a": 3})
        np.testing.assert_array_equal(t.conj().data, t.data.conj())


class TestContract:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_scalar(self, seed):
        rng = np.random.default_rng(600 + seed)
        tensors, output = random_network(rng)
        got = contract(tensors, output)
        np.testing.assert_allclose(got.data, naive_contract(tensors, output), atol=1e-10)
        # close the dangling labels with vectors so the result is a scalar
        net = closed(rng, tensors, output)
        got = contract(net).item()
        want = naive_contract(net).item()
        assert np.isclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_with_output(self, seed):
        rng = np.random.default_rng(700 + seed)
        dims = {"a": 2, "b": 3, "c": 2, "d": 3}
        t1 = random_tensor(rng, ("a", "b", "c"), dims)
        t2 = random_tensor(rng, ("c", "d"), dims)
        got = contract([t1, t2], output=("d", "b", "a"))
        want = naive_contract([t1, t2], output=("d", "b", "a"))
        assert got.inds == ("d", "b", "a")
        np.testing.assert_allclose(got.data, want, atol=1e-10)

    @pytest.mark.parametrize(
        "inds, output, path, match",
        [
            ((("a", "a", "b"),), ("b",), None, "label 'a' repeated on one tensor"),
            ((("a", "b"), ("b", "c")), ("a",), None, "dangling label 'c' is not in"),
            ((("a", "b"), ("b", "c"), ("c", "a")), (), [(0, 1)], "2 tensors left"),
            ((("a", "b"), ("b", "a")), (), [(1, 0)], r"step \(1, 0\) is not a pair"),
        ],
        ids=["trace", "dangling-summed", "partial-path", "unordered-step"],
    )
    def test_rejects_non_pairwise(self, rng, inds, output, path, match):
        dims = {"a": 3, "b": 2, "c": 2}
        tensors = [random_tensor(rng, ls, dims) for ls in inds]
        # an invalid network is never cached: the second call raises too
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                contract(tensors, output, path=path)

    def test_disconnected_outer_product(self, rng):
        t1 = random_tensor(rng, ("a",), {"a": 2})
        t2 = random_tensor(rng, ("b",), {"b": 3})
        closer_a = random_tensor(rng, ("a",), {"a": 2})
        closer_b = random_tensor(rng, ("b",), {"b": 3})
        got = contract([t1, t2, closer_a, closer_b]).item()
        want = naive_contract([t1, t2, closer_a, closer_b]).item()
        assert np.isclose(got, want)

    def test_empty_network(self):
        assert contract([]).item() == 1.0
        with pytest.raises(ValueError):
            contract([], output=("a",))

    def test_error_cases(self, rng):
        t = random_tensor(rng, ("a", "b"), {"a": 2, "b": 2})
        with pytest.raises(ValueError, match="hyperedges"):
            contract([t, t, t])
        with pytest.raises(ValueError, match="absent"):
            contract([t], output=("z",))
        with pytest.raises(ValueError, match="repeated"):
            contract([t], output=("a", "a"))


def random_open_network(rng):
    """Random pairwise network with labels of dimension 1 to 3, scalar
    tensors and often disconnected pieces; returns (tensors, output) with
    the dangling labels in random order as the output."""
    labels = [f"l{k}" for k in range(int(rng.integers(3, 9)))]
    dims = {l: int(rng.integers(1, 4)) for l in labels}
    slots = {l: int(rng.integers(1, 3)) for l in labels}
    inds: list[list[str]] = [[] for _ in range(int(rng.integers(1, 6)))]
    for l in labels:
        for k in rng.choice(len(inds), size=min(slots[l], len(inds)), replace=False):
            inds[int(k)].append(l)
    for ls in inds:
        rng.shuffle(ls)
    tensors = [random_tensor(rng, tuple(ls), dims) for ls in inds]
    output = tuple(rng.permutation(dangling(tensors)).tolist())
    return tensors, output


def random_path(rng, n):
    """A random complete path in the position convention."""
    path = []
    for _ in range(n - 1):
        i, j = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
        path.append((i, j))
        n -= 1
    return path


def renamed(rng, tensors, output):
    """The network with its labels renamed by a random bijection."""
    labels = sorted({l for t in tensors for l in t.inds})
    names = dict(zip(labels, (f"m{k}" for k in rng.permutation(len(labels)))))
    return [t.relabel(names) for t in tensors], tuple(names[l] for l in output)


def assert_same_tensor(got, want):
    assert got.inds == want.inds
    assert got.data.shape == want.data.shape
    assert got.data.dtype == want.data.dtype
    assert got.data.tobytes() == want.data.tobytes()


class TestPlannedContraction:
    """``contract`` is plan then run, with plans cached by structure; fresh
    plans and cache hits must give the bits of the earlier re-planning
    ``contract`` kept in ``tn_reference``."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference_bits(self, seed, greedy_calls):
        rng = np.random.default_rng(3100 + seed)
        tensors, output = random_open_network(rng)
        shut = closed(rng, tensors, output)
        assert_same_tensor(contract(tensors, output), ref.contract(tensors, output))
        assert_same_tensor(contract(shut), ref.contract(shut))
        planned = len(greedy_calls)
        # the same structure under other label names is a cache hit, and
        # the hit carries the caller's output labels
        other, other_out = renamed(rng, tensors, output)
        other_shut, _ = renamed(rng, shut, ())
        assert_same_tensor(contract(other, other_out), ref.contract(other, other_out))
        assert_same_tensor(contract(other_shut), ref.contract(other_shut))
        assert len(greedy_calls) == planned

    @pytest.mark.parametrize("seed", range(30))
    def test_explicit_path_matches_reference_bits(self, seed, greedy_calls):
        rng = np.random.default_rng(3200 + seed)
        tensors, output = random_open_network(rng)
        path = random_path(rng, len(tensors))
        other, other_out = renamed(rng, tensors, output)
        for net, out in ((tensors, output), (other, other_out)):
            assert_same_tensor(
                contract(net, out, path=path), ref.contract(net, out, path=path)
            )
        assert greedy_calls == []  # an explicit path is kept

    @pytest.mark.parametrize("seed", range(20))
    def test_new_dimensions_plan_anew(self, seed, greedy_calls):
        rng = np.random.default_rng(3250 + seed)
        tensors, output = random_open_network(rng)
        contract(tensors, output)
        planned = len(greedy_calls)
        # one label one longer on every tensor that carries it
        labels = sorted({l for t in tensors for l in t.inds})
        label = labels[int(rng.integers(len(labels)))]
        wider = []
        for t in tensors:
            shape = tuple(d + (l == label) for l, d in zip(t.inds, t.data.shape))
            wider.append(random_tensor(rng, t.inds, dict(zip(t.inds, shape))))
        assert_same_tensor(contract(wider, output), ref.contract(wider, output))
        assert len(greedy_calls) == planned + 1

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_path_matches_reference(self, seed):
        rng = np.random.default_rng(3300 + seed)
        tensors, output = random_network(rng, n_tensors=7, n_labels=10, max_dim=4)
        # the reference also keeps a shared output label, which a pairwise
        # network never has, so it plans from the network's output
        assert greedy_path(tensors) == ref.greedy_path(tensors, output)

    def test_cache_keeps_most_recent_plans(self, rng, monkeypatch, greedy_calls):
        monkeypatch.setattr(tensor, "PLAN_CACHE_SIZE", 2)
        nets = [[random_tensor(rng, ("a", "b"), {"a": 2, "b": d})] for d in (2, 3, 4)]
        for k in (0, 1, 0, 2):  # the third plan evicts the least recently used
            contract(nets[k], output=("b", "a"))
        assert len(greedy_calls) == 3
        for k, planned in ((0, 3), (2, 3), (1, 4)):
            contract(nets[k], output=("b", "a"))
            assert len(greedy_calls) == planned

    def test_plan_reads_shapes_and_replays(self, rng, empty_plan_cache):
        dims = {"a": 2, "b": 3, "c": 4, "d": 2, "e": 3}
        t1 = random_tensor(rng, ("a", "e"), dims)
        t2 = random_tensor(rng, ("b", "c", "d"), dims)
        t3 = random_tensor(rng, ("c", "e", "a"), dims)
        plan = plan_contraction([t1, t2, t3], output=("d", "b"))
        assert isinstance(plan, ContractionPlan)
        names = {"a": "x", "b": "d", "c": "b", "d": "a", "e": "y"}
        renamed = [t.relabel(names) for t in (t1, t2, t3)]
        # a plan holds no labels: a hit under other labels is the cached plan
        assert plan_contraction(renamed, output=("a", "d")) is plan
        assert plan_contraction([t1, t2, t3], output=("d", "b")) is plan
        got = contract(renamed, ("a", "d"))
        assert got.inds == ("a", "d")
        tensor.clear_plan_cache()
        fresh_plan = plan_contraction(renamed, output=("a", "d"))
        assert fresh_plan is not plan
        assert (fresh_plan.steps, fresh_plan.perm) == (plan.steps, plan.perm)
        assert got.data.tobytes() == fresh_plan.run([t.data for t in renamed]).tobytes()
        for _ in range(3):
            fresh = [random_tensor(rng, t.inds, dims) for t in (t1, t2, t3)]
            got = plan.run([t.data for t in fresh])
            want = ref.contract(fresh, ("d", "b"))
            assert got.tobytes() == want.data.tobytes()

    def test_checks_run_at_plan_time(self, rng, empty_plan_cache):
        t = random_tensor(rng, ("a", "b"), {"a": 2, "b": 2})
        u = random_tensor(rng, ("a", "c"), {"a": 3, "c": 2})
        # the same labels with matching dimensions, planned first
        out = ("b", "c")
        plan_contraction([t, random_tensor(rng, ("a", "c"), {"a": 2, "c": 2})], out)
        cases = [
            ("hyperedges", ([t, t, t],), {}),
            ("absent", ([t],), dict(output=("z",))),
            ("output label 'a' repeated", ([t],), dict(output=("a", "a"))),
            ("'a' is shared by two tensors and also in the output", ([t, t],),
             dict(output=("a",), path=[(0, 1)])),
            ("no tensors", ([],), dict(output=("a",))),
            ("different dimensions", ([t, u],), dict(output=out)),
        ]
        # an invalid network is never cached: it raises, naming its own
        # labels, on every call
        for _ in range(2):
            for match, args, kwargs in cases:
                with pytest.raises(ValueError, match=match):
                    plan_contraction(*args, **kwargs)
        with pytest.raises(ValueError, match=r"\['a'\] have different dimensions"):
            plan_contraction([t, u], out)
        with pytest.raises(ValueError, match=r"\['q'\] have different dimensions"):
            plan_contraction([t.relabel({"a": "q"}), u.relabel({"a": "q"})], out)

    def test_empty_plan_runs_to_one(self):
        assert plan_contraction([]).run([]) == 1.0


class TestGreedyPath:
    def test_path_is_valid_and_complete(self, rng):
        tensors, _ = random_network(rng, n_tensors=6)
        path = greedy_path(tensors)
        live = len(tensors)
        for i, j in path:
            assert 0 <= i < j < live
            live -= 1
        assert live == 1

    def test_budget_names_offender(self, rng):
        big = random_tensor(rng, ("a", "b"), {"a": 50, "b": 50})
        other = random_tensor(rng, ("b", "c"), {"b": 50, "c": 50})
        with pytest.raises(CapacityError, match="budget is 100"):
            greedy_path([big, other], budget=100)

    def test_explicit_path_matches_greedy(self, rng):
        dims = {"a": 2, "b": 3, "c": 4}
        t1 = random_tensor(rng, ("a", "b"), dims)
        t2 = random_tensor(rng, ("b", "c"), dims)
        t3 = random_tensor(rng, ("c", "a"), dims)
        auto = contract([t1, t2, t3]).item()
        manual = contract([t1, t2, t3], path=[(0, 1), (0, 1)]).item()
        assert np.isclose(auto, manual)


class TestTruncatedSvd:
    def test_exact_split_reconstructs(self, rng):
        t = random_tensor(rng, ("a", "b", "c"), {"a": 2, "b": 3, "c": 4})
        u, s, vh, dw = truncated_svd(t, ("a", "b"), new_label="k")
        assert dw == 0.0
        assert u.inds == ("a", "b", "k")
        assert vh.inds == ("k", "c")
        recon = contract(
            [u, Tensor(np.diag(s).astype(complex), ("k", "k2")), vh.relabel({"k": "k2"})],
            output=("a", "b", "c"),
        )
        np.testing.assert_allclose(recon.data, t.data, atol=1e-10)

    def test_truncation_error_bound(self, rng):
        # rank-deficient-ish matrix: truncating to chi keeps the top part
        a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
        a = a + 1e-3 * rng.standard_normal((6, 5))
        t = Tensor(a.astype(complex), ("r", "c"))
        u, s, vh, dw = truncated_svd(t, ("r",), chi=2, new_label="k")
        assert len(s) == 2
        recon = contract(
            [u, Tensor(np.diag(s).astype(complex), ("k", "k2")), vh.relabel({"k": "k2"})],
            output=("r", "c"),
        ).data
        err2 = np.linalg.norm(a - recon) ** 2
        total2 = np.linalg.norm(a) ** 2
        assert np.isclose(err2 / total2, dw, rtol=1e-6, atol=1e-12)

    def test_bad_left_labels(self, rng):
        t = random_tensor(rng, ("a", "b"), {"a": 2, "b": 2})
        with pytest.raises(ValueError):
            truncated_svd(t, ("z",))


class TestSvdRank:
    def test_kappa_rule(self):
        s = np.array([1.0, 0.1, 1e-8])
        assert svd_rank(s, None, 0.0) == 3
        # discarding 1e-8 costs (1e-8)^2 relative ~ 1e-16 << kappa^2
        assert svd_rank(s, None, 1e-6) == 2
        assert svd_rank(s, None, 0.2) == 1
        assert svd_rank(s, 2, 0.0) == 2
        assert svd_rank(s, 10, 0.0) == 3

    def test_zero_spectrum(self):
        assert svd_rank(np.zeros(4), None, 0.0) == 1
        assert svd_rank(np.zeros(4), 3, 1e-3) == 1

    def test_at_least_one(self):
        assert svd_rank(np.array([1.0]), 0, 0.9999) == 1
