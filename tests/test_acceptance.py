"""End-to-end acceptance gate: ten checks, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see every verdict line.
Each check prints ``ACCEPTANCE NN PASS|FAIL: detail`` before asserting so the
tally stays visible when a check fails.  The checks cover: exact-limit
agreement of the sparse engine on small fragments, Clifford-point exactness
at full device scale, norm conservation, lossless tensor-network evolution,
message-passing exactness on trees, the loop-error survey, a full-scale
smoke run with threshold self-convergence, bond-dimension convergence shape,
cross-method agreement, and the convergence diagnostics' arithmetic.
"""

import math
import time

import numpy as np

from spdtn import (
    PauliSum,
    PauliWord,
    MessageSet,
    SiteNetwork,
    Tensor,
    apply_rotation,
    bp_iterate,
    chain,
    clifford_expectation,
    convergence_report,
    device_127,
    exact_contract,
    heavy_hex,
    kicked_ising,
    l1bp_value,
    lightcone_prune,
    loop_error_histogram,
    parse_pauli,
    recompile,
    ring,
    run_spd,
    run_tn,
    statevector_expectation,
)

from conftest import (
    DELTA_AV_EXAMPLE,
    EXTRAP_INTERCEPT_EXAMPLE,
    EXTRAP_SLOPE_EXAMPLE,
    O_AV_EXAMPLE,
    SIGMA_EXAMPLE,
    heavy_hex_fragments,
    random_tree_sites,
)

THETA_GRID = [k * math.pi / 32 for k in range(17)]


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_01_exact_limit_on_fragments():
    """Zero-threshold sparse evolution equals the statevector oracle."""
    fragments = heavy_hex_fragments(20, max_n=16)
    assert len(fragments) >= 20 and all(lat.n <= 16 for lat in fragments)
    t0 = time.perf_counter()
    worst = 0.0
    for i, lat in enumerate(fragments):
        steps = (i % 6) + 1
        theta = ((3 * i + 5) % 17) * math.pi / 32
        word = PauliWord.from_sites(lat.n, z=(i % lat.n,))
        circuit = kicked_ising(lat, steps, theta)
        pruned = lightcone_prune(circuit, word.support())
        got = run_spd(recompile(pruned, word), delta=0.0).expectation
        ref = statevector_expectation(circuit, word)
        worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 60.0
    verdict(
        1,
        ok,
        f"{len(fragments)} fragments (n 5..16, T 1..6): max |Delta| = "
        f"{worst:.3e} (<= 1e-10), total {elapsed:.1f}s (<= 60s)",
    )


def test_02_clifford_points_full_device():
    """At theta in {0, pi/2} the full 127-qubit run stays a single word."""
    lat = device_127()
    word = parse_pauli("Z62", lat.n)
    worst_time = 0.0
    checks = []
    for steps in (20, 7):
        for theta in (0.0, math.pi / 2):
            circuit = kicked_ising(lat, steps, theta)
            t0 = time.perf_counter()
            res = run_spd(recompile(circuit, word), delta=0.0)
            t1 = time.perf_counter()
            tableau = clifford_expectation(circuit, word)
            t2 = time.perf_counter()
            worst_time = max(worst_time, t1 - t0, t2 - t1)
            checks.append(
                res.peak_terms == 1
                and res.expectation in (-1.0, 0.0, 1.0)
                and res.expectation == tableau
            )
    ok = all(checks) and worst_time <= 5.0
    verdict(
        2,
        ok,
        f"127 qubits, T in {{7, 20}}, theta in {{0, pi/2}}: single-term, "
        f"quantized, tableau-equal = {all(checks)}, worst call "
        f"{worst_time:.2f}s (<= 5s)",
    )


def test_03_norm_conservation():
    """Rotations at delta = 0 preserve the Frobenius norm."""
    rng = np.random.default_rng(20260814)
    n = 6
    s = PauliSum.from_terms(n, [(PauliWord.from_sites(n, z=(2,)), 1.0)])
    drift = 0.0
    for _ in range(1200):
        while True:
            z = tuple(int(q) for q in np.flatnonzero(rng.random(n) < 0.4))
            x = tuple(int(q) for q in np.flatnonzero(rng.random(n) < 0.4))
            if z or x:
                break
        axis = PauliWord.from_sites(n, z=z, x=x)
        s = apply_rotation(s, axis, float(rng.uniform(0.0, 2.0 * math.pi)))
        drift = max(drift, abs(s.frobenius_norm() - 1.0))
    ok = drift < 1e-10
    verdict(
        3,
        ok,
        f"1200 rotations on 6 qubits at delta = 0: max norm drift "
        f"{drift:.3e} (< 1e-10), final terms {s.num_terms}",
    )


def test_04_lossless_tensor_network_regime():
    """With chi >= 2^T and no cutoff, every network method is exact."""
    cases = [
        (heavy_hex(1, 1), 3, 5),
        (heavy_hex(1, 1), 4, 9),
        (chain(16), 3, 7),
        (ring(14), 4, 3),
    ]
    worst_delta = 0.0
    worst_norm = 0.0
    for lat, steps, k in cases:
        theta = k * math.pi / 32
        circuit = kicked_ising(lat, steps, theta)
        word = PauliWord.from_sites(lat.n, z=(lat.n // 2,))
        ref = statevector_expectation(circuit, word)
        for method in ("peps", "pepo", "mix"):
            res = run_tn(
                circuit,
                word,
                method,
                chi=2**steps,
                kappa=0.0,
                bp_tol=1e-12,
                bp_max_iter=512,
                lightcone=False,
            )
            norm = {"peps": res.n_psi, "pepo": res.n_o, "mix": res.n_mix}[method]
            worst_delta = max(worst_delta, abs(res.expectation - ref))
            worst_norm = max(worst_norm, abs(norm - 1.0))
    ok = worst_delta <= 1e-6 and worst_norm <= 1e-6
    verdict(
        4,
        ok,
        f"12-16 qubit fragments, T <= 4, chi = 2^T: max |Delta| = "
        f"{worst_delta:.3e} (<= 1e-6), max |norm - 1| = {worst_norm:.3e} "
        f"(<= 1e-6) over peps/pepo/mix",
    )


def test_05_tree_exactness_and_gauge():
    """Bethe contraction is exact on trees and gauge invariant."""
    rng = np.random.default_rng(20260814)
    worst_rel = 0.0
    worst_gauge = 0.0
    for trial in range(100):
        sites, _ = random_tree_sites(rng, int(rng.integers(2, 31)), max_dim=8)
        sn = SiteNetwork(sites)
        exact = exact_contract(sn)
        ms = bp_iterate(sn, tol=1e-14, max_iter=400)
        bethe = l1bp_value(sn, ms)
        worst_rel = max(worst_rel, abs(bethe - exact) / abs(exact))
        if trial % 10 == 0:
            scaled = {
                key: Tensor(t.data * float(rng.uniform(0.1, 10.0)), t.inds)
                for key, t in ms.messages.items()
            }
            rescaled = l1bp_value(sn, MessageSet(scaled))
            worst_gauge = max(
                worst_gauge, abs(rescaled - bethe) / max(abs(bethe), 1e-300)
            )
    ok = worst_rel <= 1e-10 and worst_gauge <= 1e-12
    verdict(
        5,
        ok,
        f"100 random trees (<= 30 tensors, dims <= 8): max rel err "
        f"{worst_rel:.3e} (<= 1e-10), max gauge deviation {worst_gauge:.3e} "
        f"(<= 1e-12)",
    )


def test_06_loop_error_survey():
    """The loop-error harness runs and its median error is small."""
    rep = loop_error_histogram()
    ok = len(rep.errors) > 0 and rep.median <= 1e-2
    verdict(
        6,
        ok,
        f"{len(rep.errors)} loopy sandwiches: median |Bethe - exact| = "
        f"{rep.median:.3e} (<= 1e-2), tail up to {max(rep.errors):.3e} "
        f"(reported, not asserted)",
    )
    for line in rep.format().splitlines():
        print(f"    {line}")


def test_07_full_scale_smoke_and_self_convergence():
    """Full 127-qubit sweep at the quick threshold and its half."""
    lat = device_127()
    word = parse_pauli("Z62", lat.n)
    delta = 8e-4
    values = {}
    worst_point = 0.0
    for theta in THETA_GRID:
        circuit = lightcone_prune(kicked_ising(lat, 20, theta), word.support())
        rc = recompile(circuit, word)
        for d in (delta, delta / 2):
            t0 = time.perf_counter()
            values[(theta, d)] = run_spd(rc, delta=d).expectation
            worst_point = max(worst_point, time.perf_counter() - t0)
    gaps = [abs(values[(t, delta)] - values[(t, delta / 2)]) for t in THETA_GRID]
    for k, theta in enumerate(THETA_GRID):
        print(
            f"    k={k:2d} v({delta})={values[(theta, delta)]:+.6f} "
            f"v({delta / 2})={values[(theta, delta / 2)]:+.6f} "
            f"gap={gaps[k]:.4f}"
        )
    max_gap = max(gaps)
    at_zero = values[(0.0, delta)] == 1.0 and values[(0.0, delta / 2)] == 1.0
    at_half = (
        values[(THETA_GRID[-1], delta)] == 0.0
        and values[(THETA_GRID[-1], delta / 2)] == 0.0
    )
    ok_time = worst_point <= 600.0
    ok_gap = max_gap <= 0.05
    ok = ok_time and ok_gap and at_zero and at_half
    verdict(
        7,
        ok,
        f"127 qubits, T = 20, Z62, delta = 8e-4 vs 4e-4: worst point "
        f"{worst_point:.1f}s (<= 600s), max |v(d) - v(d/2)| = {max_gap:.4f} "
        f"at k={gaps.index(max_gap)} (<= 0.05), theta=0 -> 1.0 exactly "
        f"{at_zero}, theta=pi/2 -> 0.0 exactly {at_half}",
    )


def test_08_mix_convergence_shape():
    """Sandwich-method values rise monotonically to the oracle with chi."""
    lat = chain(16)
    theta = 9 * math.pi / 32
    circuit = kicked_ising(lat, 8, theta)
    word = parse_pauli("Z7", lat.n)
    ref = statevector_expectation(circuit, word)
    chis = (8, 16, 32, 64)
    vals = [
        run_tn(
            circuit,
            word,
            "mix",
            chi=chi,
            kappa=0.0,
            bp_tol=1e-10,
            bp_max_iter=512,
            lightcone=False,
        ).expectation
        for chi in chis
    ]
    monotone = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    from_below = all(v <= ref + 1e-12 for v in vals)
    final_delta = abs(vals[-1] - ref)
    ok = monotone and from_below and final_delta <= 1e-3
    verdict(
        8,
        ok,
        f"chain(16), T = 8, mix chi in {chis}: monotone = {monotone}, "
        f"below oracle = {from_below}, final |Delta| = {final_delta:.3e} "
        f"(<= 1e-3); values {[round(v, 8) for v in vals]} vs oracle "
        f"{ref:.8f}",
    )


def test_09_cross_method_spread():
    """All four engines agree on a 12-qubit fragment at adequate settings."""
    lat = heavy_hex(1, 1)
    steps = 6
    word = PauliWord.from_sites(lat.n, z=(6,))
    worst_spread = 0.0
    for k in (0, 4, 8, 12, 16):
        theta = k * math.pi / 32
        circuit = kicked_ising(lat, steps, theta)
        pruned = lightcone_prune(circuit, word.support())
        vals = [run_spd(recompile(pruned, word), delta=1e-6).expectation]
        for method in ("peps", "pepo", "mix"):
            vals.append(
                run_tn(
                    circuit,
                    word,
                    method,
                    chi=32,
                    kappa=0.0,
                    bp_tol=1e-10,
                    bp_max_iter=256,
                    lightcone=False,
                ).expectation
            )
        worst_spread = max(worst_spread, max(vals) - min(vals))
    ok = worst_spread <= 2e-3
    verdict(
        9,
        ok,
        f"heavy-hex fragment, T = 6, spd(1e-6)/peps/pepo/mix(chi=32) over 5 "
        f"thetas: max spread {worst_spread:.3e} (<= 2e-3)",
    )


def test_10_diagnostics_arithmetic():
    """convergence_report matches the documented formulas bit for bit."""
    from test_bench import chi_series

    rows = chi_series([0.1, 0.2, 0.3], [1, 2, 3], norm_o=0.9)
    rep = convergence_report(rows)

    v = np.array([0.1, 0.2, 0.3], dtype=float)
    u = np.array([1.0, 1.0 / 2.0, 1.0 / 3.0], dtype=float)
    sigma = float(np.sqrt(np.mean((v - v.mean()) ** 2)))
    du = u - u.mean()
    denom = float(np.sum(du * du))
    slope = float(np.sum(du * (v - v.mean())) / denom)
    intercept = float(v.mean() - slope * u.mean())
    value_top = 0.3
    delta_extrap = abs(value_top - intercept)
    o_av = (value_top + value_top / 0.9) / 2.0
    delta_av = abs(value_top - o_av)

    bitwise = (
        rep.sigma == sigma
        and rep.slope == slope
        and rep.intercept == intercept
        and rep.extrapolated == intercept
        and rep.delta_extrap == delta_extrap
        and rep.value_top == value_top
        and rep.o_av == o_av
        and rep.delta_av == delta_av
    )
    hand = (
        abs(rep.sigma - SIGMA_EXAMPLE) <= 1e-15
        and abs(rep.slope - EXTRAP_SLOPE_EXAMPLE) <= 1e-15
        and abs(rep.intercept - EXTRAP_INTERCEPT_EXAMPLE) <= 1e-15
        and abs(rep.o_av - O_AV_EXAMPLE) <= 1e-15
        and abs(rep.delta_av - DELTA_AV_EXAMPLE) <= 1e-15
    )
    constant = convergence_report(chi_series([0.5, 0.5, 0.5], [2, 4, 8]))
    degenerate = constant.sigma == 0.0 and constant.slope == 0.0
    ok = bitwise and hand and degenerate
    verdict(
        10,
        ok,
        f"diagnostics vs documented formulas: bitwise = {bitwise}, hand "
        f"fractions (sigma {rep.sigma:.16f}, slope {rep.slope:.16f}, "
        f"intercept {rep.intercept:.16f}) within 1e-15 = {hand}, "
        f"degenerate series = {degenerate}",
    )
