"""Lattices, circuit builders and pruning."""

import math
import re

import numpy as np
import pytest

from spdtn import (
    Circuit,
    Gate,
    Layer,
    Lattice,
    chain,
    device_127,
    gate_matrix,
    grid,
    heavy_hex,
    kicked_ising,
    lightcone_prune,
    load_lattice,
    parse_pauli,
    recompile,
    ring,
    run_spd,
    statevector_expectation,
)

from conftest import dense_gate_local, random_circuit


class TestLattices:
    def test_heavy_hex_unit_cell_is_a_12_ring(self):
        lat = heavy_hex(1, 1)
        assert lat.n == 12
        assert sorted(lat.degrees()) == [2] * 12
        # one cycle through all sites: edges form a single connected 2-regular graph
        assert len(lat.edges) == 12

    def test_heavy_hex_degree_bound(self):
        for rows, cols in [(1, 2), (2, 1), (2, 3)]:
            lat = heavy_hex(rows, cols)
            assert max(lat.degrees()) == 3
            assert len(lat.edges) == 2 * sum(
                1 for _ in _honeycomb_edge_count(rows, cols)
            )

    def test_ring_chain_grid(self):
        assert ring(5).degrees() == [2] * 5
        assert chain(4).degrees() == [1, 2, 2, 1]
        g = grid(3, 4)
        assert g.n == 12
        assert len(g.edges) == 3 * 3 + 2 * 4
        assert sorted(g.degrees()) == [2] * 4 + [3] * 6 + [4] * 2

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ring(2)
        with pytest.raises(ValueError):
            chain(1)
        with pytest.raises(ValueError):
            grid(0, 3)
        with pytest.raises(ValueError):
            heavy_hex(0, 1)

    def test_lattice_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            Lattice(3, ((1, 1),))
        with pytest.raises(ValueError, match="out of range"):
            Lattice(3, ((0, 3),))
        with pytest.raises(ValueError, match="duplicate"):
            Lattice(3, ((0, 1), (1, 0)))

    def test_edges_normalized_sorted(self):
        lat = Lattice(4, ((3, 2), (1, 0)))
        assert lat.edges == ((0, 1), (2, 3))
        assert lat.neighbors(2) == [3]

    def test_device_127(self):
        lat = device_127()
        assert lat.n == 127
        assert len(lat.edges) == 144
        assert max(lat.degrees()) == 3
        assert min(lat.degrees()) >= 1


def _honeycomb_edge_count(rows, cols):
    """Parent honeycomb edges: every flag site subdivides one of them."""
    width = 2 * cols + 1
    for i in range(rows + 1):
        for j in range(width - 1):
            yield (i, j)
    for i in range(rows):
        for j in range(i % 2, width, 2):
            yield (i, j)


class TestLoadLattice:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "lat.txt"
        path.write_text("# comment\nn 5\n0 1\n1 2  # inline comment\n3 4\n")
        lat = load_lattice(path)
        assert lat.n == 5
        assert lat.edges == ((0, 1), (1, 2), (3, 4))

    def test_without_header_infers_n(self, tmp_path):
        path = tmp_path / "lat.txt"
        path.write_text("0 1\n1 7\n")
        assert load_lattice(path).n == 8

    @pytest.mark.parametrize(
        "text,match",
        [
            ("", "no edges"),
            ("0 1\nn 5\n", "stray 'n'"),
            ("n five\n0 1\n", "bad 'n'"),
            ("0 1 2\n", "expected 'u v'"),
            ("0 -1\n", "expected 'u v'"),
            ("n 2\n0 5\n", "out of range"),
        ],
    )
    def test_bad_files(self, tmp_path, text, match):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_lattice(path)


class TestKickedIsing:
    def test_layer_structure(self):
        lat = ring(5)
        circuit = kicked_ising(lat, steps=3, theta_h=0.4)
        assert circuit.n == 5
        assert len(circuit.layers) == 6
        for t in range(3):
            rx, rzz = circuit.layers[2 * t], circuit.layers[2 * t + 1]
            assert rx.step == t and rzz.step == t
            assert len(rx.gates) == 5 and len(rzz.gates) == 5
            assert all(g.name == "rx" and g.angle == 0.4 for g in rx.gates)
            assert all(
                g.name == "rzz" and g.angle == -math.pi / 2 for g in rzz.gates
            )
        assert {g.qubits for g in circuit.layers[1].gates} == set(lat.edges)

    def test_extra_x_layer(self):
        circuit = kicked_ising(ring(4), steps=2, theta_h=0.1, extra_x_layer=True)
        assert len(circuit.layers) == 5
        last = circuit.layers[-1]
        assert last.step == 2
        assert [g.name for g in last.gates] == ["rx"] * 4

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            kicked_ising(ring(4), steps=0, theta_h=0.1)


class TestLightcone:
    def test_prunes_disconnected_component(self):
        two_pairs = Lattice(4, ((0, 1), (2, 3)))
        circuit = kicked_ising(two_pairs, steps=2, theta_h=0.3)
        pruned = lightcone_prune(circuit, [0])
        # reverse cone of site 0 never reaches the 2-3 component
        assert pruned.num_gates == 6
        assert all(set(g.qubits) <= {0, 1} for g in pruned.gates())

    def test_prunes_gates_after_observable(self):
        layers = (
            Layer((Gate("h", (0,)),)),
            Layer((Gate("cx", (0, 1)),)),
            Layer((Gate("h", (2,)),)),  # outside the cone of {0, 1}
        )
        pruned = lightcone_prune(Circuit(3, layers), [0])
        assert [g.name for g in pruned.gates()] == ["h", "cx"]

    def test_preserves_expectation(self, rng):
        n = 6
        for _ in range(5):
            circuit = random_circuit(rng, n, depth=25)
            obs = parse_pauli("Z2", n)
            full = run_spd(recompile(circuit, obs), delta=0.0)
            pruned_c = lightcone_prune(circuit, [2])
            pruned = run_spd(recompile(pruned_c, obs), delta=0.0)
            assert abs(full.expectation - pruned.expectation) < 1e-12
            assert pruned_c.num_gates <= circuit.num_gates

    def test_idempotent(self, rng):
        circuit = random_circuit(rng, 5, depth=20)
        once = lightcone_prune(circuit, [1, 3])
        twice = lightcone_prune(once, [1, 3])
        assert once == twice

    def test_chains_within_a_layer(self):
        # gates in one layer extend the cone through shared qubits even
        # when listed after the gate that links them
        layer = Layer((Gate("cx", (0, 1)), Gate("cx", (1, 2))))
        circuit = Circuit(3, (layer,))
        pruned = lightcone_prune(circuit, [0])
        assert pruned.num_gates == 2

    def test_commuting_layer_does_not_chain(self):
        # RZZ gates commute, so a gate that misses the cone cancels even when
        # it shares a qubit with a kept gate of the same layer
        layer = Layer((Gate("rzz", (1, 2), 0.4), Gate("rzz", (0, 1), 0.3)))
        pruned = lightcone_prune(Circuit(3, (layer,)), [0])
        assert [g.qubits for g in pruned.gates()] == [(0, 1)]

    def test_rx_breaks_a_diagonal_layer(self):
        # an RX among Z-diagonal gates does not commute with the RZZ on its
        # qubit, so the layer chains as before: the RZZ brings qubit 0 into
        # the cone and the RX on it is kept
        layer = Layer((Gate("rx", (0,), 0.5), Gate("rzz", (0, 1), 0.3)))
        pruned = lightcone_prune(Circuit(2, (layer,)), [1])
        assert pruned.num_gates == 2

    @pytest.mark.parametrize("steps, kept", [(5, 143), (20, 3448)])
    def test_device_cone_sizes(self, steps, kept):
        circuit = kicked_ising(device_127(), steps, 7 * math.pi / 32)
        pruned = lightcone_prune(circuit, [62])
        assert pruned.num_gates == kept
        # the last RZZ layer keeps only the edges at site 62 itself
        assert all(
            g.name == "rzz" and 62 in g.qubits for g in pruned.layers[-1].gates
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_lattices_keep_values(self, seed):
        """Pruned and unpruned circuits agree: statevector to 1e-12, and the
        SPD value at delta = 0 bit for bit, over kicked-Ising steps mixed
        with a Z-diagonal layer, a disjoint 1-qubit layer, a CX chain and a
        Z-diagonal layer that one RX on a shared qubit makes non-commuting."""
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(3, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [e for e in pairs if rng.random() < 0.4] or [pairs[0]]
        lat = Lattice(n, tuple(edges))
        theta = float(rng.uniform(-math.pi, math.pi))
        layers = list(kicked_ising(lat, int(rng.integers(1, 4)), theta).layers)
        sites = rng.permutation(n)
        diag = []
        for _ in range(n):
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            name = ("rz", "rzz", "z", "s", "sdg", "cz")[int(rng.integers(0, 6))]
            if name in ("rzz", "cz"):
                diag.append(Gate(name, (a, b), 0.7 if name == "rzz" else None))
            else:
                diag.append(Gate(name, (a,), 0.3 if name == "rz" else None))
        disjoint = [Gate(("h", "rx", "ry")[j % 3], (int(q),), None if j % 3 == 0 else 0.9)
                    for j, q in enumerate(sites[: n // 2])]
        cx_chain = [Gate("cx", (int(sites[j]), int(sites[j + 1]))) for j in range(n - 1)]
        # an RX on a qubit the Z-diagonal gates use: the gates no longer commute
        mixed = [Gate("rx", diag[-1].qubits[:1], 0.5)] + diag
        for extra in (diag, disjoint, cx_chain, mixed):
            layers.insert(int(rng.integers(0, len(layers) + 1)), Layer(tuple(extra)))
        circuit = Circuit(n, tuple(layers))
        obs = parse_pauli(f"Z{int(sites[0])} X{int(sites[1])}", n)
        pruned = lightcone_prune(circuit, obs.support())
        assert pruned.num_gates <= circuit.num_gates
        assert abs(statevector_expectation(pruned, obs)
                   - statevector_expectation(circuit, obs)) <= 1e-12
        full = run_spd(recompile(circuit, obs), delta=0.0)
        cut = run_spd(recompile(pruned, obs), delta=0.0)
        assert cut.expectation == full.expectation

    def test_empty_cone(self):
        circuit = kicked_ising(chain(4), steps=1, theta_h=0.2)
        pruned = lightcone_prune(Circuit(4, ()), [0])
        assert pruned.num_gates == 0
        assert lightcone_prune(circuit, []).num_gates == 0


class TestGateMatrix:
    def test_matches_independent_dense(self, rng):
        for _ in range(30):
            n = 4
            circuit = random_circuit(rng, n, depth=1)
            gate = next(circuit.gates())
            np.testing.assert_allclose(
                gate_matrix(gate), dense_gate_local(gate), atol=1e-12
            )

    def test_unitary(self, rng):
        for _ in range(20):
            gate = next(random_circuit(rng, 4, depth=1).gates())
            m = gate_matrix(gate)
            np.testing.assert_allclose(
                m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12
            )

    def test_rot_axis_off_support_raises(self):
        """An axis names one letter per gate qubit, so it cannot reach off
        the gate: the word X0 Z2 is refused, and the letters "XZ" on
        qubits (0, 1) give X kron Z."""
        with pytest.raises(ValueError, match=re.escape(repr(parse_pauli("X0 Z2", 3)))):
            Gate("rot", (0, 1), 0.5, parse_pauli("X0 Z2", 3))
        xz = np.kron([[0, 1], [1, 0]], [[1, 0], [0, -1]])
        np.testing.assert_allclose(
            gate_matrix(Gate("rot", (0, 1), 0.5, "XZ")),
            math.cos(0.25) * np.eye(4) - 1j * math.sin(0.25) * xz,
            atol=1e-15,
        )


ROTATIONS = (
    ("rx", (0,), None),
    ("ry", (0,), None),
    ("rz", (0,), None),
    ("rzz", (0, 1), None),
    ("rot", (0, 1), "XZ"),
)


class TestGateValidation:
    def test_named_gate_rules(self):
        with pytest.raises(ValueError):
            Gate("h", (0,), angle=0.5)
        with pytest.raises(ValueError):
            Gate("cx", (0,))
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))
        with pytest.raises(ValueError):
            Gate("nope", (0,))

    def test_rotation_rules(self):
        with pytest.raises(ValueError):
            Gate("rx", (0,))
        with pytest.raises(ValueError):
            Gate("rzz", (0,), 0.5)
        with pytest.raises(ValueError):
            Gate("rot", (0,), 0.5)

    @pytest.mark.parametrize(
        "name, qubits, angle, axis",
        [
            (name, qubits, angle, axis)
            for angle in (math.nan, math.inf, -math.inf)
            for name, qubits, axis in ROTATIONS
        ]
        + [
            ("rot", (0, 1), 0.3, "X"),
            ("rot", (0, 1), 0.3, "XYZ"),
            ("rot", (0, 1), 0.3, "XI"),
            ("rot", (0, 1), 0.3, "xz"),
            ("rot", (0,), 0.3, parse_pauli("X0 Z2", 3)),
            ("rot", (0, 2), 0.3, parse_pauli("X0 Z2", 3)),
            ("rx", (0,), 0.3, "X"),
        ],
    )
    def test_gate_contract(self, name, qubits, angle, axis):
        """Every gate is valid when it is built: a rotation angle is finite,
        and a ``rot`` axis is one X, Y or Z per qubit, as a string, so it
        cannot reach off the gate.  Each refusal names the value."""
        bad = angle if not math.isfinite(angle) else axis
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            Gate(name, qubits, angle, axis)

    def test_circuit_range_check(self):
        with pytest.raises(ValueError):
            Circuit(2, (Layer((Gate("h", (2,)),)),))
