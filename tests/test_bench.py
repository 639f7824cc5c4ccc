"""Sweep driver, CSV schema, convergence diagnostics, and the CLI."""

import gc
import hashlib
import json
import math
import os
import time
import weakref
from urllib.parse import unquote

import numpy as np
import pytest

from spdtn import (
    Circuit,
    Gate,
    Layer,
    ResultRow,
    RunConfig,
    compare,
    convergence_report,
    kicked_ising,
    lightcone_prune,
    loop_error_histogram,
    parse_pauli,
    read_rows,
    recompile,
    report_all,
    ring,
    run_point,
    statevector_expectation,
    sweep,
)
from spdtn import paulis, tensor
from spdtn.spd import SpdResult
from spdtn.bench import CSV_COLUMNS, CSV_VERSION, DEFAULT_THETA_GRID
from spdtn.circuits import grid, heavy_hex
from spdtn.oracle import exact_contract
from spdtn.cli import main as cli_main

from conftest import (
    DELTA_AV_EXAMPLE,
    EXTRAP_INTERCEPT_EXAMPLE,
    EXTRAP_SLOPE_EXAMPLE,
    O_AV_EXAMPLE,
    SIGMA_EXAMPLE,
)


def spd_config(**overrides):
    doc = {
        "lattice": {"kind": "chain", "n": 4},
        "observable": "Z1",
        "steps": 2,
        "method": "spd",
        "theta_h": [k * math.pi / 8 for k in range(5)],
        "deltas": [0.0],
    }
    doc.update(overrides)
    return RunConfig.from_dict(doc)


def make_row(**overrides):
    base = {
        "method": "spd",
        "theta_h": 0.1,
        "param_name": "delta",
        "param_value": 1e-3,
        "expectation": 0.5,
        "norm_psi": None,
        "norm_o": 2.0,
        "norm_mix": None,
        "peak_terms_or_maxbond": 10,
        "wall_time_s": 0.0,
        "flags": "",
    }
    base.update(overrides)
    return ResultRow(**base)


def chi_series(values, chis, method="pepo", theta=0.3, norm_o=None):
    return [
        make_row(
            method=method,
            theta_h=theta,
            param_name="chi",
            param_value=float(c),
            expectation=v,
            norm_o=norm_o,
        )
        for v, c in zip(values, chis)
    ]


class TestRunConfig:
    def test_spd_needs_deltas(self):
        with pytest.raises(ValueError, match="deltas"):
            spd_config(deltas=[])

    def test_spd_rejects_chis(self):
        with pytest.raises(ValueError, match="chis is not a spd parameter"):
            spd_config(chis=[4])

    def test_exact_takes_no_grids(self):
        cfg = spd_config(method="exact", deltas=[])
        assert cfg.points() == [(t, "exact", 0.0) for t in cfg.theta_h]
        with pytest.raises(ValueError, match="no deltas/chis"):
            spd_config(method="exact")
        with pytest.raises(ValueError, match="no deltas/chis"):
            spd_config(method="exact", deltas=[], chis=[2])

    def test_tn_needs_chis(self):
        for method in ("peps", "pepo", "mix"):
            with pytest.raises(ValueError, match=f"{method} sweeps need"):
                spd_config(method=method, deltas=[])
            with pytest.raises(ValueError, match=f"deltas is not a {method}"):
                spd_config(method=method, chis=[4])
        cfg = spd_config(method="mix", deltas=[], chis=[4, 8])
        assert cfg.chis == (4, 8)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'dmrg'"):
            spd_config(method="dmrg")

    def test_unknown_lattice_kind(self):
        with pytest.raises(ValueError, match="unknown lattice kind"):
            spd_config(lattice={"kind": "kagome", "n": 4})

    def test_empty_theta_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            spd_config(theta_h=[])

    def test_steps_must_be_positive(self):
        for steps in (0, "2", 2.5, True):
            with pytest.raises(ValueError, match="steps must be an int >= 1"):
                spd_config(steps=steps)

    @pytest.mark.parametrize("deltas", [[math.nan], [math.inf], [-1e-3], [1e-3, math.nan]])
    def test_deltas_must_be_finite_and_nonnegative(self, deltas):
        with pytest.raises(ValueError, match="deltas must be finite and >= 0"):
            spd_config(deltas=deltas)

    @pytest.mark.parametrize(
        "theta_h", [[math.nan], [math.inf], [0.3, -math.inf], [math.nan, 1e300]]
    )
    def test_theta_h_must_be_finite(self, theta_h):
        with pytest.raises(ValueError, match="theta_h must be finite"):
            spd_config(theta_h=theta_h)

    def test_chis_must_be_positive(self):
        # a fractional chi used to be floored and run as a clean row
        for chis in ([4, 0], [2.7], [4, 4.0], [True], ["4"]):
            with pytest.raises(ValueError, match="chis must be >= 1, each an int"):
                spd_config(method="mix", deltas=[], chis=chis)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("theta_h", "12", "theta_h must be a list of numbers, got '12'"),
            ("theta_h", 0.5, "theta_h must be a list of numbers, got 0.5"),
            ("theta_h", [0.5, None], r"theta_h must be a list of numbers, got \[0.5, None\]"),
            ("theta_h", ["1"], "theta_h must be a list of numbers"),
            ("deltas", "15", "deltas must be a list of numbers, got '15'"),
            ("deltas", [True], "deltas must be a list of numbers"),
            ("chis", 4, "chis must be a list, got 4"),
            ("extra_x_layer", "no", "extra_x_layer must be true or false, got 'no'"),
            ("lightcone", "false", "lightcone must be true or false, got 'false'"),
            ("record_timing", "no", "record_timing must be true or false"),
            ("record_timing", 1, "record_timing must be true or false, got 1"),
            ("observable", 5, "observable must be a string, got 5"),
        ],
    )
    def test_mistyped_values_raise(self, key, value, message):
        """A string grid used to run one angle per character, and any
        non-empty flag text to read as true."""
        with pytest.raises(ValueError, match=message):
            spd_config(**{key: value})

    @pytest.mark.parametrize("max_terms", [0, -5, 2.5, "100", True])
    def test_max_terms_must_be_a_positive_int(self, max_terms):
        with pytest.raises(ValueError, match="max_terms must be an int >= 1"):
            spd_config(max_terms=max_terms)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("damping", 1.0, r"damping must be in \[0, 1\), got 1.0"),
            ("damping", -0.1, r"damping must be in \[0, 1\)"),
            ("damping", math.nan, r"damping must be in \[0, 1\)"),
            ("damping", "0.5", r"damping must be in \[0, 1\)"),
            ("kappa", -1, "kappa must be a number >= 0, got -1"),
            ("kappa", math.nan, "kappa must be a number >= 0"),
            ("kappa", math.inf, "kappa must be finite, got inf"),
            ("bp_tol", -1e-6, "bp_tol must be a number >= 0"),
            ("bp_tol", math.nan, "bp_tol must be a number >= 0"),
            ("bp_tol", math.inf, "bp_tol must be finite, got inf"),
            ("bp_tol", True, "bp_tol must be a number >= 0"),
            ("bp_max_iter", 0, "bp_max_iter must be an int >= 1, got 0"),
            ("bp_max_iter", 2.5, "bp_max_iter must be an int >= 1"),
            ("bp_max_iter", True, "bp_max_iter must be an int >= 1"),
        ],
    )
    def test_bp_and_compression_knobs_must_be_in_range(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            spd_config(method="mix", deltas=[], chis=[2], **{key: value})

    def test_bp_and_compression_knobs_at_their_limits(self):
        cfg = spd_config(method="mix", deltas=[], chis=[2], damping=0.99, kappa=0,
                         bp_tol=0.0, bp_max_iter=1)
        assert (cfg.damping, cfg.kappa, cfg.bp_tol, cfg.bp_max_iter) == (0.99, 0, 0.0, 1)

    @pytest.mark.parametrize(
        "lattice, message",
        [
            ({"kind": "ring"}, "ring lattice needs the key 'n'"),
            ({"kind": "heavy_hex", "rows": 1}, "heavy_hex lattice needs the key 'cols'"),
            ({"kind": "ring", "n": "5"}, "lattice n must be an int >= 1, got '5'"),
            ({"kind": "chain", "n": True}, "lattice n must be an int >= 1, got True"),
            ({"kind": "grid", "rows": 2, "cols": 0}, "lattice cols must be an int >= 1"),
            ({"kind": "grid", "rows": 2.0, "cols": 3}, "lattice rows must be an int >= 1"),
            ({"kind": "file", "path": 3}, "lattice path must be a string, got 3"),
            ({"kind": "ring", "n": 5, "extra": 1}, r"unknown ring lattice keys: \['extra'\]"),
            ({"kind": "device_127", "n": 127}, r"unknown device_127 lattice keys: \['n'\]"),
            ({"n": 5}, "unknown lattice kind None"),
            (["ring", 5], "unknown lattice kind None"),
        ],
    )
    def test_malformed_lattice_spec(self, lattice, message):
        with pytest.raises(ValueError, match=message):
            spd_config(lattice=lattice)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown config keys: \['volume'\]"):
            RunConfig.from_dict({"volume": 11})

    def test_from_file(self, tmp_path):
        cfg = spd_config()
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert RunConfig.from_file(path) == cfg

    def test_to_dict_roundtrips_and_is_json(self):
        cfg = spd_config(max_terms=1000, record_timing=True)
        doc = cfg.to_dict()
        json.dumps(doc)
        assert RunConfig.from_dict(doc) == cfg

    def test_default_theta_grid(self):
        cfg = RunConfig.from_dict(
            {
                "lattice": {"kind": "ring", "n": 4},
                "observable": "Z0",
                "steps": 1,
                "method": "exact",
            }
        )
        assert cfg.theta_h == DEFAULT_THETA_GRID
        assert len(cfg.theta_h) == 17
        assert cfg.theta_h[-1] == pytest.approx(math.pi / 2)

    def test_digest_is_stable_and_sensitive(self):
        a = spd_config()
        b = spd_config()
        assert a.digest() == b.digest()
        assert len(a.digest()) == 16
        int(a.digest(), 16)
        assert a.digest() != spd_config(seed=1).digest()
        assert a.digest() != spd_config(record_timing=True).digest()

    def test_points_theta_major_order(self):
        cfg = spd_config(theta_h=[0.1, 0.2], deltas=[1e-2, 1e-3])
        assert cfg.points() == [
            (0.1, "delta", 1e-2),
            (0.1, "delta", 1e-3),
            (0.2, "delta", 1e-2),
            (0.2, "delta", 1e-3),
        ]
        cfg = spd_config(method="peps", deltas=[], chis=[4, 8], theta_h=[0.5])
        assert cfg.points() == [(0.5, "chi", 4.0), (0.5, "chi", 8.0)]

    @pytest.mark.parametrize(
        "lattice, n",
        [
            ({"kind": "heavy_hex", "rows": 1, "cols": 1}, 12),
            ({"kind": "ring", "n": 7}, 7),
            ({"kind": "chain", "n": 5}, 5),
            ({"kind": "grid", "rows": 2, "cols": 3}, 6),
            ({"kind": "device_127"}, 127),
        ],
    )
    def test_build_lattice_kinds(self, lattice, n):
        cfg = spd_config(lattice=lattice, observable="Z0")
        assert cfg.build_lattice().n == n

    def test_build_lattice_from_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n")
        cfg = spd_config(lattice={"kind": "file", "path": str(path)}, observable="Z0")
        lat = cfg.build_lattice()
        assert lat.n == 3
        assert lat.edges == ((0, 1), (1, 2))


class TestResultRow:
    def test_csv_roundtrip_with_missing_fields(self):
        row = make_row(expectation=None, norm_o=None, flags="error:SpdCapacityError")
        cells = row.to_csv()
        assert cells[CSV_COLUMNS.index("expectation")] == ""
        assert cells[CSV_COLUMNS.index("norm_psi")] == ""
        back = ResultRow.from_csv(dict(zip(CSV_COLUMNS, cells)))
        assert back == row

    def test_csv_roundtrip_full_precision(self):
        row = make_row(
            theta_h=math.pi / 3,
            expectation=1.0 / 3.0,
            norm_o=math.sqrt(2),
            norm_mix=0.1 + 2e-17,
        )
        back = ResultRow.from_csv(dict(zip(CSV_COLUMNS, row.to_csv())))
        assert back == row

    def test_flagged(self):
        assert not make_row().flagged
        assert make_row(flags="l1bp_nonconverged:delta=1.0e-03").flagged


def _session_ends(sid: int, wait: float = 10.0) -> bool:
    """Whether every process of session ``sid`` is gone within ``wait``
    seconds; True where ``/proc`` is not there to tell."""
    from pathlib import Path

    if not Path("/proc/self/stat").exists():
        return True

    def members():
        found = []
        for entry in os.listdir("/proc"):
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except (OSError, ValueError):
                continue
            # after "(comm)": state, ppid, pgrp, session
            if entry.isdigit() and int(stat.rpartition(")")[2].split()[3]) == sid:
                found.append(int(entry))
        return found

    deadline = time.monotonic() + wait
    while members() and time.monotonic() < deadline:
        time.sleep(0.1)
    return members() == []


class TestSweep:
    def test_spd_lossless_matches_statevector(self):
        cfg = spd_config()
        rows = sweep(cfg)
        assert len(rows) == 5
        lattice = cfg.build_lattice()
        word = parse_pauli("Z1", 4)
        for row, (theta, name, delta) in zip(rows, cfg.points()):
            assert row.method == "spd"
            assert (row.theta_h, row.param_name, row.param_value) == (
                theta,
                name,
                delta,
            )
            assert not row.flagged
            ref = statevector_expectation(kicked_ising(lattice, 2, theta), word)
            assert row.expectation == pytest.approx(ref, abs=1e-10)
        assert rows[0].theta_h == 0.0
        assert rows[0].expectation == 1.0

    def test_csv_is_byte_stable(self, tmp_path):
        cfg = spd_config(theta_h=[0.0, 0.3])
        digests = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 3)):
            path = tmp_path / f"{tag}.csv"
            sweep(cfg, out=path, workers=workers)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1] == digests[2]
        first = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert first == f"# {CSV_VERSION} config_digest={cfg.digest()}"

    def test_read_rows_roundtrip(self, tmp_path):
        cfg = spd_config(theta_h=[0.0, 0.2, 0.4])
        path = tmp_path / "run.csv"
        rows = sweep(cfg, out=path)
        assert read_rows(path) == rows

    def test_capacity_error_is_flagged_not_fatal(self, tmp_path):
        cfg = spd_config(theta_h=[0.0, math.pi / 8], steps=3, max_terms=8)
        path = tmp_path / "run.csv"
        rows = sweep(cfg, out=path)
        assert rows[0].expectation == 1.0 and not rows[0].flagged
        assert rows[1].flags == (
            "error:SpdCapacityError:sparse Pauli dynamics needs 10 terms%2C cap is 8 "
            "(raise via the SIM_MAX_TERMS environment variable or max_terms)"
        )
        assert rows[1].expectation is None
        back = read_rows(path)
        assert back == rows
        # two steps carry at most 4 terms: the first RX layer keeps only
        # readable ones
        fits = sweep(spd_config(theta_h=[math.pi / 8], max_terms=4), out=tmp_path / "t2.csv")
        assert not fits[0].flagged and fits[0].peak_terms_or_maxbond == 4

    def test_read_rows_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# header comment\nmethod,theta_h\nspd,0.1\n")
        with pytest.raises(ValueError, match="missing CSV columns"):
            read_rows(path)

    def test_one_recompile_per_fold_class(self, monkeypatch):
        """0.2 and 0.5 fold to k = 0, 0.9 to k = 1: two recompiles."""
        from spdtn import bench

        calls = {"recompile": 0, "run_point": 0}

        def counted(name):
            inner = getattr(bench, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(bench, name, counted(name))
        cfg = spd_config(theta_h=[0.2, 0.5, 0.9], deltas=[1e-2, 1e-3, 0.0])
        rows = sweep(cfg)
        assert calls == {"recompile": 2, "run_point": 9}
        # a point evaluated on its own, with its own recompile, gives the
        # same row as the shared one
        lattice = cfg.build_lattice()
        word = parse_pauli(cfg.observable, lattice.n)
        alone = [bench.run_point(cfg, lattice, word, *point) for point in cfg.points()]
        assert rows == alone

    def test_axis_constants_derived_once_per_axis(self, monkeypatch):
        """The angles of a fold class share its template's axis words, so a
        sweep derives each word's kernel constants once and reads them from
        the word at every other rotation on that axis."""
        from spdtn import spd

        derived, used = [], []
        derive, mask = paulis._derive_axis, spd.anticommute_mask

        def counting_derive(word):
            derived.append(word)
            return derive(word)

        def counting_mask(rows, axis):
            used.append(axis)
            return mask(rows, axis)

        monkeypatch.setattr(paulis, "_derive_axis", counting_derive)
        monkeypatch.setattr(spd, "anticommute_mask", counting_mask)
        cfg = spd_config(
            lattice={"kind": "heavy_hex", "rows": 1, "cols": 1}, observable="Z3", steps=4,
            theta_h=[0.2, 0.5, 0.9, 1.2], deltas=[1e-2, 1e-3],
        )
        sweep(cfg)
        # the lists hold the words, so no id is reused
        derived_ids, used_ids = [id(w) for w in derived], {id(w) for w in used}
        assert len(derived_ids) == len(set(derived_ids)) == len(used_ids) > 10
        assert set(derived_ids) == used_ids
        # 0.2 and 0.5 fold to k = 0, 0.9 and 1.2 to k = 1: four points a class
        assert len(used) >= 4 * len(derived)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_multi_delta_csv_same_for_any_workers(self, tmp_path, workers):
        """Also for ``mix``, whose worker processes each plan their own
        contractions, and for ``spd``, whose worker processes each build
        their own templates."""
        theta_h = [0.0, 0.3, 0.6, 1.2]
        for cfg in (
            spd_config(theta_h=theta_h, deltas=[1e-2, 1e-3]),
            spd_config(
                lattice={"kind": "heavy_hex", "rows": 1, "cols": 1}, observable="Z3",
                steps=4, theta_h=[0.2, 0.3, 0.5, 0.6, 0.9, 1.2], deltas=[1e-2, 1e-3],
            ),
            spd_config(
                lattice={"kind": "heavy_hex", "rows": 1, "cols": 1},
                method="mix", theta_h=theta_h, deltas=[], chis=[2, 4],
            ),
        ):
            tensor.clear_plan_cache()
            one, many = tmp_path / "one.csv", tmp_path / "many.csv"
            sweep(cfg, out=many, workers=workers)
            sweep(cfg, out=one, workers=1)
            assert one.read_bytes() == many.read_bytes()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_raise(self, tmp_path, workers):
        out = tmp_path / "rows.csv"
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            sweep(spd_config(), out=out, workers=workers)
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1.5, 2.5, "2", True])
    def test_non_int_workers_raise(self, tmp_path, workers):
        """A float once failed inside the process pool or was used as
        ``min(2.5, angles)`` processes, and a string failed at ``<``."""
        out = tmp_path / "rows.csv"
        with pytest.raises(ValueError, match="workers must be an int"):
            sweep(spd_config(), out=out, workers=workers)
        assert not out.exists()

    def test_failed_angle_flags_each_of_its_points(self, monkeypatch):
        """A failed template build fails every point of every angle of its
        fold class and is retried by each next point; the other class's
        points are those of a clean sweep."""
        from spdtn import bench

        built = []
        bad = math.pi / 2 + math.pi / 8  # the build angle of the class k = 1

        def build(lattice, steps, theta, extra_x_layer=False):
            built.append(theta)
            if theta == bad:
                raise ValueError("no circuit at this angle")
            return kicked_ising(lattice, steps, theta, extra_x_layer)

        cfg = spd_config(theta_h=[0.1, 0.9, 1.2, 0.5], deltas=[1e-2, 0.0])
        clean = sweep(cfg)
        monkeypatch.setattr(bench, "kicked_ising", build)
        rows = sweep(cfg)
        # 0.1 and 0.5 fold to k = 0, 0.9 and 1.2 to k = 1
        assert built == [math.pi / 8] + [bad] * 4
        failed = "error:ValueError:no circuit at this angle"
        assert [r.flags for r in rows] == ["", ""] + [failed] * 4 + ["", ""]
        assert all(r.expectation is None for r in rows[2:6])
        assert rows[:2] + rows[6:] == clean[:2] + clean[6:]
        assert all(r.expectation is not None for r in clean)

    def test_error_message_is_escaped_into_one_flag(self, monkeypatch, tmp_path):
        """A failed point's flag carries the exception's message, escaped so
        that ``;`` still separates flags and the CSV row stays one line."""
        from spdtn import bench

        message = 'bad "angle"; chi=4, 50% lost\nsecond line'

        def build(lattice, steps, theta, extra_x_layer=False):
            if theta > math.pi / 4:  # the build of 1.2's fold class, k = 1
                raise ValueError(message)
            return kicked_ising(lattice, steps, theta, extra_x_layer)

        monkeypatch.setattr(bench, "kicked_ising", build)
        path = tmp_path / "run.csv"
        rows = sweep(spd_config(theta_h=[0.1, 1.2], deltas=[1e-2]), out=path)
        flag = rows[1].flags
        assert flag.split(";") == [flag]
        assert flag.startswith("error:ValueError:")
        assert unquote(flag.removeprefix("error:ValueError:")) == message
        assert not set(flag) & set(';,"\n\r')
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + len(rows)
        assert lines[-1].endswith("," + flag)
        assert read_rows(path) == rows

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_write_stops_the_sweep(self, monkeypatch, tmp_path, workers):
        """With two workers a writer failing on the first row used to leave
        every other angle to run before the error surfaced.  One worker runs
        the points in this process, which counts them; worker processes are
        seen through the futures of their pool: the angles not started are
        cancelled, and no worker outlives the sweep."""
        import concurrent.futures
        import multiprocessing

        from spdtn import bench

        run = []
        futures = []

        def point(*args, **kwargs):
            run.append(args[3])
            if args[3] > 0.0:
                time.sleep(0.02)  # the first angle's row fails first
            return run_point(*args, **kwargs)

        def fail(row):
            raise OSError("disk full")

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        monkeypatch.setattr(bench, "run_point", point)
        monkeypatch.setattr(ResultRow, "to_csv", fail)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = spd_config(theta_h=[k * math.pi / 16 for k in range(24)], deltas=[1e-2, 0.0])
        with pytest.raises(OSError, match="disk full"):
            sweep(cfg, out=tmp_path / "rows.csv", workers=workers)
        assert multiprocessing.active_children() == []
        if workers == 1:
            # the first angle's points, not the rest
            assert len(run) <= 2 * (workers + 1)
            assert futures == []
        else:
            # the angles running or queued when the first row failed, not
            # the rest
            assert run == [] and len(futures) == 24
            assert sum(not f.cancelled() for f in futures) <= len(futures) // 2

    def test_script_without_main_guard_names_the_guard(self, tmp_path):
        """A script that calls ``sweep`` with two workers at module level
        used to die with a bare ``BrokenProcessPool``: each spawned worker
        re-runs the script, whose own ``sweep`` cannot start processes.  The
        error now names ``workers`` and the guard, and no process of the
        script's session outlives it."""
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import math\n"
            "from spdtn import RunConfig, sweep\n"
            "config = RunConfig.from_dict({'lattice': {'kind': 'chain', 'n': 4},"
            " 'observable': 'Z1', 'steps': 2, 'method': 'spd',"
            " 'theta_h': [0.1, 0.2], 'deltas': [0.0]})\n"
            "sweep(config, workers=2)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode != 0
        assert "RuntimeError: a sweep worker process died (workers=2)" in stderr
        assert 'if __name__ == "__main__":' in stderr
        assert _session_ends(proc.pid)

    def test_interrupt_stops_running_workers(self, tmp_path):
        """An interrupt used to wait for the angles already handed to
        workers.  Here each point sleeps for two minutes in its worker; a
        SIGINT to the calling process, once a worker runs a point, ends the
        sweep within about 2 s, and no process of the script's session
        outlives it."""
        import select
        import signal
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        script = tmp_path / "sleepy.py"
        script.write_text(
            "import time\n"
            "from spdtn import RunConfig, bench, sweep\n"
            "def sleepy(*args):\n"
            "    print('running', flush=True)\n"
            "    time.sleep(120)\n"
            "# module level, so each spawned worker, which imports this script, runs it\n"
            "bench.run_point = sleepy\n"
            "if __name__ == '__main__':\n"
            "    config = RunConfig.from_dict({'lattice': {'kind': 'chain', 'n': 4},"
            " 'observable': 'Z1', 'steps': 2, 'method': 'spd',"
            " 'theta_h': [0.1, 0.2, 0.3, 0.4], 'deltas': [0.0]})\n"
            "    sweep(config, workers=2)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 120.0)
            assert ready and proc.stdout.readline() == "running\n"
            start = time.monotonic()
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=60)
            elapsed = time.monotonic() - start
            ended = _session_ends(proc.pid)
        finally:
            try:  # whatever of the session is left, workers included
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        assert "KeyboardInterrupt" in stderr
        assert elapsed < 2.0
        assert ended

    @pytest.mark.parametrize("workers, angles, size", [(1, 3, None), (2, 3, 2), (8, 3, 3)])
    def test_pool_has_at_most_one_process_per_angle(self, monkeypatch, workers, angles, size):
        """The pool holds ``min(workers, angles)`` spawned processes; one
        worker starts no pool.  A fake executor records its size and starts
        no process."""
        import concurrent.futures

        made = []

        class FakePool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                made.append((max_workers, mp_context.get_start_method()))

            def map(self, fn, *iterables):
                return iter(())

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        rows = sweep(spd_config(theta_h=[0.1 * k for k in range(angles)]), workers=workers)
        assert made == ([] if size is None else [(size, "spawn")])
        assert len(rows) == (angles if size is None else 0)

    def test_timing_recorded_only_on_request(self, tmp_path):
        quiet = sweep(spd_config(theta_h=[0.3]))
        timed = sweep(spd_config(theta_h=[0.3], record_timing=True))
        assert quiet[0].wall_time_s == 0.0
        assert timed[0].wall_time_s > 0.0


def _recompiled_bytes(rc) -> tuple:
    """Every bit of a recompiled circuit: rotation axis rows and angle bytes,
    residual tableau bit and sign lists, transformed-observable words and
    coefficient bytes."""
    obs = rc.transformed_observable
    return (
        [rot.axis.row.tobytes() for rot in rc.rotations],
        np.array([rot.angle for rot in rc.rotations], dtype=np.float64).tobytes(),
        rc.residual_clifford._z,
        rc.residual_clifford._x,
        rc.residual_clifford._e,
        obs.words.tobytes(),
        obs.coeffs.tobytes(),
    )


# all four fold classes with both signs, the fold boundary pi/4 and angles
# just past it (inside and outside the 1e-12 snap of fold_angle), and angles
# with a zero residual angle, which leave no rotation
FOLD_CASE_THETAS = [
    sign * (k * math.pi / 2 + 0.3) for k in range(4) for sign in (1, -1)
] + [
    math.pi / 4,
    -math.pi / 4,
    math.pi / 4 + 1e-13,
    math.pi / 4 + 2e-12,
    0.0,
    math.pi / 2,
    -math.pi / 2,
    math.pi,
]


class TestFoldClassTemplates:
    @pytest.mark.parametrize("lightcone", [True, False])
    @pytest.mark.parametrize("extra_x_layer", [False, True])
    @pytest.mark.parametrize(
        "lattice, observable, steps",
        [
            ({"kind": "heavy_hex", "rows": 1, "cols": 1}, "Z3", 3),
            ({"kind": "heavy_hex", "rows": 1, "cols": 1}, "Z3", 20),
            ({"kind": "device_127"}, "Z62", 3),
        ],
    )
    def test_sweep_circuit_is_a_fresh_recompile(
        self, monkeypatch, lattice, observable, steps, extra_x_layer, lightcone
    ):
        """The circuit each sweep point propagates, set from its fold
        class's template, equals bit for bit the recompile of its own
        angle's circuit."""
        from spdtn import bench

        seen = []

        def capture(rc, delta, max_terms=None):
            seen.append(rc)
            return SpdResult(0.0, 0.0, 0, 0, len(rc.rotations), 0.0)

        monkeypatch.setattr(bench, "run_spd", capture)
        cfg = spd_config(
            lattice=lattice,
            observable=observable,
            steps=steps,
            theta_h=FOLD_CASE_THETAS,
            extra_x_layer=extra_x_layer,
            lightcone=lightcone,
        )
        rows = sweep(cfg)
        assert not any(r.flagged for r in rows)
        assert len(seen) == len(FOLD_CASE_THETAS)
        lat = cfg.build_lattice()
        word = parse_pauli(observable, lat.n)
        for theta, rc in zip(FOLD_CASE_THETAS, seen):
            circuit = kicked_ising(lat, steps, theta, extra_x_layer)
            if lightcone:
                circuit = lightcone_prune(circuit, word.support())
            fresh = recompile(circuit, word)
            assert _recompiled_bytes(rc) == _recompiled_bytes(fresh), theta
        zero = {0.0, math.pi / 2, -math.pi / 2, math.pi}
        assert [not rc.rotations for rc in seen] == [t in zero for t in FOLD_CASE_THETAS]

    def test_rotation_not_from_a_kick_gate_raises(self, monkeypatch):
        """A template rotation whose angle is not the kick's +-pi/8 fails
        the fold class's points with a real exception."""
        from spdtn import bench

        def build(lattice, steps, theta, extra_x_layer=False):
            circuit = kicked_ising(lattice, steps, theta, extra_x_layer)
            extra = Layer((Gate("rz", (1,), 0.25),), step=steps)
            return Circuit(circuit.n, circuit.layers + (extra,))

        monkeypatch.setattr(bench, "kicked_ising", build)
        rows = sweep(spd_config(theta_h=[0.3]))
        assert rows[0].flags == (
            "error:RuntimeError:rotation of angle 0.25 at kick angle 0.39269908169872414 "
            "does not come from a kick gate"
        )

    def test_no_template_outlives_its_sweep(self, monkeypatch):
        """One worker builds each class's template once, in this process;
        once the sweep returns, no template is reachable.  Two workers
        build theirs in worker processes, none of which is left when the
        sweep returns, and give the same rows."""
        import multiprocessing

        from spdtn import bench

        built = []
        build = bench._spd_template

        def tracked(*args):
            rc = build(*args)
            built.append(weakref.ref(rc))
            return rc

        monkeypatch.setattr(bench, "_spd_template", tracked)
        cfg = spd_config(theta_h=[0.1, 0.9, 0.3, 1.2], deltas=[1e-2, 0.0])
        rows = sweep(cfg)
        gc.collect()
        assert len(rows) == 8 and not any(r.flagged for r in rows)
        assert len(built) == 2
        assert all(ref() is None for ref in built)
        built.clear()
        assert sweep(cfg, workers=2) == rows
        assert built == []
        assert multiprocessing.active_children() == []

    def test_sweeps_in_one_process_match_each_alone(self):
        """Sweeps that differ in steps, lattice, observable and extra RX
        layer, run one after another on shared angles, give the rows that
        each point gives on its own: no template outlives its sweep."""
        theta_h = [0.3, 1.2, -0.4]
        configs = [
            spd_config(theta_h=theta_h, deltas=[1e-3, 0.0]),
            spd_config(
                lattice={"kind": "ring", "n": 5},
                observable="Z2",
                steps=3,
                extra_x_layer=True,
                theta_h=theta_h,
                deltas=[1e-3, 0.0],
            ),
        ]
        alone = []
        for cfg in configs:
            lattice = cfg.build_lattice()
            word = parse_pauli(cfg.observable, lattice.n)
            alone.append([run_point(cfg, lattice, word, *pt) for pt in cfg.points()])
        assert [r.expectation for r in alone[0]] != [r.expectation for r in alone[1]]
        for workers in (1, 2):
            for i in (0, 1, 0, 1):
                assert sweep(configs[i], workers=workers) == alone[i]


class TestConvergenceReport:
    def test_constant_series(self):
        rows = chi_series([0.5, 0.5, 0.5], [2, 4, 8])
        rep = convergence_report(rows)
        assert rep.available
        assert rep.n_points == 3
        assert rep.sigma == 0.0
        assert rep.slope == 0.0
        assert rep.intercept == 0.5
        assert rep.extrapolated == rep.intercept
        assert rep.delta_extrap == 0.0
        assert rep.value_top == 0.5

    def test_frozen_chi_example(self):
        rows = chi_series([0.1, 0.2, 0.3], [1, 2, 3], norm_o=0.9)
        rep = convergence_report(rows)
        assert rep.sigma == pytest.approx(SIGMA_EXAMPLE, rel=1e-13)
        assert rep.slope == pytest.approx(EXTRAP_SLOPE_EXAMPLE, rel=1e-13)
        assert rep.intercept == pytest.approx(EXTRAP_INTERCEPT_EXAMPLE, rel=1e-13)
        assert rep.value_top == 0.3
        assert rep.norm_top == 0.9
        assert rep.o_av == pytest.approx(O_AV_EXAMPLE, rel=1e-13)
        assert rep.delta_av == pytest.approx(DELTA_AV_EXAMPLE, rel=1e-13)
        assert rep.delta_extrap == pytest.approx(abs(0.3 - 24.0 / 65.0), rel=1e-12)

    def test_norm_source_follows_method(self):
        peps = [
            make_row(
                method="peps",
                param_name="chi",
                param_value=float(c),
                expectation=0.3,
                norm_o=None,
                norm_psi=0.9,
            )
            for c in (1, 2, 3)
        ]
        rep = convergence_report(peps)
        assert rep.o_av == pytest.approx(O_AV_EXAMPLE, rel=1e-13)
        mix = [
            make_row(
                method="mix",
                param_name="chi",
                param_value=float(c),
                expectation=0.3,
                norm_o=None,
                norm_mix=0.9,
            )
            for c in (1, 2, 3)
        ]
        rep = convergence_report(mix)
        assert rep.o_av == pytest.approx(O_AV_EXAMPLE, rel=1e-13)

    def test_missing_norm_gives_nan_diagnostics(self):
        rows = chi_series([0.1, 0.2, 0.3], [1, 2, 3], norm_o=None)
        rep = convergence_report(rows)
        assert math.isnan(rep.o_av) and math.isnan(rep.delta_av)
        assert "o_av" not in rep.format()

    def test_short_series_unavailable(self):
        rep = convergence_report(chi_series([0.1, 0.2], [2, 4]))
        assert not rep.available
        assert rep.n_points == 2
        assert "unavailable" in rep.format()
        assert math.isnan(rep.sigma)

    def test_delta_series_uses_smallest_deltas(self):
        rows = [
            make_row(param_value=d, expectation=v)
            for d, v in [(1e-2, 9.0), (1e-5, 0.3), (1e-3, 0.1), (1e-4, 0.2)]
        ]
        rep = convergence_report(rows)
        assert rep.n_points == 4
        assert rep.value_top == 0.3
        assert rep.param_name == "delta"
        v = [0.1, 0.2, 0.3]
        mean = sum(v) / 3
        assert rep.sigma == pytest.approx(
            math.sqrt(sum((x - mean) ** 2 for x in v) / 3), rel=1e-13
        )

    def test_chi_abscissa_extrapolates_to_infinite_chi(self):
        rows = chi_series([1.0 + 1.0 / c for c in (2, 4, 8)], [2, 4, 8])
        rep = convergence_report(rows)
        assert rep.slope == pytest.approx(1.0, rel=1e-12)
        assert rep.extrapolated == pytest.approx(1.0, rel=1e-12)

    def test_mixed_series_rejected(self):
        rows = chi_series([0.1, 0.2, 0.3], [1, 2, 3])
        with pytest.raises(ValueError, match="one .method, theta_h."):
            convergence_report(rows + chi_series([0.5], [2], method="mix"))
        with pytest.raises(ValueError, match="one .method, theta_h."):
            convergence_report(rows + chi_series([0.5], [4], theta=0.7))

    def test_unusable_rows_rejected_or_skipped(self):
        with pytest.raises(ValueError, match="no rows"):
            convergence_report([])
        dead = convergence_report([make_row(expectation=None, flags="error:X")])
        assert not dead.available
        assert dead.n_points == 0
        rows = chi_series([0.1, 0.2, 0.3], [1, 2, 3])
        rows.append(
            make_row(
                param_name="chi",
                param_value=4.0,
                method="pepo",
                theta_h=0.3,
                expectation=None,
                flags="error:DegenerateBondError",
            )
        )
        rep = convergence_report(rows)
        assert rep.n_points == 3
        assert rep.value_top == 0.3

    def test_format_lists_fit(self):
        text = convergence_report(chi_series([0.1, 0.2, 0.3], [1, 2, 3])).format()
        assert "sigma(last 3)" in text
        assert "fit v = a + b*u" in text
        assert "extrapolated" in text


class TestReportAll:
    def test_groups_by_method_and_theta(self):
        rows = []
        for theta in (0.4, 0.1):
            rows.extend(chi_series([0.1, 0.2, 0.3], [1, 2, 3], theta=theta))
            rows.extend(
                make_row(theta_h=theta, param_value=d, expectation=0.5)
                for d in (1e-2, 1e-3, 1e-4)
            )
        reports = report_all(rows)
        assert [(r.method, r.theta_h) for r in reports] == [
            ("pepo", 0.1),
            ("pepo", 0.4),
            ("spd", 0.1),
            ("spd", 0.4),
        ]
        assert all(r.available for r in reports)


class TestCompare:
    def test_self_comparison_is_tight(self):
        rows = [
            make_row(theta_h=t, param_value=d, expectation=t * 0.5)
            for t in (0.0, 0.3, 0.6)
            for d in (1e-2, 1e-3)
        ]
        rep = compare({"a": rows, "b": list(rows)})
        assert rep.names == ("a", "b")
        assert rep.thetas == (0.0, 0.3, 0.6)
        assert rep.max_spread == 0.0
        assert rep.pairwise[("a", "b")] == 0.0

    def test_picks_most_accurate_parameter(self):
        spd = [
            make_row(param_value=1e-2, expectation=0.5),
            make_row(param_value=1e-3, expectation=0.6),
        ]
        mix = chi_series([0.1, 0.2], [4, 8], method="mix", theta=0.1)
        rep = compare({"spd": spd, "mix": mix})
        assert rep.values[0.1] == {"spd": 0.6, "mix": 0.2}
        assert rep.spreads[0.1] == pytest.approx(0.4)

    def test_tables_without_a_usable_value_raise(self):
        dead = [make_row(theta_h=t, expectation=None, flags="error:X") for t in (0.1, 0.2)]
        live = chi_series([0.1, 0.2], [4, 8], method="mix", theta=0.1)
        message = r"no usable value to compare in the tables \['spd'\]"
        with pytest.raises(ValueError, match=message):
            compare({"spd": dead})
        with pytest.raises(ValueError, match=message):
            compare({"spd": dead, "mix": live})
        with pytest.raises(ValueError, match=r"in the tables \[\]"):
            compare({})

    def test_grid_mismatch_lists_missing_points(self):
        a = [make_row(theta_h=t) for t in (0.1, 0.2)]
        b = [make_row(theta_h=0.1, method="mix", param_name="chi", param_value=4.0)]
        with pytest.raises(ValueError, match="missing points"):
            compare({"a": a, "b": b})
        try:
            compare({"a": a, "b": b})
        except ValueError as exc:
            assert "('b', 0.2)" in str(exc)

    def test_each_deviation_printed_once(self):
        """With a reference, a pair that includes it is reported only as
        that method's deviation; other pairs keep their pairwise line."""
        tables = {
            "spd": [make_row(expectation=0.5)],
            "mix": chi_series([0.25], [8], method="mix", theta=0.1),
            "exact": [make_row(method="exact", param_name="", param_value=None,
                               expectation=0.75)],
        }
        lines = compare(tables, reference="exact").format().splitlines()
        deviations = [line for line in lines if line.startswith("max |")]
        assert deviations == [
            "max |mix - spd|: 2.500000e-01",
            "max |mix - exact|: 5.000000e-01",
            "max |spd - exact|: 2.500000e-01",
        ]
        pairs = [frozenset(line[5:line.index("|:")].split(" - ")) for line in deviations]
        assert len(pairs) == len(set(pairs)) == 3
        without_ref = compare(tables).format()
        assert "max |exact - spd|: 2.500000e-01" in without_ref

    def test_unknown_reference(self):
        with pytest.raises(ValueError, match="reference 'exact'"):
            compare({"a": [make_row()]}, reference="exact")

    def test_sweeps_agree_with_exact_reference(self):
        thetas = [0.0, math.pi / 8, math.pi / 4]
        spd_rows = sweep(spd_config(theta_h=thetas))
        exact_rows = sweep(spd_config(theta_h=thetas, method="exact", deltas=[]))
        rep = compare({"spd": spd_rows, "exact": exact_rows}, reference="exact")
        assert rep.reference == "exact"
        assert rep.max_abs_err["spd"] <= 1e-10
        assert rep.max_abs_err["exact"] == 0.0
        assert rep.max_spread <= 1e-10
        text = rep.format()
        assert "max spread" in text
        assert "max |spd - exact|" in text


class TestLoopErrorHistogram:
    def test_structure_on_a_small_ring(self):
        rep = loop_error_histogram(
            lattices={"ring6": ring(6)},
            steps=(2,),
            thetas=(0.3,),
            sites=(0, 3),
            chi=4,
            bins=8,
        )
        assert len(rep.errors) == 2
        assert rep.entries == (("ring6", 2, 0.3, 0), ("ring6", 2, 0.3, 3))
        assert all(e >= 0.0 for e in rep.errors)
        assert sum(rep.counts) == 2
        assert len(rep.bin_edges) == len(rep.counts) + 1
        ordered = sorted(rep.errors)
        assert rep.median == pytest.approx((ordered[0] + ordered[1]) / 2)
        text = rep.format()
        assert "2 samples" in text
        assert len(text.splitlines()) == 2 + 8

    @pytest.mark.parametrize(
        "lattice, steps",
        [(heavy_hex(1, 1), (2, 3)), (grid(3, 4), (2,))],
        ids=["heavy_hex_12", "grid_3x4"],
    )
    def test_dense_referee_matches_exact_contraction(self, monkeypatch, lattice, steps):
        """The survey reads its exact value from the ket layer's dense
        amplitudes.  Where the absorbed sandwich itself fits
        ``CONTRACT_BUDGET``, its exact contraction stands in for the Bethe
        value, so each recorded error is the gap between the two referees."""
        from spdtn import bench

        monkeypatch.setattr(bench, "l1bp_value", lambda sn, ms: exact_contract(sn))
        rep = loop_error_histogram(lattices={"lattice": lattice}, steps=steps)
        assert len(rep.errors) == 4 * 3 * len(steps)
        assert max(rep.errors) <= 1e-12


class TestCli:
    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(spd_config(theta_h=[0.0, 0.3]).to_dict()))
        return path

    def test_sweep_writes_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
        assert "2 rows" in capsys.readouterr().out
        assert len(read_rows(out)) == 2

    def test_sweep_default_output_path(self, config_path, capsys):
        assert cli_main(["sweep", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert len(read_rows(config_path.with_suffix(".csv"))) == 2

    def test_sweep_flagged_rows_exit_one(self, tmp_path, capsys):
        cfg = spd_config(theta_h=[0.0, math.pi / 8], steps=3, max_terms=8)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["sweep", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "1 flagged rows" in out
        assert "error:SpdCapacityError" in out

    def test_report_exit_codes(self, config_path, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        cli_main(["sweep", "--config", str(config_path), "--out", str(out)])
        capsys.readouterr()
        code = cli_main(["report", "--in", str(out), "--observable", "Z1"])
        text = capsys.readouterr().out
        assert code == 0
        assert "observable: Z1" in text
        assert "spd theta_h=0.000000" in text

    def test_report_flagged_exit_one(self, tmp_path, capsys):
        cfg = spd_config(theta_h=[0.0, math.pi / 8], steps=3, max_terms=8)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "rows.csv"
        cli_main(["sweep", "--config", str(path), "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["report", "--in", str(out)]) == 1

    def test_compare_two_methods(self, tmp_path, capsys):
        thetas = [0.0, 0.3]
        for method, extra in (("spd", {}), ("exact", {"deltas": []})):
            cfg = spd_config(theta_h=thetas, method=method, **extra)
            path = tmp_path / f"{method}.json"
            path.write_text(json.dumps(cfg.to_dict()))
            cli_main(["sweep", "--config", str(path)])
        capsys.readouterr()
        code = cli_main(
            [
                "compare",
                str(tmp_path / "spd.csv"),
                str(tmp_path / "exact.csv"),
                "--reference",
                "exact",
            ]
        )
        text = capsys.readouterr().out
        assert code == 0
        assert "max spread" in text
        assert text.count("max |spd - exact|") == 1
        assert "max |exact - spd|" not in text

    def test_compare_without_a_usable_value_exit_two(self, tmp_path, capsys):
        """Every row of this sweep is flagged (two terms against a cap of
        one); compare used to fail with ``max() arg is an empty sequence``."""
        doc = {
            "lattice": {"kind": "ring", "n": 6}, "observable": "Z0", "steps": 2,
            "method": "spd", "theta_h": [0.3, 0.7], "deltas": [0.0], "max_terms": 1,
        }
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["sweep", "--config", str(path)]) == 1
        capsys.readouterr()
        assert cli_main(["compare", str(tmp_path / "capped.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: no usable value to compare in the tables ['spd']\n"

    def test_duplicate_method_exit_two(self, config_path, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        cli_main(["sweep", "--config", str(config_path), "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["compare", str(out), str(out)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_inputs_exit_two(self, tmp_path, capsys):
        """A config that is not a JSON object, or that lacks a required
        key, used to end in a ``TypeError`` traceback and exit 1."""
        missing = tmp_path / "nope.json"
        assert cli_main(["sweep", "--config", str(missing)]) == 2
        capsys.readouterr()
        no_method = spd_config().to_dict()
        del no_method["method"], no_method["steps"]
        bad = tmp_path / "bad.json"
        for doc, message in (
            ({"volume": 11}, "unknown config keys: ['volume']"),
            ([], "config must be a JSON object, got list"),
            (no_method, "missing config keys: ['steps', 'method']"),
        ):
            bad.write_text(json.dumps(doc))
            assert cli_main(["sweep", "--config", str(bad)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_nan_delta_exit_two(self, tmp_path, capsys):
        """``NaN`` is valid JSON to Python; a sweep on it would drop every
        term and write a clean row with expectation 0.0."""
        path = tmp_path / "nan.json"
        doc = spd_config().to_dict()
        doc["deltas"] = [math.nan]
        path.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert "deltas must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, grid", [("exact", {}), ("spd", {"deltas": [0.0]}), ("mix", {"chis": [2]})]
    )
    def test_non_finite_theta_exit_two(self, tmp_path, capsys, method, grid):
        """A NaN kick angle used to write an unflagged exact row of NaN and
        exit 0, and flagged spd and mix rows and exit 1."""
        doc = {
            "lattice": {"kind": "ring", "n": 6}, "observable": "Z0", "steps": 2,
            "method": method, "theta_h": [math.nan, 1e300], **grid,
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: theta_h must be finite") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_two(self, config_path, tmp_path, capsys, workers):
        """``--workers 0`` and ``--workers -2`` used to run one worker."""
        out = tmp_path / "rows.csv"
        argv = ["sweep", "--config", str(config_path), "--out", str(out), "--workers", workers]
        assert cli_main(argv) == 2
        assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("damping", 1.0, "damping must be in [0, 1)"),
            ("kappa", -1, "kappa must be a number >= 0"),
            ("bp_tol", -1e-6, "bp_tol must be a number >= 0"),
            ("bp_max_iter", 0, "bp_max_iter must be an int >= 1"),
            ("lattice", {"kind": "ring"}, "ring lattice needs the key 'n'"),
            ("lattice", {"kind": "ring", "n": "6"}, "lattice n must be an int >= 1"),
            ("lattice", {"kind": "ring", "n": 6, "extra": 1}, "unknown ring lattice keys"),
            ("kappa", math.inf, "kappa must be finite"),
            ("bp_tol", math.inf, "bp_tol must be finite"),
        ],
    )
    def test_bad_knob_or_lattice_exit_two(self, tmp_path, capsys, key, value, message):
        """Damping 1 used to freeze the BP messages and write a clean row of
        5.23e-09 where the value is 0.765674, a negative kappa to run, and a
        lattice without its size to end in a KeyError traceback.  An
        infinite bp_tol (JSON ``Infinity``) wrote a clean 0.741006 and an
        infinite kappa 0.728124."""
        doc = {
            "lattice": {"kind": "ring", "n": 6}, "observable": "Z0", "steps": 3,
            "method": "mix", "theta_h": [0.7], "chis": [2], "lightcone": False,
            key: value,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("theta_h", "12", "theta_h must be a list of numbers"),
            ("theta_h", 0.5, "theta_h must be a list of numbers"),
            ("deltas", "15", "deltas must be a list of numbers"),
            ("chis", 4, "chis must be a list"),
            ("extra_x_layer", "no", "extra_x_layer must be true or false"),
            ("lightcone", "false", "lightcone must be true or false"),
            ("record_timing", "no", "record_timing must be true or false"),
            ("observable", 5, "observable must be a string"),
        ],
    )
    def test_mistyped_values_exit_two(self, tmp_path, capsys, key, value, message):
        """These used to run on a wrong reading (a string grid as one angle
        per character, any flag text as true) or end in a traceback with
        exit 1, the code of flagged rows."""
        doc = {
            "lattice": {"kind": "ring", "n": 6}, "observable": "Z0", "steps": 2,
            "method": "spd", "theta_h": [0.7], "deltas": [0.0], key: value,
        }
        if key == "chis":
            doc.update(method="mix", deltas=[])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("steps", "2"), ("steps", 2.5), ("steps", True), ("chis", [2.7])]
    )
    def test_non_integer_steps_or_chis_exit_two(self, tmp_path, capsys, key, value):
        """A string depth used to escape as a TypeError traceback, a
        fractional one to fail every row, ``true`` to run as T = 1 and a
        fractional chi to run floored."""
        doc = spd_config(method="mix", deltas=[], chis=[2]).to_dict()
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be") and err.count("\n") == 1
        assert not out.exists()
