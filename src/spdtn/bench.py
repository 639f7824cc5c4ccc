"""Sweep harness: configuration, result tables, and convergence diagnostics.

Configs are JSON objects with the schema documented on RunConfig.  Sweeps
write CSV incrementally with a versioned header comment; the columns are
fixed (method, theta_h, param_name, param_value, expectation, norm_psi,
norm_o, norm_mix, peak_terms_or_maxbond, wall_time_s, flags) and the bytes
are stable across reruns of the same config because floats serialize via
repr and timing defaults to 0.0 unless explicitly recorded.

Convergence diagnostics follow fixed, documented formulas over the series
for one (method, theta_h) pair, ordered from least to most accurate
parameter:

- sigma: population standard deviation (ddof=0) of the last three
  expectation values.
- extrapolation: least-squares line v = a + b*u through the last three
  points with abscissa u = 1/parameter for bond-dimension sweeps and
  u = parameter for threshold sweeps (u -> 0 is the exact limit);
  the extrapolated value is the intercept a, and
  delta_extrap = |v_top - a|.  If all three u coincide the fit is
  degenerate and a falls back to the mean of the three values with b = 0.
- averaged estimate: o_av = (v_top + v_top / N) / 2 where N is the
  method's norm at the top parameter (norm_mix for mix, norm_psi for
  peps, norm_o otherwise), and delta_av = |v_top - o_av|.

Fewer than three points marks the diagnostics unavailable.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import time
from dataclasses import MISSING, dataclass, fields
from functools import cache, partial
from itertools import combinations, groupby
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .bp import DEFAULT_MAX_ITER, DEFAULT_TOL, l1bp_value
from .circuits import (
    Lattice,
    chain,
    device_127,
    grid,
    heavy_hex,
    kicked_ising,
    lightcone_prune,
    load_lattice,
    ring,
)
from .clifford import RecompiledCircuit, Rotation, fold_angle, recompile
from .oracle import CONTRACT_BUDGET, pauli_apply, statevector_expectation
from .paulis import PauliWord, parse_pauli
from .spd import run_spd
from .tensor import contract, greedy_path
from .tn import (
    DEFAULT_KAPPA,
    BpOptions,
    _step_groups,
    apply_layer,
    evolve,
    pepo_from_word,
    peps_zero,
    run_tn,
    sandwich_network,
)

__all__ = [
    "CSV_COLUMNS",
    "CSV_VERSION",
    "METHODS",
    "RunConfig",
    "ResultRow",
    "run_point",
    "sweep",
    "read_rows",
    "ConvergenceReport",
    "convergence_report",
    "report_all",
    "ComparisonReport",
    "compare",
    "LoopErrorReport",
    "loop_error_histogram",
]

CSV_VERSION = "spdtn-csv-v2"
CSV_COLUMNS = [
    "method",
    "theta_h",
    "param_name",
    "param_value",
    "expectation",
    "norm_psi",
    "norm_o",
    "norm_mix",
    "peak_terms_or_maxbond",
    "wall_time_s",
    "flags",
]
METHODS = ("spd", "peps", "pepo", "mix", "exact")

DEFAULT_THETA_GRID = tuple(k * math.pi / 32 for k in range(17))

# each lattice kind's builder and the keys it takes besides "kind", in
# argument order
_LATTICES = {
    "heavy_hex": (heavy_hex, ("rows", "cols")),
    "device_127": (device_127, ()),
    "ring": (ring, ("n",)),
    "chain": (chain, ("n",)),
    "grid": (grid, ("rows", "cols")),
    "file": (load_lattice, ("path",)),
}


def _positive_int(value) -> bool:
    """Whether a config value is an int >= 1; a bool (JSON true) is not."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _real(value) -> bool:
    """Whether a config value is a number; a bool (JSON true) is not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _nonnegative(value) -> bool:
    """Whether a config value is a number >= 0; NaN and a bool are not."""
    return _real(value) and value >= 0


def _check_lattice(spec) -> None:
    """Reject a lattice spec that ``build_lattice`` could not build: an
    unknown kind, a missing or unknown key, a size that is not an int >= 1
    or a path that is not a string."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind not in _LATTICES:
        raise ValueError(f"unknown lattice kind {kind!r}; choose from {tuple(_LATTICES)}")
    keys = _LATTICES[kind][1]
    unknown = sorted(set(spec) - {"kind", *keys})
    if unknown:
        raise ValueError(f"unknown {kind} lattice keys: {unknown}")
    for key in keys:
        if key not in spec:
            raise ValueError(f"{kind} lattice needs the key {key!r}")
        value = spec[key]
        if key == "path" and not isinstance(value, str):
            raise ValueError(f"lattice path must be a string, got {value!r}")
        if key != "path" and not _positive_int(value):
            raise ValueError(f"lattice {key} must be an int >= 1, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """One sweep: a lattice, an observable, a method, and parameter grids.

    JSON schema (all keys except the first four optional):

    - "lattice": {"kind": "heavy_hex", "rows": R, "cols": C}
      | {"kind": "device_127"} | {"kind": "ring", "n": N}
      | {"kind": "chain", "n": N} | {"kind": "grid", "rows": R, "cols": C}
      | {"kind": "file", "path": P}, with sizes ints >= 1 and no other keys
    - "observable": Pauli text such as "Z62"
    - "steps": circuit depth T >= 1
    - "method": one of spd | peps | pepo | mix | exact
    - "theta_h": list of finite angles (default k*pi/32 for k = 0..16)
    - "deltas": truncation thresholds (spd only, required there)
    - "chis": bond dimensions (peps/pepo/mix only, required there)
    - "kappa": finite compression cutoff >= 0 (default 5e-6)
    - "bp_tol", "bp_max_iter", "damping": message-passing controls, a
      finite tolerance >= 0, an int >= 1 and a damping in [0, 1)
    - "extra_x_layer": append one trailing RX layer (default false)
    - "lightcone": prune gates outside the observable's cone (default true)
    - "seed": recorded in the digest for provenance (default 0)
    - "max_terms": SPD term cap override (default: SIM_MAX_TERMS or 5e7)
    - "record_timing": fill wall_time_s (default false; keeping it off
      makes the CSV byte-stable across reruns)
    """

    lattice: dict
    observable: str
    steps: int
    method: str
    theta_h: tuple[float, ...] = DEFAULT_THETA_GRID
    deltas: tuple[float, ...] = ()
    chis: tuple[int, ...] = ()
    kappa: float = DEFAULT_KAPPA
    bp_tol: float = DEFAULT_TOL
    bp_max_iter: int = DEFAULT_MAX_ITER
    damping: float = 0.0
    extra_x_layer: bool = False
    lightcone: bool = True
    seed: int = 0
    max_terms: int | None = None
    record_timing: bool = False

    def __post_init__(self):
        # types first: a string grid would run per character, any text as true
        for name in ("theta_h", "deltas"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(map(_real, value)):
                raise ValueError(f"{name} must be a list of numbers, got {value!r}")
        if not isinstance(self.chis, (list, tuple)):
            raise ValueError(f"chis must be a list, got {self.chis!r}")
        for name in ("extra_x_layer", "lightcone", "record_timing"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be true or false, got {value!r}")
        if not isinstance(self.observable, str):
            raise ValueError(f"observable must be a string, got {self.observable!r}")
        object.__setattr__(self, "theta_h", tuple(float(t) for t in self.theta_h))
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        object.__setattr__(self, "chis", tuple(self.chis))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        _check_lattice(self.lattice)
        if not self.theta_h:
            raise ValueError("theta_h list must be non-empty")
        if not all(math.isfinite(t) for t in self.theta_h):
            raise ValueError(f"theta_h must be finite, got {list(self.theta_h)}")
        if not _positive_int(self.steps):
            raise ValueError(f"steps must be an int >= 1, got {self.steps!r}")
        if not all(math.isfinite(d) and d >= 0 for d in self.deltas):
            raise ValueError(f"deltas must be finite and >= 0, got {list(self.deltas)}")
        if not all(_positive_int(c) for c in self.chis):
            raise ValueError(f"chis must be >= 1, each an int, got {list(self.chis)}")
        if self.max_terms is not None and not _positive_int(self.max_terms):
            raise ValueError(f"max_terms must be an int >= 1, got {self.max_terms!r}")
        for name in ("kappa", "bp_tol"):
            value = getattr(self, name)
            if not _nonnegative(value):
                raise ValueError(f"{name} must be a number >= 0, got {value!r}")
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (_nonnegative(self.damping) and self.damping < 1):
            raise ValueError(f"damping must be in [0, 1), got {self.damping!r}")
        if not _positive_int(self.bp_max_iter):
            raise ValueError(f"bp_max_iter must be an int >= 1, got {self.bp_max_iter!r}")
        if self.method == "spd":
            if not self.deltas:
                raise ValueError("spd sweeps need a non-empty deltas list")
            if self.chis:
                raise ValueError("chis is not a spd parameter")
        elif self.method == "exact":
            if self.deltas or self.chis:
                raise ValueError("exact sweeps take no deltas/chis")
        else:
            if not self.chis:
                raise ValueError(f"{self.method} sweeps need a non-empty chis list")
            if self.deltas:
                raise ValueError(f"deltas is not a {self.method} parameter")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        bad = sorted(set(doc) - known)
        if bad:
            raise ValueError(f"unknown config keys: {bad}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            out[f.name] = list(val) if isinstance(val, tuple) else val
        return out

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def build_lattice(self) -> Lattice:
        build, keys = _LATTICES[self.lattice["kind"]]
        return build(*(self.lattice[key] for key in keys))

    def points(self) -> list[tuple[float, str, float]]:
        """The sweep grid as (theta_h, param_name, param_value) triples."""
        if self.method == "spd":
            params = [("delta", float(d)) for d in self.deltas]
        elif self.method == "exact":
            params = [("exact", 0.0)]
        else:
            params = [("chi", float(c)) for c in self.chis]
        return [(t, name, val) for t in self.theta_h for name, val in params]


@dataclass(frozen=True)
class ResultRow:
    """One sweep point; None fields serialize as empty CSV cells."""

    method: str
    theta_h: float
    param_name: str
    param_value: float
    expectation: float | None
    norm_psi: float | None
    norm_o: float | None
    norm_mix: float | None
    peak_terms_or_maxbond: int
    wall_time_s: float
    flags: str

    @property
    def flagged(self) -> bool:
        return bool(self.flags)

    def to_csv(self) -> list[str]:
        return [_fmt(getattr(self, col)) for col in CSV_COLUMNS]

    @classmethod
    def from_csv(cls, record: dict) -> "ResultRow":
        return cls(
            method=record["method"],
            theta_h=float(record["theta_h"]),
            param_name=record["param_name"],
            param_value=float(record["param_value"]),
            expectation=_parse_opt(record["expectation"]),
            norm_psi=_parse_opt(record["norm_psi"]),
            norm_o=_parse_opt(record["norm_o"]),
            norm_mix=_parse_opt(record["norm_mix"]),
            peak_terms_or_maxbond=int(record["peak_terms_or_maxbond"]),
            wall_time_s=float(record["wall_time_s"]),
            flags=record["flags"],
        )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_opt(text: str) -> float | None:
    return float(text) if text else None


def _kicked_circuit(config: RunConfig, lattice: Lattice, word: PauliWord, theta: float):
    """The kicked-Ising circuit of one angle, light-cone pruned for ``spd``
    and ``exact`` (``run_tn`` prunes its own)."""
    circuit = kicked_ising(lattice, config.steps, theta, config.extra_x_layer)
    if config.method in ("spd", "exact") and config.lightcone:
        circuit = lightcone_prune(circuit, word.support())
    return circuit


def _spd_template(
    config: RunConfig, lattice: Lattice, word: PauliWord, fold: int
) -> RecompiledCircuit:
    """The recompiled circuit of the fold class ``fold`` in 0..3 (see
    ``_angle_circuit``), built at the class's angle ``fold*pi/2 + pi/8``.

    Its residual angle, pi/8 up to rounding, is nonzero, so every kick gate
    in the circuit leaves one rotation, of that angle up to sign; any other
    rotation raises.
    """
    theta = fold * math.pi / 2 + math.pi / 8
    theta_p = fold_angle(theta)[0]
    rc = recompile(_kicked_circuit(config, lattice, word, theta), word)
    for rot in rc.rotations:
        if abs(rot.angle) != theta_p:
            raise RuntimeError(
                f"rotation of angle {rot.angle!r} at kick angle {theta!r} does not "
                "come from a kick gate"
            )
    return rc


def _angle_circuit(
    config: RunConfig,
    lattice: Lattice,
    word: PauliWord,
    theta: float,
    template: Callable[[int], RecompiledCircuit] | None = None,
):
    """The circuit of one kick angle (see ``_kicked_circuit``), for ``spd``
    recompiled.

    With ``fold_angle(theta) = (theta', k)``, the rotation axes and signs,
    the residual Clifford and the transformed observable of the recompiled
    circuit depend on theta only through its fold class ``k % 4``.  They
    come from ``template(k % 4)`` (``_spd_template`` when not given), and
    each rotation gets the angle ``sign * theta'`` that ``recompile`` would
    give it, so the result is bit-identical to recompiling this angle's
    circuit; at theta' = 0 no rotation is left.
    """
    if config.method != "spd":
        return _kicked_circuit(config, lattice, word, theta)
    theta_p, k = fold_angle(theta)
    if template is None:
        template = partial(_spd_template, config, lattice, word)
    rc = template(k % 4)
    rotations = ()
    if theta_p != 0.0:
        neg = -theta_p  # one float object for all rotations, as for theta_p
        rotations = tuple(
            Rotation(rot.axis, theta_p if rot.angle > 0 else neg) for rot in rc.rotations
        )
    return RecompiledCircuit(rc.n, rotations, rc.residual_clifford, rc.transformed_observable)


def run_point(
    config: RunConfig,
    lattice: Lattice,
    word: PauliWord,
    theta: float,
    param_name: str,
    param_value: float,
    angle_circuit: Callable | None = None,
) -> ResultRow:
    """Evaluate one (theta_h, parameter) point; a failure lands in flags as
    ``error:<type>:<message>``, the message escaped by ``_escape_flag``.

    ``angle_circuit()`` returns this angle's circuit (see
    ``_angle_circuit``) when the caller shares it between points, as
    ``sweep`` does with a cached call that also shares each fold class's
    ``spd`` template between angles: the point that first calls it counts
    the build in its ``wall_time_s``, and so does the first point of a fold
    class the template build.  Without it the point builds its own circuit
    and template.
    """
    t0 = time.perf_counter()
    expectation = norm_psi = norm_o = norm_mix = None
    peak = 0
    flags: list[str] = []
    if angle_circuit is None:
        angle_circuit = partial(_angle_circuit, config, lattice, word, theta)
    try:
        prepared = angle_circuit()
        if config.method == "spd":
            res = run_spd(prepared, delta=param_value, max_terms=config.max_terms)
            expectation, norm_o, peak = res.expectation, res.norm, res.peak_terms
        elif config.method == "exact":
            expectation = statevector_expectation(prepared, word)
            norm_psi = 1.0
        else:
            res = run_tn(
                prepared,
                word,
                config.method,
                chi=int(param_value),
                kappa=config.kappa,
                bp_tol=config.bp_tol,
                bp_max_iter=config.bp_max_iter,
                damping=config.damping,
                lightcone=config.lightcone,
            )
            expectation = res.expectation
            norm_psi, norm_o, norm_mix = res.n_psi, res.n_o, res.n_mix
            peak = res.max_bond
            flags.extend(res.flags)
    except Exception as exc:
        message = _escape_flag(str(exc))
        flags.append(f"error:{type(exc).__name__}" + (f":{message}" if message else ""))
    wall = time.perf_counter() - t0 if config.record_timing else 0.0
    return ResultRow(
        method=config.method,
        theta_h=theta,
        param_name=param_name,
        param_value=param_value,
        expectation=expectation,
        norm_psi=norm_psi,
        norm_o=norm_o,
        norm_mix=norm_mix,
        peak_terms_or_maxbond=peak,
        wall_time_s=wall,
        flags=";".join(flags),
    )


_FLAG_UNSAFE = re.compile(r'[%;,"\x00-\x1f\x7f]')


def _escape_flag(text: str) -> str:
    """Percent-escape the characters that would split a flag (``;``) or
    its CSV row (``,``, ``"``, line breaks and other control characters),
    and ``%`` itself, so that ``urllib.parse.unquote`` gives the text back."""
    return _FLAG_UNSAFE.sub(lambda m: f"%{ord(m.group()):02X}", text)


def _sweep_rows(config: RunConfig) -> Callable[[tuple], Iterator[ResultRow]]:
    """The function that gives, in this process, the rows of one angle
    ``(theta, [(param_name, param_value), ...])`` of a sweep of ``config``
    (see ``_angle_rows``).  The lattice and the observable are built here,
    so a bad one raises before any angle runs; the fold-class templates
    are built on first use and kept by the function."""
    lattice = config.build_lattice()
    word = parse_pauli(config.observable, lattice.n)
    templates = cache(partial(_spd_template, config, lattice, word))
    return partial(_angle_rows, config, lattice, word, templates)


def _angle_rows(config, lattice, word, templates, angle) -> Iterator[ResultRow]:
    """Rows of the given parameters at one angle, in order, sharing the
    angle's circuit and the sweep's ``templates``; a build that fails is
    tried again by the next point, so each point of the angle records the
    failure."""
    theta, params = angle
    shared = cache(partial(_angle_circuit, config, lattice, word, theta, templates))
    for name, val in params:
        yield run_point(config, lattice, word, theta, name, val, shared)


# The angle rows of the sweep that this worker process runs, set once when
# the process starts (``_start_worker``).  It is never set in the calling
# process, and a worker ends with its sweep, so no template outlives it.
_worker_rows: Callable[[tuple], Iterator[ResultRow]] | None = None


def _start_worker(config: RunConfig) -> None:
    global _worker_rows
    _worker_rows = _sweep_rows(config)


def _rows_in_worker(angle) -> list[ResultRow]:
    return list(_worker_rows(angle))


def sweep(config: RunConfig, out=None, workers: int = 1) -> list[ResultRow]:
    """Run every grid point, optionally writing CSV rows as they finish.

    The points of one angle run in order in one process and share the
    angle's circuit (see ``_angle_circuit``).  For ``spd`` its
    angle-independent part is built and recompiled once per fold class in
    each process, in a template that the process keeps until the sweep
    returns; a failed build is not kept, so the next point of its class
    tries again.

    With one worker the angles run in the calling process.  With more,
    they run in ``min(workers, number of angles)`` processes started with
    the ``spawn`` method, each building its own lattice, observable and
    templates; the processes share nothing, and none is left once this
    call returns or raises.  Fewer than one worker raises.  Rows emit in
    grid order through a single writer, flushed per row, so a crash leaves
    a valid prefix of the table; a failed write or an interrupt cancels the
    angles not yet handed to a worker, and returns once the angles already
    running or queued in workers finish, up to ``workers + 1`` of them.  A
    worker process that dies raises ``RuntimeError``: each worker imports
    the caller's main module, so a script must call ``sweep`` under
    ``if __name__ == "__main__":``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    angle_rows = _sweep_rows(config)
    angles = [
        (theta, [(name, val) for _, name, val in group])
        for theta, group in groupby(config.points(), key=lambda point: point[0])
    ]
    handle = None
    writer = None
    if out is not None:
        handle = open(out, "w", newline="")
        handle.write(f"# {CSV_VERSION} config_digest={config.digest()}\n")
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        handle.flush()
    rows: list[ResultRow] = []
    results = map(angle_rows, angles)
    pool = None
    broken: tuple[type[BaseException], ...] = ()  # how a dead worker shows
    try:
        if workers > 1:
            # imported here: a one-worker sweep loads no process machinery
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool
            from multiprocessing import get_context

            broken = (BrokenProcessPool,)

            # spawn, not fork: this process may already run BLAS threads
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(angles)),
                mp_context=get_context("spawn"),
                initializer=_start_worker,
                initargs=(config,),
            )
            results = pool.map(_rows_in_worker, angles)
        for angle in results:
            for row in angle:
                rows.append(row)
                if writer is not None:
                    writer.writerow(row.to_csv())
                    handle.flush()
    except broken as exc:
        raise RuntimeError(
            f"a sweep worker process died (workers={workers}); each worker "
            "imports the calling script, so a script that calls sweep with "
            'workers > 1 must call it under `if __name__ == "__main__":`'
        ) from exc
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if handle is not None:
            handle.close()
    return rows


def read_rows(path) -> list[ResultRow]:
    """Load a sweep CSV, skipping the versioned header comment."""
    with open(path, newline="") as handle:
        lines = [ln for ln in handle if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or [])]
    if missing:
        raise ValueError(f"{path}: missing CSV columns {missing}")
    return [ResultRow.from_csv(rec) for rec in reader]


# -- convergence diagnostics --------------------------------------------


def _accuracy_key(row: ResultRow) -> float:
    """Sort key that increases with accuracy of the parameter."""
    if row.param_name == "delta":
        return -row.param_value
    return row.param_value


def _fit_abscissa(row: ResultRow) -> float:
    """The small parameter u whose u -> 0 limit is the exact value."""
    if row.param_name == "delta":
        return row.param_value
    if row.param_name == "chi":
        return 1.0 / row.param_value
    return 0.0


def _method_norm(row: ResultRow) -> float | None:
    if row.method == "mix":
        return row.norm_mix
    if row.method == "peps":
        return row.norm_psi
    return row.norm_o


@dataclass(frozen=True)
class ConvergenceReport:
    """Diagnostics for one (method, theta_h) series; see module docstring."""

    method: str
    theta_h: float
    param_name: str
    n_points: int
    available: bool
    sigma: float = math.nan
    slope: float = math.nan
    intercept: float = math.nan
    extrapolated: float = math.nan
    delta_extrap: float = math.nan
    value_top: float = math.nan
    norm_top: float = math.nan
    o_av: float = math.nan
    delta_av: float = math.nan

    def format(self) -> str:
        head = f"{self.method} theta_h={self.theta_h:.6f} ({self.n_points} points)"
        if not self.available:
            return f"{head}: diagnostics unavailable (need >= 3 points)"
        lines = [
            head,
            f"  value at top {self.param_name}: {self.value_top!r}",
            f"  sigma(last 3) = {self.sigma!r}",
            f"  fit v = a + b*u: a = {self.intercept!r}, b = {self.slope!r}",
            f"  extrapolated = {self.extrapolated!r}, delta = {self.delta_extrap!r}",
        ]
        if not math.isnan(self.o_av):
            lines.append(
                f"  o_av = {self.o_av!r} (norm {self.norm_top!r}),"
                f" delta_av = {self.delta_av!r}"
            )
        return "\n".join(lines)


def convergence_report(series: Sequence[ResultRow]) -> ConvergenceReport:
    """Diagnostics over one method/theta series (formulas: module docstring)."""
    all_rows = list(series)
    if not all_rows:
        raise ValueError("no rows in the series")
    methods = {r.method for r in all_rows}
    thetas = {round(r.theta_h, 12) for r in all_rows}
    if len(methods) > 1 or len(thetas) > 1:
        raise ValueError(
            f"series must cover one (method, theta_h); got {sorted(methods)} x {sorted(thetas)}"
        )
    rows = sorted(
        (r for r in all_rows if r.expectation is not None), key=_accuracy_key
    )
    anchor = rows[-1] if rows else all_rows[-1]
    base = dict(
        method=anchor.method,
        theta_h=anchor.theta_h,
        param_name=anchor.param_name,
        n_points=len(rows),
    )
    if len(rows) < 3:
        return ConvergenceReport(available=False, **base)
    last = rows[-3:]
    v = np.array([r.expectation for r in last], dtype=float)
    u = np.array([_fit_abscissa(r) for r in last], dtype=float)
    sigma = float(np.sqrt(np.mean((v - v.mean()) ** 2)))
    du = u - u.mean()
    denom = float(np.sum(du * du))
    if denom == 0.0:
        slope, intercept = 0.0, float(v.mean())
    else:
        slope = float(np.sum(du * (v - v.mean())) / denom)
        intercept = float(v.mean() - slope * u.mean())
    top = rows[-1]
    value_top = float(top.expectation)
    norm_top = _method_norm(top)
    if norm_top is not None and norm_top > 0.0:
        o_av = (value_top + value_top / norm_top) / 2.0
        delta_av = abs(value_top - o_av)
    else:
        norm_top, o_av, delta_av = math.nan, math.nan, math.nan
    return ConvergenceReport(
        available=True,
        sigma=sigma,
        slope=slope,
        intercept=intercept,
        extrapolated=intercept,
        delta_extrap=abs(value_top - intercept),
        value_top=value_top,
        norm_top=norm_top,
        o_av=o_av,
        delta_av=delta_av,
        **base,
    )


def report_all(rows: Iterable[ResultRow]) -> list[ConvergenceReport]:
    """Group rows by (method, theta_h) and report each group in theta order."""
    groups: dict[tuple[str, float], list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.method, round(row.theta_h, 12)), []).append(row)
    return [convergence_report(groups[key]) for key in sorted(groups)]


# -- cross-method comparison --------------------------------------------


@dataclass(frozen=True)
class ComparisonReport:
    """Best-parameter values per method on a shared theta_h grid."""

    names: tuple[str, ...]
    thetas: tuple[float, ...]
    values: dict[float, dict[str, float]]
    spreads: dict[float, float]
    pairwise: dict[tuple[str, str], float]
    reference: str | None
    max_abs_err: dict[str, float]

    @property
    def max_spread(self) -> float:
        return max(self.spreads.values())

    def format(self) -> str:
        head = "theta_h".ljust(10) + "".join(n.rjust(22) for n in self.names)
        lines = [head + "spread".rjust(22)]
        for t in self.thetas:
            cells = "".join(repr(self.values[t][n]).rjust(22) for n in self.names)
            lines.append(f"{t:<10.6f}{cells}{self.spreads[t]:>22.3e}")
        lines.append(f"max spread: {self.max_spread:.6e}")
        for (a, b), d in sorted(self.pairwise.items()):
            # a pair with the reference is printed once, below, as its deviation
            if self.reference not in (a, b):
                lines.append(f"max |{a} - {b}|: {d:.6e}")
        if self.reference is not None:
            for name in self.names:
                if name != self.reference:
                    lines.append(
                        f"max |{name} - {self.reference}|: {self.max_abs_err[name]:.6e}"
                    )
        return "\n".join(lines)


def compare(
    tables: dict[str, Sequence[ResultRow]], reference: str | None = None
) -> ComparisonReport:
    """Per-theta spread and pairwise differences at each table's best parameter.

    Every table must cover the same theta_h grid with an unflagged-or-usable
    value at its most accurate parameter; missing points and tables without
    any value raise with a list.
    """
    if reference is not None and reference not in tables:
        raise ValueError(f"reference {reference!r} is not among {sorted(tables)}")
    best: dict[str, dict[float, float]] = {}
    for name, rows in tables.items():
        per_theta: dict[float, ResultRow] = {}
        for row in rows:
            if row.expectation is None:
                continue
            key = round(row.theta_h, 12)
            cur = per_theta.get(key)
            if cur is None or _accuracy_key(row) > _accuracy_key(cur):
                per_theta[key] = row
        best[name] = {t: r.expectation for t, r in per_theta.items()}
    empty = sorted(name for name, vals in best.items() if not vals)
    if empty or not best:
        raise ValueError(f"no usable value to compare in the tables {empty}")
    grid = sorted({t for vals in best.values() for t in vals})
    missing = [
        (name, t) for name in sorted(best) for t in grid if t not in best[name]
    ]
    if missing:
        raise ValueError(f"theta_h grids do not match; missing points: {missing}")
    names = tuple(sorted(tables))
    values = {t: {n: best[n][t] for n in names} for t in grid}
    spreads = {t: max(values[t].values()) - min(values[t].values()) for t in grid}
    pairwise = {
        (a, b): max(abs(values[t][a] - values[t][b]) for t in grid)
        for a, b in combinations(names, 2)
    }
    max_abs_err = {
        name: max(abs(values[t][name] - values[t][reference]) for t in grid)
        for name in names
        if reference is not None
    }
    return ComparisonReport(
        names=names,
        thetas=tuple(grid),
        values=values,
        spreads=spreads,
        pairwise=pairwise,
        reference=reference,
        max_abs_err=max_abs_err,
    )


# -- loop-error characterization ------------------------------------------


@dataclass(frozen=True)
class LoopErrorReport:
    """|Bethe - exact| samples from shallow sandwiches on looped graphs."""

    entries: tuple[tuple[str, int, float, int], ...]
    errors: tuple[float, ...]
    median: float
    counts: tuple[int, ...]
    bin_edges: tuple[float, ...]

    def format(self) -> str:
        lines = [
            f"{len(self.errors)} samples, median |Bethe - exact| = {self.median:.3e}",
            "log10(error) histogram:",
        ]
        for lo, hi, c in zip(self.bin_edges, self.bin_edges[1:], self.counts):
            bar = "#" * c
            lines.append(f"  [{lo:+6.2f}, {hi:+6.2f}) {c:4d} {bar}")
        return "\n".join(lines)


def loop_error_histogram(
    lattices: dict[str, Lattice] | None = None,
    steps: Sequence[int] = (2, 3),
    thetas: Sequence[float] | None = None,
    sites: Sequence[int] = (0, 3, 6),
    chi: int = 4,
    bp_options: BpOptions | None = None,
    bins: int = 16,
) -> LoopErrorReport:
    """Bethe-vs-exact error distribution on shallow loopy sandwiches.

    For each (lattice, depth, theta_h, observable site), the state evolves
    through depth-1 fused compression steps at the given chi and absorbs the
    last step uncompressed; the sandwich <psi|Z_site|psi> is then evaluated
    once by one-norm BP and once exactly, from the state's dense amplitudes,
    so the recorded error isolates the Bethe approximation on loops.  The
    dense referee holds 2^n amplitudes within ``CONTRACT_BUDGET``, so every
    lattice must have n <= 27 sites.
    """
    if lattices is None:
        lattices = {"heavy_hex_12": heavy_hex(1, 1), "grid_3x4": grid(3, 4)}
    if thetas is None:
        thetas = tuple(k * math.pi / 32 for k in (3, 7, 11, 13))
    opts = bp_options or BpOptions()
    entries = []
    errors = []
    for lat_name, lattice in lattices.items():
        for depth in steps:
            for theta in thetas:
                circuit = kicked_ising(lattice, depth, theta)
                groups = _step_groups(circuit)
                psi = peps_zero(lattice.n)
                for group in groups[:-1]:
                    psi = evolve(psi, group, chi=chi, bp_options=opts)
                for layer in groups[-1]:
                    apply_layer(psi, layer)
                kets = [psi.tensors[i] for i in range(lattice.n)]
                path = greedy_path(kets, budget=CONTRACT_BUDGET)
                output = tuple(f"p{i}" for i in range(lattice.n))
                amps = contract(kets, output, path).data.reshape(-1)
                for site in sites:
                    word = PauliWord.from_sites(lattice.n, z=(site,))
                    sn = sandwich_network(psi, pepo_from_word(word))
                    bethe = l1bp_value(sn, opts.iterate(sn, mode="one-norm"))
                    exact = np.vdot(amps, pauli_apply(amps, word))
                    errors.append(abs(bethe - exact))
                    entries.append((lat_name, depth, theta, site))
    logs = np.log10(np.maximum(np.array(errors), 1e-300))
    counts, edges = np.histogram(logs, bins=bins)
    return LoopErrorReport(
        entries=tuple(entries),
        errors=tuple(errors),
        median=float(np.median(errors)),
        counts=tuple(int(c) for c in counts),
        bin_edges=tuple(float(e) for e in edges),
    )
