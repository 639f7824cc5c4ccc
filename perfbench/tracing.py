"""In-memory spans around calls into the spdtn layers.

Each public function is wrapped where the calling module looks it up (for
example ``spdtn.spd.anticommute_mask``, which ``apply_rotation`` reads from
its own module globals), so the package itself is untouched.  A span is
``[name, start, end, parent]``; spans stay in memory and are written out
once the run ends.  A span's self time is its duration minus the part of it
that its child spans cover; the self times of all spans under the root add
up to the root's duration exactly.

Counters are recorded at the same boundaries, from the arguments and results
of the wrapped calls.  The one counter that costs real work, the running
discarded weight of the sparse engine, is computed inside its own span
(``trace.counters``) so that it is not charged to any layer.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# span name -> per-layer metric holding the sum of its self times
SELF_TIME_METRICS = {
    "circuits.build": "circuits.build_s",
    "circuits.prune": "circuits.prune_s",
    "clifford.recompile": "clifford.recompile_s",
    "paulis.anticommute_mask": "paulis.anticommute_mask_s",
    "paulis.mul_rows": "paulis.mul_rows_s",
    "paulis.pack_keys": "paulis.pack_keys_s",
    "spd.run_spd": "spd.run_spd_s",
    "spd.apply_rotation": "spd.apply_rotation_self_s",
    "tensor.contract": "tensor.contract_s",
    "tensor.greedy_path": "tensor.greedy_path_s",
    "tensor.truncated_svd": "tensor.truncated_svd_s",
    "bp.two_norm": "bp.two_norm_s",
    "bp.one_norm": "bp.one_norm_s",
    "bp.compress_bond": "bp.compress_bond_s",
    "bp.l1bp_value": "bp.l1bp_value_s",
    "tn.run_tn": "tn.run_tn_s",
    "tn.evolve": "tn.evolve_self_s",
    "tn.apply_layer": "tn.apply_layer_s",
    "tn.state_norm": "tn.state_norm_s",
    "tn.sandwich": "tn.sandwich_s",
    "cli.main": "bench.self_s",
    "bench.sweep": "bench.self_s",
    "bench.run_point": "bench.self_s",
    "trace.counters": "trace.counters_s",
    "wall": "trace.residue_s",
}

COUNT_METRICS = (
    "circuits.kept_gates",
    "clifford.recompile_calls",
    "clifford.rotations",
    "spd.rotations_applied",
    "spd.rotations_branching",
    "spd.terms_scanned",
    "spd.peak_terms",
    "spd.peak_term_mb",
    "spd.discarded_weight",
    "tensor.contract_calls",
    "tensor.greedy_path_calls",
    "bp.two_norm_iterations",
    "bp.one_norm_iterations",
    "bp.compress_bond_calls",
    "bp.final_residual",
    "bp.discarded_weight",
    "tn.max_bond",
    "bench.points",
)


class Tracer:
    """Span recorder plus the counters read from wrapped calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._last_sum = None
        self._last_norm2 = 0.0
        self._wrapped: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        record = [name, 0.0, 0.0, parent]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, module, attr: str, name, after=None) -> None:
        """Replace ``module.attr`` by a spanned call; ``name`` may be a
        function of the call's arguments, ``after(args, kwargs, result)``
        updates counters once the span has closed."""
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                out = inner(*args, **kwargs)
            if after is not None:
                after(args, kwargs, out)
            return out

        self._wrapped.append((module, attr, inner))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped function back, so that checks go untraced."""
        while self._wrapped:
            module, attr, inner = self._wrapped.pop()
            setattr(module, attr, inner)

    def install(self) -> None:
        """Wrap every layer boundary the four workloads cross."""
        import spdtn
        from spdtn import bench, bp, cli, spd, tensor, tn

        c = self.counts

        def add(key, amount=1):
            c[key] += amount

        def kept(a, k, out):
            add("circuits.kept_gates", out.num_gates)

        def recompiled(a, k, out):
            add("clifford.recompile_calls")
            add("clifford.rotations", len(out.rotations))

        def spd_done(a, k, out):
            c["spd.peak_terms"] = max(c["spd.peak_terms"], out.peak_terms)
            self._last_sum = None

        def bp_done(a, k, out):
            mode = k.get("mode", "one-norm")
            add("bp.two_norm_iterations" if mode == "two-norm" else "bp.one_norm_iterations",
                out.iterations)
            if mode == "one-norm":
                c["bp.final_residual"] = max(c["bp.final_residual"], out.max_delta)

        def compressed(a, k, out):
            add("bp.compress_bond_calls")
            add("bp.discarded_weight", out[2])

        def tn_done(a, k, out):
            c["tn.max_bond"] = max(c["tn.max_bond"], out.max_bond)

        def bp_name(a, k):
            return "bp.two_norm" if k.get("mode", "one-norm") == "two-norm" else "bp.one_norm"

        for mod in (spdtn, bench):
            self.wrap(mod, "kicked_ising", "circuits.build")
            self.wrap(mod, "recompile", "clifford.recompile", recompiled)
            self.wrap(mod, "run_spd", "spd.run_spd", spd_done)
        for mod in (spdtn, bench, tn):
            self.wrap(mod, "lightcone_prune", "circuits.prune", kept)
        self.wrap(spd, "apply_rotation", "spd.apply_rotation", self._rotation_done)
        self.wrap(spd, "anticommute_mask", "paulis.anticommute_mask")
        self.wrap(spd, "mul_rows", "paulis.mul_rows",
                  lambda a, k, out: add("spd.rotations_branching"))
        self.wrap(spd, "pack_keys", "paulis.pack_keys")
        self.wrap(bench, "run_tn", "tn.run_tn", tn_done)
        self.wrap(tn, "evolve", "tn.evolve")
        self.wrap(tn, "apply_layer", "tn.apply_layer")
        self.wrap(tn, "state_norm", "tn.state_norm")
        self.wrap(tn, "sandwich_network", "tn.sandwich")
        self.wrap(tn, "bp_iterate", bp_name, bp_done)
        self.wrap(tn, "compress_bond", "bp.compress_bond", compressed)
        self.wrap(tn, "l1bp_value", "bp.l1bp_value")
        for mod in (tn, bp):
            self.wrap(mod, "contract", "tensor.contract",
                      lambda a, k, out: add("tensor.contract_calls"))
        self.wrap(tensor, "greedy_path", "tensor.greedy_path",
                  lambda a, k, out: add("tensor.greedy_path_calls"))
        self.wrap(tn, "truncated_svd", "tensor.truncated_svd")
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "sweep", "bench.sweep")
        self.wrap(bench, "run_point", "bench.run_point",
                  lambda a, k, out: add("bench.points"))

    def _rotation_done(self, args, kwargs, out) -> None:
        """Counters of one ``apply_rotation`` call.

        The discarded weight of a call is its input's squared norm minus its
        output's: rotations are unitary, so only truncation lowers the norm.
        The input of each call is the previous call's output, so one norm
        per changed sum suffices.
        """
        c = self.counts
        s = args[0]
        c["spd.rotations_applied"] += 1
        c["spd.terms_scanned"] += s.num_terms
        mib = (out.words.nbytes + out.coeffs.nbytes) / 2**20
        c["spd.peak_term_mb"] = max(c["spd.peak_term_mb"], mib)
        with self.span("trace.counters"):
            norm2_in = self._last_norm2 if s is self._last_sum else _norm2(s.coeffs)
            norm2_out = norm2_in if out is s else _norm2(out.coeffs)
            c["spd.discarded_weight"] += norm2_in - norm2_out
            self._last_sum, self._last_norm2 = out, norm2_out

    def metrics(self) -> dict[str, float]:
        """Per-layer self times and counters; ``trace.wall_s`` is the root."""
        out = {m: 0.0 for m in SELF_TIME_METRICS.values()}
        names = [s[0] for s in self.spans]
        for name, start, end, parent in self.spans:
            dur = end - start
            out[SELF_TIME_METRICS[name]] += dur
            if parent >= 0:
                out[SELF_TIME_METRICS[names[parent]]] -= dur
        out.update(self.counts)
        out["trace.wall_s"] = sum(e - s for n, s, e, p in self.spans if p < 0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans},
                      handle, separators=(",", ":"))


def _norm2(coeffs) -> float:
    import numpy as np

    return float(np.vdot(coeffs, coeffs).real)
