"""Make every reference value of the benchmark anew, apart from the engine under test.

    python3 perfbench/reference.py [--seed N] [--write]

Without ``--seed`` it covers both instances (even and odd seeds, see
``workloads.py``).  It compares what it computes with
``perfbench/references.json`` and exits 1 on any difference; ``--write``
stores the computed values instead.

- Truncated SPD points (``spd_deep`` and the non-Clifford ``spd_sweep``
  points): the plain-Python propagation of ``pauliref`` on the rotations and
  transformed observable that ``spdtn.recompile`` produces.
- Clifford sweep points (k = 0 and 16): the per-gate tableau oracle
  ``spdtn.clifford_expectation`` on the unpruned circuit.
- Exact T = 5 value: SPD at delta = 0 and lossless ``mix`` at chi = 8, two
  different engines, which must agree within 1e-10 before anything is
  written.  Each workload is checked against the engine it does not run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
sys.path.insert(0, str(HERE.parent / "src"))

import pauliref  # noqa: E402
from workloads import (  # noqa: E402
    CLIFFORD_K,
    EXACT_STEPS,
    EXACT_TOL,
    GRID,
    K_HARD,
    OBSERVABLE,
    SWEEP_DELTAS,
    SWEEP_STEPS,
    SpdDeep,
    instance_key,
    kick_angle,
    kick_sign,
    point_key,
)


class Instance:
    def __init__(self, sign: int):
        import spdtn

        self.sp = spdtn
        self.sign = sign
        self.lattice = spdtn.device_127()
        self.obs = spdtn.parse_pauli(OBSERVABLE, self.lattice.n)

    def circuit(self, steps: int, k: int):
        return self.sp.kicked_ising(self.lattice, steps, kick_angle(k, self.sign))

    def recompiled(self, steps: int, k: int):
        pruned = self.sp.lightcone_prune(self.circuit(steps, k), self.obs.support())
        return self.sp.recompile(pruned, self.obs)

    def propagated(self, rotations, terms, delta: float) -> dict:
        out = pauliref.propagate(rotations, terms, delta)
        value, norm = pauliref.readout(out["terms"])
        return {"value": value, "norm": norm, "peak_terms": out["peak"],
                "final_terms": len(out["terms"])}

    def spd_deep(self) -> dict:
        rc = self.recompiled(SpdDeep.steps, K_HARD)
        return self.propagated(*pauliref.from_recompiled(rc), SpdDeep.delta)

    def spd_sweep(self) -> dict:
        points, clifford = {}, {}
        for k in GRID:
            if k in CLIFFORD_K:
                clifford[str(k)] = self.sp.clifford_expectation(
                    self.circuit(SWEEP_STEPS, k), self.obs)
                continue
            rotations, terms = pauliref.from_recompiled(self.recompiled(SWEEP_STEPS, k))
            for delta in SWEEP_DELTAS:
                points[point_key(k, delta)] = self.propagated(rotations, terms, delta)
        return {"points": points, "clifford": clifford}

    def exact_t5(self) -> dict:
        spd = self.sp.run_spd(self.recompiled(EXACT_STEPS, K_HARD), delta=0.0).expectation
        defaults = self.sp.RunConfig(lattice={"kind": "device_127"}, observable=OBSERVABLE,
                                     steps=EXACT_STEPS, method="mix", chis=(8,))
        mix = self.sp.run_tn(
            self.circuit(EXACT_STEPS, K_HARD), self.obs, "mix", chi=8,
            kappa=defaults.kappa, bp_tol=defaults.bp_tol, bp_max_iter=defaults.bp_max_iter,
            damping=defaults.damping, lightcone=defaults.lightcone,
        ).expectation
        if abs(spd - mix) > EXACT_TOL:
            raise SystemExit(f"exact T={EXACT_STEPS} values disagree: spd {spd!r}, mix {mix!r}")
        return {"spd_delta0": spd, "mix_chi8": mix}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="only the instance this benchmark seed runs")
    parser.add_argument("--write", action="store_true",
                        help="store the values instead of comparing")
    args = parser.parse_args(argv)
    seeds = (0, 1) if args.seed is None else (args.seed,)

    computed = {}
    for seed in seeds:
        inst = Instance(kick_sign(seed))
        entry = {}
        for part in ("spd_deep", "spd_sweep", "exact_t5"):
            start = time.perf_counter()
            entry[part] = getattr(inst, part)()
            print(f"instance {instance_key(seed)} {part}: {time.perf_counter() - start:.1f} s",
                  file=sys.stderr)
        computed[instance_key(seed)] = entry

    committed = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    if args.write:
        committed.update(computed)
        REFERENCES.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCES.name}: instances {sorted(computed)}")
        return 0
    differ = [key for key, entry in computed.items() if committed.get(key) != entry]
    for key in sorted(computed):
        print(f"instance {key}: {'DIFFERS' if key in differ else 'reproduced'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
