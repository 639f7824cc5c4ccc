"""What ``import spdtn`` loads, each case in a fresh interpreter.

The package root imports the sparse engine and the circuit builders; the
tensor-network stack, the oracles and the sweep harness load on first use
(``spdtn._LAZY``).  A module that another test already imported stays in
this process's ``sys.modules``, so every check runs in a subprocess.
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import spdtn

SRC = Path(spdtn.__file__).resolve().parents[1]
NOT_ON_SPD_PATH = (
    "spdtn.bench",
    "spdtn.bp",
    "spdtn.oracle",
    "spdtn.tensor",
    "spdtn.tn",
    "hashlib",
    "concurrent.futures",
)


def run_fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter with this checkout's package
    first on the path; its last line of output is a Python literal."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
         + textwrap.dedent(code), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_spd_quick_start_loads_no_tensor_network_or_harness():
    loaded, peak = run_fresh(f"""
        from spdtn import chain, kicked_ising, lightcone_prune, parse_pauli, recompile, run_spd

        lat = chain(8)
        circ = kicked_ising(lat, steps=4, theta_h=0.35)
        obs = parse_pauli("Z3", lat.n)
        r = run_spd(recompile(lightcone_prune(circ, obs.support()), obs), delta=1e-5)
        print(([m for m in {NOT_ON_SPD_PATH!r} if m in sys.modules], r.peak_terms))
    """)
    assert loaded == []
    assert peak == 70  # the README quick start's figure: the run really happened


def test_one_worker_sweep_loads_no_thread_pool(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "lattice": {"kind": "chain", "n": 4},
        "observable": "Z1",
        "steps": 2,
        "method": "spd",
        "theta_h": [0.0, 0.3],
        "deltas": [0.0],
    }))
    code = """
        from spdtn.cli import main

        status = main(["sweep", "--config", sys.argv[1], "--workers", sys.argv[2]])
        print((status, "concurrent.futures" in sys.modules))
    """
    assert run_fresh(code, str(config), "1") == (0, False)
    assert run_fresh(code, str(config), "2") == (0, True)


def test_every_export_resolves_to_its_defining_module():
    """Each ``__all__`` name is the very object its module defines (the
    module whose own ``__all__`` lists it), whether imported eagerly or on
    first access; ``dir`` lists them before any is touched; an unknown name
    raises ``AttributeError``."""
    listed, unknown, mismatched, star = run_fresh("""
        import importlib
        import spdtn

        listed = set(spdtn.__all__) <= set(dir(spdtn))
        try:
            spdtn.no_such_name
            unknown = "resolved"
        except AttributeError as exc:
            unknown = str(exc)
        owner = {}
        for module in ("paulis", "circuits", "clifford", "spd", *sorted(set(spdtn._LAZY.values()))):
            mod = importlib.import_module(f"spdtn.{module}")
            owner.update(dict.fromkeys(mod.__all__, mod))
        mismatched = [
            name for name in spdtn.__all__
            if name != "__version__" and getattr(spdtn, name) is not getattr(owner[name], name)
        ]
        scope = {}
        exec("from spdtn import *", scope)
        star = sorted(scope.keys() - {"__builtins__"}) == sorted(spdtn.__all__)
        print((listed, unknown, mismatched, star))
    """)
    assert listed
    assert unknown == "module 'spdtn' has no attribute 'no_such_name'"
    assert mismatched == []
    assert star
