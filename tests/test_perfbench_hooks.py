"""The benchmark's hooks into the package.

``perfbench/tracing.py`` wraps package functions by module and name, and
``perfbench/workloads.py`` (``_discard_probe``) replaces ``bench.run_point``
and ``tn.compress_bond``.  A rename in the package fails here, not only in a
traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import spdtn
from spdtn import bench, bp, cli, spd, tensor, tn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (spdtn, bench, bp, cli, spd, tensor, tn)


def test_tracer_wraps_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = [dict(vars(module)) for module in MODULES]
    try:
        tracer = importlib.import_module("tracing").Tracer()
        try:
            tracer.install()
            wrapped = list(tracer._wrapped)
            for module, attr, inner in wrapped:
                assert getattr(module, attr) is not inner, (module.__name__, attr)
        finally:
            tracer.uninstall()
    finally:
        sys.modules.pop("tracing", None)
    hooks = {(module.__name__, attr) for module, attr, _ in wrapped}
    assert {("spdtn.bench", "run_point"), ("spdtn.tn", "compress_bond")} <= hooks
    for module, names in zip(MODULES, before):
        now = vars(module)
        assert now.keys() == names.keys(), module.__name__
        changed = [name for name, value in names.items() if now[name] is not value]
        assert not changed, (module.__name__, changed)
