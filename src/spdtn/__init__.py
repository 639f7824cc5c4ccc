"""Heisenberg-picture expectation values of Pauli observables under
Clifford-plus-rotation circuits, via sparse Pauli dynamics and
belief-propagation tensor networks, with exact small-scale oracles."""

from .circuits import (
    Circuit,
    Gate,
    Lattice,
    Layer,
    chain,
    device_127,
    gate_matrix,
    grid,
    heavy_hex,
    kicked_ising,
    lightcone_prune,
    load_lattice,
    ring,
)
from .clifford import CliffordTableau, RecompiledCircuit, Rotation, fold_angle, recompile
from .paulis import (
    PauliSum,
    PauliWord,
    PhasedWord,
    anticommutes,
    format_pauli,
    parse_pauli,
    pauli_mul,
)
from .spd import MAX_TERMS_ENV, SpdCapacityError, SpdResult, apply_rotation, run_spd

__version__ = "0.1.0"

# Every other public name, with the module that defines it.  ``import
# spdtn`` loads the sparse engine and the circuit builders above and no
# more; the tensor-network stack, the oracles and the sweep harness load on
# first access to one of their names or to the module itself (PEP 562).
_LAZY = {
    "ComparisonReport": "bench",
    "ConvergenceReport": "bench",
    "LoopErrorReport": "bench",
    "ResultRow": "bench",
    "RunConfig": "bench",
    "compare": "bench",
    "convergence_report": "bench",
    "loop_error_histogram": "bench",
    "read_rows": "bench",
    "report_all": "bench",
    "run_point": "bench",
    "sweep": "bench",
    "MessageSet": "bp",
    "SiteNetwork": "bp",
    "bp_iterate": "bp",
    "compress_bond": "bp",
    "doubled_sites": "bp",
    "l1bp_value": "bp",
    "clifford_expectation": "oracle",
    "exact_contract": "oracle",
    "heisenberg_dense_expectation": "oracle",
    "pauli_apply": "oracle",
    "statevector": "oracle",
    "statevector_expectation": "oracle",
    "CapacityError": "tensor",
    "Tensor": "tensor",
    "contract": "tensor",
    "greedy_path": "tensor",
    "truncated_svd": "tensor",
    "BpOptions": "tn",
    "EvolvingState": "tn",
    "TnResult": "tn",
    "run_tn": "tn",
}
_LAZY_MODULES = frozenset(_LAZY.values())

__all__ = [
    "__version__",
    "PauliWord",
    "PhasedWord",
    "PauliSum",
    "pauli_mul",
    "anticommutes",
    "parse_pauli",
    "format_pauli",
    "CliffordTableau",
    "Rotation",
    "RecompiledCircuit",
    "recompile",
    "fold_angle",
    "SpdResult",
    "SpdCapacityError",
    "MAX_TERMS_ENV",
    "apply_rotation",
    "run_spd",
    "Gate",
    "Layer",
    "Circuit",
    "Lattice",
    "heavy_hex",
    "ring",
    "chain",
    "grid",
    "load_lattice",
    "device_127",
    "kicked_ising",
    "lightcone_prune",
    "gate_matrix",
    "Tensor",
    "CapacityError",
    "contract",
    "greedy_path",
    "truncated_svd",
    "SiteNetwork",
    "MessageSet",
    "doubled_sites",
    "bp_iterate",
    "l1bp_value",
    "compress_bond",
    "BpOptions",
    "EvolvingState",
    "TnResult",
    "run_tn",
    "statevector",
    "pauli_apply",
    "statevector_expectation",
    "heisenberg_dense_expectation",
    "clifford_expectation",
    "exact_contract",
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


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY_MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys() | _LAZY_MODULES)
