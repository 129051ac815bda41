"""End-to-end experiment drivers: error tables, scaling studies, file output.

One cell of a table is: build the symbol-selected index set at (k, delta),
assemble and solve the least-squares system, compare against the exact
solution (homogeneous) or an order-4 FEM reference (heterogeneous) in the
relative H1_k norm on the error window.
"""

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import analysis, assembly_solver, quadrature as quad, reference_fem
from .phase_space import LatticeSpec, build_symbol_set, search_bounds_from_symbol
from .problem_model import ProblemCase

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "EmptyIndexSetError",
    "run_case",
    "run_cell",
    "scaling_study",
    "emit",
    "DEFAULT_SCALING_DELTAS",
]

MIN_WAVENUMBER = 20.0

# quarter-octave delta grid for target-accuracy scans
DEFAULT_SCALING_DELTAS = tuple(
    round(0.1 * 2 ** (j / 4.0), 6) for j in range(0, 28)
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one table or scaling run; flat and JSON-serializable."""

    case: str = "homogeneous"
    ks: tuple = (20.0,)
    deltas: tuple = (2.0,)
    target_accuracy: float = None
    cutoff: float = assembly_solver.DEFAULT_CUTOFF
    error_window: tuple = (-1.0, 1.0)
    fem_x_end: float = reference_fem.DEFAULT_X_END
    output_path: str = None
    output_format: str = "csv"

    def __post_init__(self):
        if any(k < MIN_WAVENUMBER for k in self.ks):
            raise ValueError(f"wavenumbers below {MIN_WAVENUMBER} are out of scope")
        if any(d <= 0.0 for d in self.deltas):
            raise ValueError("deltas must be positive")

    @staticmethod
    def from_dict(data):
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(data)
        for key in ("ks", "deltas", "error_window"):
            if key in coerced and coerced[key] is not None:
                coerced[key] = tuple(coerced[key])
        return ExperimentConfig(**coerced)


@dataclass(frozen=True)
class ExperimentRecord:
    """One (k, delta) run."""

    k: float
    delta: float
    ndofs: int
    rel_h1k_error: float
    rank: int


class EmptyIndexSetError(RuntimeError):
    """The symbol selects no lattice pair at this (k, delta)."""


class _ReferenceCache:
    """FEM references are expensive; share them across deltas at fixed k."""

    def __init__(self, x_end):
        self.x_end = x_end
        self._store = {}

    def reference(self, case):
        if case.has_exact_solution:
            return (
                lambda x: case.exact_solution(x, 0),
                lambda x: case.exact_solution(x, 1),
            )
        key = (case.name, case.k)
        if key not in self._store:
            sol = reference_fem.fem_solve(case, x_end=self.x_end)
            self._store[key] = sol
        sol = self._store[key]
        return (lambda x: sol(x, 0), lambda x: sol(x, 1))


def _density_for(index_set):
    """Scale node density so the fastest Gram oscillation keeps ~20 nodes."""
    xi = index_set.xi_array()
    xi_max = float(np.max(np.abs(xi))) if xi.size else 1.0
    return math.ceil(40.0 * max(1.0, xi_max))


def run_cell(case, delta, config, cache=None):
    """Run a single (case, delta) cell and return (record, report, index_set)."""
    cache = cache or _ReferenceCache(config.fem_x_end)
    spec = LatticeSpec(1.0 / case.k)
    bounds = search_bounds_from_symbol(case.symbol, delta, spec)
    index_set = build_symbol_set(spec, case.symbol, delta, bounds=bounds)
    if len(index_set) == 0:
        raise EmptyIndexSetError(f"empty index set at k={case.k}, delta={delta}")
    density = _density_for(index_set)
    states = assembly_solver.states_from_index_set(index_set)
    lo, hi = quad.support_window(states)
    flo, fhi = case.rhs_support()
    rule = quad.build_rule((min(lo, flo), max(hi, fhi)), case.k, density)
    system = assembly_solver.assemble(index_set, case, rule)
    report = assembly_solver.solve(system, config.cutoff)

    u_ref = cache.reference(case)
    u_approx = (
        lambda x: assembly_solver.reconstruct(report, index_set, x, 0),
        lambda x: assembly_solver.reconstruct(report, index_set, x, 1),
    )
    err = analysis.h1k_error(
        u_approx, u_ref, config.error_window, case.k, nodes_per_wavelength=density
    )
    record = ExperimentRecord(case.k, float(delta), len(index_set), err.relative, report.numerical_rank)
    return record, report, index_set


def run_case(config):
    """Run the full (k, delta) grid of a config; deterministic given config."""
    records = []
    cache = _ReferenceCache(config.fem_x_end)
    for k in config.ks:
        case = ProblemCase.from_name(config.case, k)
        for delta in config.deltas:
            try:
                record, _, _ = run_cell(case, delta, config, cache)
            except Exception as exc:
                raise RuntimeError(f"cell k={k}, delta={delta} failed: {exc}") from exc
            records.append(record)
    return records


@dataclass(frozen=True)
class ScalingStudy:
    ks: tuple
    deltas: tuple
    ndofs: tuple
    errors: tuple
    dropped_ks: tuple
    ndofs_slope: float
    delta_slope: float


def scaling_study(config):
    """Smallest delta reaching the target accuracy per k, plus log-log slopes."""
    if config.target_accuracy is None or config.target_accuracy <= 0.0:
        raise ValueError("scaling_study needs a positive target_accuracy")
    if len(config.ks) < 4:
        raise ValueError("scaling_study needs at least 4 wavenumbers")
    deltas = tuple(sorted(config.deltas)) if config.deltas else DEFAULT_SCALING_DELTAS
    cache = _ReferenceCache(config.fem_x_end)

    hit_k, hit_delta, hit_n, hit_err, dropped = [], [], [], [], []
    for k in config.ks:
        case = ProblemCase.from_name(config.case, k)
        found = False
        for delta in deltas:
            try:
                record, _, _ = run_cell(case, delta, config, cache)
            except EmptyIndexSetError:
                # sub-threshold deltas select nothing at small k
                continue
            if record.rel_h1k_error <= config.target_accuracy:
                hit_k.append(k)
                hit_delta.append(delta)
                hit_n.append(record.ndofs)
                hit_err.append(record.rel_h1k_error)
                found = True
                break
        if not found:
            dropped.append(k)
    if len(hit_k) < 4:
        raise RuntimeError(
            f"target {config.target_accuracy} reached for only {len(hit_k)} wavenumbers"
        )
    log_k = np.log(np.array(hit_k))
    n_slope = float(np.polyfit(log_k, np.log(np.array(hit_n, dtype=float)), 1)[0])
    d_slope = float(np.polyfit(log_k, np.log(np.array(hit_delta)), 1)[0])
    return ScalingStudy(
        tuple(hit_k), tuple(hit_delta), tuple(hit_n), tuple(hit_err),
        tuple(dropped), n_slope, d_slope,
    )


CSV_HEADER = "k,delta,ndofs,rel_h1k_error,rank"


def _format_row(r):
    return f"{r.k:g},{r.delta:g},{r.ndofs},{r.rel_h1k_error:.4e},{r.rank}"


def emit(records, fmt="csv", path=None):
    """Serialize records; bytes are deterministic given the records."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        text = CSV_HEADER + "\n" + "\n".join(_format_row(r) for r in records) + "\n"
    elif fmt == "json":
        rows = [
            {
                "k": r.k,
                "delta": r.delta,
                "ndofs": r.ndofs,
                "rel_h1k_error": float(f"{r.rel_h1k_error:.4e}"),
                "rank": r.rank,
            }
            for r in records
        ]
        text = json.dumps(rows, indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def parse_records_csv(text):
    """Inverse of emit(..., 'csv'), used by round-trip checks."""
    reader = csv.DictReader(io.StringIO(text))
    out = []
    for row in reader:
        out.append(
            ExperimentRecord(
                float(row["k"]),
                float(row["delta"]),
                int(row["ndofs"]),
                float(row["rel_h1k_error"]),
                int(row["rank"]),
            )
        )
    return out
