"""End-to-end experiment drivers: error tables, scaling studies, file output.

One cell of a table is: build the symbol-selected index set at (k, delta),
assemble and solve the least-squares system, compare against the exact
solution (homogeneous) or an order-4 FEM reference (heterogeneous) in the
relative H1_k norm on ``ERROR_WINDOW``, the physical region [-1, 1].  The
symbol, the design operator and the FEM all read P_k from
``ProblemCase.operator()``, and both references are callables
x -> (u, u'), the form ``analysis.h1k_error`` takes.  A cell
is fixed by its case, k, delta and the solver cutoff: the quadrature density
follows from the index set, ``assembly_solver.assemble`` places the rule's
window, and the FEM reference is truncated at ``reference_fem.DEFAULT_X_END``.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import analysis, assembly_solver, quadrature as quad, reference_fem
from .phase_space import IndexSet, LatticeSpec, build_symbol_set, search_bounds_from_symbol
from .problem_model import ProblemCase

__all__ = [
    "ExperimentConfig",
    "ExperimentRecord",
    "EmptyIndexSetError",
    "run_case",
    "run_cell",
    "select_index_set",
    "scaling_study",
    "emit",
    "DEFAULT_SCALING_DELTAS",
    "ERROR_WINDOW",
    "FORMATS",
]

MIN_WAVENUMBER = 20.0
ERROR_WINDOW = (-1.0, 1.0)
FORMATS = ("csv", "json")

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
    output_path: str = None
    output_format: str = "csv"

    def __post_init__(self):
        if any(k < MIN_WAVENUMBER for k in self.ks):
            raise ValueError(f"wavenumbers below {MIN_WAVENUMBER} are out of scope")
        if any(d <= 0.0 for d in self.deltas):
            raise ValueError("deltas must be positive")
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown format {self.output_format!r}")

    @staticmethod
    def from_dict(data):
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(data)
        for key in ("ks", "deltas"):
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

    def __init__(self):
        self._store = {}

    def reference(self, case):
        """The reference solution as a callable x -> (u, u')."""
        if case.solution is not None:
            return case.exact_solution
        key = (case.name, case.k)
        if key not in self._store:
            self._store[key] = reference_fem.fem_solve(case)
        return self._store[key]


def select_index_set(case, delta):
    """The lattice pairs with |p(x_m, xi_n)| < delta at hbar = 1/k."""
    spec = LatticeSpec(1.0 / case.k)
    op = case.operator()
    bounds = search_bounds_from_symbol(op, delta, spec)
    return build_symbol_set(spec, op, delta, bounds=bounds)


def run_cell(case, delta, config, cache=None, index_set=None):
    """Run a single (case, delta) cell and return (record, report, index_set).

    ``index_set``, when given, is ``select_index_set(case, delta)`` already
    built by the caller.
    """
    cache = cache or _ReferenceCache()
    if index_set is None:
        index_set = select_index_set(case, delta)
    if len(index_set) == 0:
        raise EmptyIndexSetError(f"empty index set at k={case.k}, delta={delta}")
    # in units of k, products of two states oscillate at up to 2 * xi_max and
    # a state times the k-periodic source at up to 1 + xi_max
    xi_max = float(np.max(np.abs(index_set.xi_array())))
    density = quad.nodes_per_wavelength(2.0 * max(1.0, xi_max))
    system = assembly_solver.assemble(index_set, case, density)
    report = assembly_solver.solve(system, config.cutoff)

    err = analysis.h1k_error(
        lambda x: assembly_solver.reconstruct(report, index_set, x),
        cache.reference(case),
        ERROR_WINDOW,
        case.k,
        nodes_per_wavelength=density,
    )
    record = ExperimentRecord(case.k, float(delta), len(index_set), err.relative, report.numerical_rank)
    return record, report, index_set


def run_case(config):
    """Run the full (k, delta) grid of a config; deterministic given config."""
    records = []
    cache = _ReferenceCache()
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
    """Smallest delta reaching the target accuracy per k, plus log-log slopes.

    The sets {|p| < delta} are nested: a pair enters at its entry delta
    |p(x_m, xi_n)|.  Each k selects once, at the largest grid delta, and a
    grid delta's set is the pairs of that set with entry below it, in order.
    An empty set, or the last solved set again (same size), is not solved.
    """
    if config.target_accuracy is None or config.target_accuracy <= 0.0:
        raise ValueError("scaling_study needs a positive target_accuracy")
    if len(config.ks) < 4:
        raise ValueError("scaling_study needs at least 4 wavenumbers")
    deltas = tuple(sorted(config.deltas)) if config.deltas else DEFAULT_SCALING_DELTAS
    cache = _ReferenceCache()

    hits, dropped = [], []
    for k in config.ks:
        case = ProblemCase.from_name(config.case, k)
        widest = select_index_set(case, deltas[-1])
        entry = np.abs(case.symbol(widest.x_array(), widest.xi_array()))
        size = 0
        for delta in deltas:
            keep = entry < delta
            if np.count_nonzero(keep) == size:
                continue
            index_set = IndexSet(widest.m[keep], widest.n[keep], widest.lattice)
            size = len(index_set)
            record, _, _ = run_cell(case, delta, config, cache, index_set)
            if record.rel_h1k_error <= config.target_accuracy:
                hits.append((k, delta, record.ndofs, record.rel_h1k_error))
                break
        else:
            dropped.append(k)
    if len(hits) < 4:
        raise RuntimeError(f"target {config.target_accuracy} reached for only {len(hits)} wavenumbers")
    hit_k, hit_delta, hit_n, hit_err = zip(*hits)
    log_k = np.log(np.array(hit_k))
    n_slope = float(np.polyfit(log_k, np.log(np.array(hit_n, dtype=float)), 1)[0])
    d_slope = float(np.polyfit(log_k, np.log(np.array(hit_delta)), 1)[0])
    return ScalingStudy(hit_k, hit_delta, hit_n, hit_err, tuple(dropped), n_slope, d_slope)


CSV_HEADER = "k,delta,ndofs,rel_h1k_error,rank"


def _format_row(r):
    return f"{r.k:g},{r.delta:g},{r.ndofs},{r.rel_h1k_error:.4e},{r.rank}"


def emit(records, fmt="csv"):
    """Serialize records; bytes are deterministic given the records."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        return CSV_HEADER + "\n" + "\n".join(_format_row(r) for r in records) + "\n"
    if fmt == "json":
        rows = [{**asdict(r), "rel_h1k_error": float(f"{r.rel_h1k_error:.4e}")} for r in records]
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
