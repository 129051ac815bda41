"""In-process layer timing for gcshelm, installed from outside the package.

Each traced function is replaced, for the lifetime of a ``Tracer`` context,
by a wrapper at the module attribute its callers look up at call time (for
example ``experiments.build_symbol_set`` or ``assembly_solver.solve``).  The
benchmark then calls the ordinary top-level entry points, so the trace
follows whatever ``run_cell`` and ``scaling_study`` do without repeating
their logic.

A layer's self time is the time inside its spans minus the time inside the
spans they caused; the self times of all layers add up to the time spent
inside top-level spans.
"""

import time
from collections import defaultdict

from gcshelm import analysis, assembly_solver, experiments, reference_fem
from gcshelm import gaussian_states, quadrature

# (name, unit) of every per-layer metric, in report order; times are self
# times and every value is a total per pass, except nodes_per_panel (maximum).
LAYER_METRICS = (
    ("phase_space.select_s", "s"),
    ("phase_space.columns", "count"),
    ("quadrature.rule_s", "s"),
    ("quadrature.rows", "count"),
    ("quadrature.nodes_per_panel", "count"),
    ("assembly_solver.assemble_s", "s"),
    ("assembly_solver.matrix_mb", "MB"),
    ("gaussian_states.state_calls", "count"),
    ("assembly_solver.solve_s", "s"),
    ("assembly_solver.rank", "count"),
    ("assembly_solver.residual", "norm"),
    ("assembly_solver.reconstruct_s", "s"),
    ("analysis.h1k_error_s", "s"),
    ("reference_fem.fem_s", "s"),
    ("reference_fem.dofs", "count"),
    ("analysis.frame_bounds_s", "s"),
    ("analysis.dual_frame_s", "s"),
    ("analysis.quasi_orth_s", "s"),
    ("analysis.planewave_probe_s", "s"),
    ("experiments.cells", "count"),
    ("experiments.cells_empty", "count"),
    ("experiments.self_s", "s"),
)


def matrix_mb(q, n):
    """Computed size of a dense complex128 Q x N design matrix, in MB."""
    return q * n * 16 / 1e6


def _count_columns(counts, index_set):
    counts["phase_space.columns"] += len(index_set)
    counts["experiments.cells_empty"] += len(index_set) == 0


def _count_solve(counts, report):
    counts["assembly_solver.rank"] += report.numerical_rank
    counts["assembly_solver.residual"] += report.residual_norm


def _count_cell(counts, _result):
    counts["experiments.cells"] += 1


def _count_fem(counts, solution):
    counts["reference_fem.dofs"] += solution.mesh.dofs


# (module, attribute, layer, counter applied to the return value)
_SPANS = (
    (experiments, "scaling_study", "experiments.self", None),
    (experiments, "run_cell", "experiments.self", _count_cell),
    (experiments, "search_bounds_from_symbol", "phase_space.select", None),
    (experiments, "build_symbol_set", "phase_space.select", _count_columns),
    (quadrature, "build_rule", "quadrature.rule", None),
    (assembly_solver, "assemble", "assembly_solver.assemble", None),
    (assembly_solver, "solve", "assembly_solver.solve", _count_solve),
    (assembly_solver, "reconstruct", "assembly_solver.reconstruct", None),
    (analysis, "h1k_error", "analysis.h1k_error", None),
    (reference_fem, "fem_solve", "reference_fem.fem", _count_fem),
    (analysis, "frame_bounds", "analysis.frame_bounds", None),
    (analysis, "dual_frame_coefficients", "analysis.dual_frame", None),
    (analysis, "dual_decay_fit", "analysis.dual_frame", None),
    (analysis, "quasi_orthogonality_probe", "analysis.quasi_orth", None),
    (analysis, "planewave_coefficient_probe", "analysis.planewave_probe", None),
)

# per-state evaluations; nested calls (eval_derivative -> eval_state) count once
_STATE_CALLS = ("apply_operator", "eval_state", "eval_derivative")


class _Patches:
    """Module attributes replaced for the lifetime of a ``with`` block."""

    def __init__(self):
        self._saved = []

    def patch(self, module, name, wrapper):
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, wrapper(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


class SystemLog(_Patches):
    """Records (Q, N, nodes_per_panel) of every assembled design system.

    It adds one Python call per assembled cell and times nothing, so the
    untraced runs use it too: every number they print carries its sizes.
    """

    def __init__(self):
        super().__init__()
        self.systems = []

    def __enter__(self):
        def wrapper(assemble):
            def logged(*args, **kwargs):
                system = assemble(*args, **kwargs)
                self.systems.append((*system.matrix.shape, system.rule.nodes_per_panel))
                return system

            return logged

        self.patch(assembly_solver, "assemble", wrapper)
        return self


class Tracer(_Patches):
    """Self time per layer, counts at the same boundaries, kept in memory.

    The sizes of assembled systems come from a ``SystemLog`` entered first.
    """

    def __init__(self):
        super().__init__()
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.top_s = 0.0  # time inside top-level spans
        self._child_s = []  # per open span: time covered by its child spans
        self._in_state = False

    def _span(self, layer, count):
        def wrapper(fn):
            def traced(*args, **kwargs):
                self._child_s.append(0.0)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self.self_s[layer] += dt - self._child_s.pop()
                    if self._child_s:
                        self._child_s[-1] += dt
                    else:
                        self.top_s += dt
                if count is not None:
                    count(self.counts, out)
                return out

            return traced

        return wrapper

    def _state_counter(self, fn):
        def counted(*args, **kwargs):
            if self._in_state:
                return fn(*args, **kwargs)
            self.counts["gaussian_states.state_calls"] += 1
            self._in_state = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_state = False

        return counted

    def __enter__(self):
        for module, name, layer, count in _SPANS:
            self.patch(module, name, self._span(layer, count))
        for name in _STATE_CALLS:
            self.patch(gaussian_states, name, self._state_counter)
        return self

    def layer_metrics(self, passes, systems):
        """Per-pass values of LAYER_METRICS; ``systems`` is ``SystemLog.systems``."""
        counts = dict(self.counts)
        counts["quadrature.rows"] = sum(q for q, _, _ in systems)
        counts["assembly_solver.matrix_mb"] = sum(matrix_mb(q, n) for q, n, _ in systems)
        counts["quadrature.nodes_per_panel"] = max((npp for _, _, npp in systems), default=0)
        values = {}
        for name, _unit in LAYER_METRICS:
            total = self.self_s[name[:-2]] if name.endswith("_s") else counts.get(name, 0.0)
            values[name] = total if name == "quadrature.nodes_per_panel" else total / passes
        return values
