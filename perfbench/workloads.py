"""The benchmark's four workloads: inputs, operations of one pass, and checks.

An operation is one table cell, one scaling study or one diagnostic call.
Each check compares an operation's output with this code's own seed outputs
(recorded with 2 OpenBLAS threads), never with the paper's tables: the
acceptance suite owns those.  A failed check or a raised exception makes the
operation count as failed.
"""

import math
from dataclasses import dataclass

from gcshelm import analysis, experiments
from gcshelm.gaussian_states import constant_operator
from gcshelm.phase_space import LatticeSpec
from gcshelm.problem_model import ProblemCase

from tracer import matrix_mb

# relative tolerance on floating-point outputs compared with the seed
REL_TOL = 1e-3

# (case, k, delta) -> (ndofs, rank, rel_h1k_error, residual_norm)
SEED_CELLS = {
    ("homogeneous", 100.0, 0.8): (262, 262, 2.2577073053836862e-04, 4.4111327620821166e-04),
    ("homogeneous", 200.0, 0.6): (354, 354, 2.9699791704793806e-05, 4.4282845528841414e-05),
    ("homogeneous", 400.0, 0.336): (364, 364, 1.4893068160329878e-05, 1.3101311775057994e-05),
    ("heterogeneous", 50.0, 6.0): (657, 474, 1.6176476534816768e-03, 1.5355669893715894e-03),
    ("heterogeneous", 100.0, 4.0): (985, 669, 5.5105126052166230e-04, 4.7068940486639430e-04),
}

SCALING_KS = (20.0, 50.0, 100.0, 200.0, 400.0)
SCALING_TARGET = 4e-4
SEED_SCALING = {
    "ks": (50.0, 100.0, 200.0, 400.0),
    "deltas": (2.262742, 0.8, 0.282843, 0.237841),
    "ndofs": (355, 262, 186, 266),
    "errors": (
        2.423784118572838e-04,
        2.2577073053836862e-04,
        3.2008958810228396e-04,
        6.444557036825284e-05,
    ),
    "dropped_ks": (20.0,),
}

DIAGNOSE_HBAR = 1.0 / 20.0
# `gcshelm diagnose --box 20`: the default box 25 takes 25-36 s a pass here,
# too long for the runs a benchmark check makes; frame_bounds still
# dominates and the estimate stays within 0.3% of the Zak bounds.
DIAGNOSE_BOX = 20
DUAL_BOX = 12  # min(12, box), as in `gcshelm diagnose`
PLANEWAVE_KS = (50.0, 100.0, 200.0)
# Closed-form Zak-transform bounds of the density-2 Gaussian lattice frame
ZAK_ALPHA, ZAK_BETA = 1.6693, 2.3607
FRAME_TOL = 0.01
MIN_DECAY_R2 = 0.9
SEED_DUAL_RATE = 6.385913472902854
SEED_QUASI_ORTH = {
    2: 4.892159671469278e-02,
    4: 5.591320622667513e-06,
    8: 5.159278177691189e-22,
    16: 5.2773258601481084e-87,
}
SEED_PLANEWAVE = {50.0: 0.053351660673220044, 100.0: 0.024015992456851456, 200.0: 0.0011005596746108334}


@dataclass(frozen=True)
class Outcome:
    """Checked result of one operation."""

    name: str
    failure: str  # None when the check passed
    errors: tuple  # relative errors that enter rel_error_gmean
    detail: str  # sizes and values, printed with the result


def _off(value, seed):
    return abs(value - seed) > REL_TOL * abs(seed)


def _outcome(name, problems, errors, detail):
    return Outcome(name, "; ".join(problems) or None, tuple(errors), detail)


class TableWorkload:
    """Independent table cells through ``experiments.run_cell``, one FEM each."""

    shuffled = True

    def __init__(self, case_name, cells, config):
        self.config = config
        self.cells = [(ProblemCase.from_name(case_name, k), delta) for k, delta in cells]
        self._warm_case = ProblemCase.from_name(case_name, 20.0)

    def warm_up(self):
        experiments.run_cell(self._warm_case, 2.0, self.config)

    def operations(self):
        return [
            (
                f"{case.name} k={case.k:g} delta={delta:g}",
                lambda case=case, delta=delta: experiments.run_cell(case, delta, self.config),
                lambda name, out, systems, key=(case.name, case.k, delta): _check_cell(
                    name, out, systems, SEED_CELLS[key]
                ),
            )
            for case, delta in self.cells
        ]


def _check_cell(name, out, systems, seed):
    record, report = out[0], out[1]
    ndofs, rank, err, res = seed
    q, n, npp = systems[-1]
    detail = (
        f"N={record.ndofs} Q={q} rank={record.rank} nodes_per_panel={npp} "
        f"residual={report.residual_norm:.6e} matrix_mb_computed={matrix_mb(q, n):.1f} "
        f"rel_h1k_error={record.rel_h1k_error:.6e}"
    )
    problems = []
    if record.ndofs != ndofs:
        problems.append(f"ndofs {record.ndofs} != {ndofs}")
    if record.rank != rank:
        problems.append(f"rank {record.rank} != {rank}")
    if _off(record.rel_h1k_error, err):
        problems.append(f"rel_h1k_error {record.rel_h1k_error:.6e} != {err:.6e}")
    if _off(report.residual_norm, res):
        problems.append(f"residual {report.residual_norm:.6e} != {res:.6e}")
    return _outcome(name, problems, (record.rel_h1k_error,), detail)


class ScalingWorkload:
    """One target-accuracy ``experiments.scaling_study`` over the quarter-octave grid."""

    shuffled = False

    def __init__(self):
        self.config = experiments.ExperimentConfig(
            case="homogeneous",
            ks=SCALING_KS,
            deltas=experiments.DEFAULT_SCALING_DELTAS,
            target_accuracy=SCALING_TARGET,
        )

    def warm_up(self):
        experiments.run_cell(ProblemCase.homogeneous(20.0), 2.0, self.config)

    def operations(self):
        return [
            (
                "scaling_study homogeneous",
                lambda: experiments.scaling_study(self.config),
                _check_study,
            )
        ]


def _check_study(name, study, systems):
    problems = [
        f"{key} {getattr(study, key)} != {SEED_SCALING[key]}"
        for key in ("ks", "deltas", "ndofs", "dropped_ks")
        if tuple(getattr(study, key)) != SEED_SCALING[key]
    ]
    if not problems and any(_off(e, s) for e, s in zip(study.errors, SEED_SCALING["errors"])):
        problems.append(f"errors {study.errors} != {SEED_SCALING['errors']}")
    qs = [q for q, _, _ in systems]
    ns = [n for _, n, _ in systems]
    hits = " ".join(
        f"(k={k:g} delta={d:g} N={n} rel_h1k_error={e:.6e})"
        for k, d, n, e in zip(study.ks, study.deltas, study.ndofs, study.errors)
    )
    detail = (
        f"hits {hits} dropped_ks={list(study.dropped_ks)}; {len(systems)} systems assembled, "
        f"Q={min(qs)}..{max(qs)} N={min(ns)}..{max(ns)} "
        f"max_nodes_per_panel={max(npp for _, _, npp in systems)} "
        f"matrix_mb_computed_total={sum(matrix_mb(q, n) for q, n, _ in systems):.1f}"
    )
    return _outcome(name, problems, study.errors, detail)


class DiagnoseWorkload:
    """The ``gcshelm diagnose`` calls at one hbar, plus plane-wave probes."""

    shuffled = False

    def __init__(self):
        self.spec = LatticeSpec(DIAGNOSE_HBAR)
        self.op = constant_operator(-1.0, 0.0, -1.0)
        self.planewave_cases = [ProblemCase.homogeneous(k) for k in PLANEWAVE_KS]

    def warm_up(self):
        analysis.frame_bounds(self.spec, box_half_width=8, interior_margin=3)
        self._dual(box=4)
        analysis.quasi_orthogonality_probe(self.spec, self.op)
        analysis.planewave_coefficient_probe(ProblemCase.homogeneous(20.0))

    def _dual(self, box=DUAL_BOX):
        pairs, coeffs, residual = analysis.dual_frame_coefficients(
            self.spec, (0, 0), box_half_width=box
        )
        rate, r_squared, _ = analysis.dual_decay_fit(pairs, coeffs, (0, 0))
        return rate, r_squared, residual

    def operations(self):
        ops = [
            (
                f"frame_bounds box={DIAGNOSE_BOX}",
                lambda: analysis.frame_bounds(self.spec, box_half_width=DIAGNOSE_BOX),
                _check_frame,
            ),
            (f"dual_frame box={DUAL_BOX}", self._dual, _check_dual),
            (
                "quasi_orthogonality",
                lambda: analysis.quasi_orthogonality_probe(self.spec, self.op),
                _check_quasi_orth,
            ),
        ]
        previous = math.inf  # ratio of the previous, smaller k in this pass

        def check_planewave(name, out, _systems, k):
            nonlocal previous
            ratio = out[0]
            problems = []
            if _off(ratio, SEED_PLANEWAVE[k]):
                problems.append(f"ratio {ratio:.6e} != {SEED_PLANEWAVE[k]:.6e}")
            if not ratio < previous:
                problems.append(f"ratio {ratio:.3e} does not decrease with k")
            previous = ratio
            return _outcome(name, problems, (ratio,), f"out_of_band_ratio={ratio:.6e}")

        for case in self.planewave_cases:
            ops.append(
                (
                    f"planewave k={case.k:g}",
                    lambda case=case: analysis.planewave_coefficient_probe(case),
                    lambda name, out, systems, k=case.k: check_planewave(name, out, systems, k),
                )
            )
        return ops


def _check_frame(name, fb, _systems):
    a, b = fb.alpha_est, fb.beta_est
    problems = []
    if not 0.0 < a <= b:
        problems.append(f"bounds out of order: {a} {b}")
    if abs(a / ZAK_ALPHA - 1.0) > FRAME_TOL or abs(b / ZAK_BETA - 1.0) > FRAME_TOL:
        problems.append(f"bounds ({a:.4f}, {b:.4f}) off the Zak bounds by more than {FRAME_TOL:.0%}")
    return _outcome(name, problems, (), f"alpha={a:.6f} beta={b:.6f} zak=({ZAK_ALPHA}, {ZAK_BETA})")


def _check_dual(name, out, _systems):
    rate, r_squared, residual = out
    problems = []
    if r_squared < MIN_DECAY_R2:
        problems.append(f"decay fit r_squared {r_squared:.3f} < {MIN_DECAY_R2}")
    if _off(rate, SEED_DUAL_RATE):
        problems.append(f"decay rate {rate:.6f} != {SEED_DUAL_RATE:.6f}")
    detail = f"decay_rate={rate:.6f} r_squared={r_squared:.6f} residual={residual:.3e}"
    return _outcome(name, problems, (), detail)


def _check_quasi_orth(name, out, _systems):
    problems = []
    if out.keys() != SEED_QUASI_ORTH.keys() or any(_off(out[d], s) for d, s in SEED_QUASI_ORTH.items()):
        problems.append(f"pairings {out} != {SEED_QUASI_ORTH}")
    return _outcome(name, problems, (), " ".join(f"d={d}:{v:.6e}" for d, v in out.items()))


def make(name, config=None):
    """Build a workload's inputs; ``config`` overrides the table cells' config."""
    config = config or experiments.ExperimentConfig()
    if name == "table-hom":
        return TableWorkload("homogeneous", ((100.0, 0.8), (200.0, 0.6), (400.0, 0.336)), config)
    if name == "table-het":
        return TableWorkload("heterogeneous", ((50.0, 6.0), (100.0, 4.0)), config)
    if name == "scaling-hom":
        return ScalingWorkload()
    if name == "diagnose":
        return DiagnoseWorkload()
    raise ValueError(f"unknown workload {name!r}")
