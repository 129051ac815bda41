"""Acceptance gate: every criterion at its stated tolerance.

Each check prints one machine-greppable PASS/FAIL line (run with ``-s`` to
see them as they happen).

The paper-table checks (criteria 1 and 2) hold each cell to the published
numbers: ``ndofs`` within 10% of the published count and the relative H1_k
error within x10 of the published error.  Each line also prints
``e_best``, the best H1_k approximation of the reference by the selected
states on the quadrature rule of the cell's own error, and err/e_best; the
solve cannot beat that floor, so ``e_best <= err`` is checked as well.
That ``ndofs`` counts the documented rule |p(x_m, xi_n)| < delta is held by
``test_symbol_set_counts_frozen`` in the unit tests.

Three table cells are expected to fail, and the printed evidence says why
without settling which side is wrong; that waits for the paper's numerical
section (lattice, selection rule, cutoff phi, PML):

- homogeneous (20, 2.0) and (50, 1.0): the rule selects 131 and 198 states
  against the published 177 and 229 (229 is odd, which the rule's
  (m, n) -> (+-m, +-n) symmetry forbids at delta = 1, where (0, 0) is
  excluded), and the floors, 2.2e-3 and 5.9e-4, lie above the published
  errors' x10 band, so no solver on this trial space passes;
- heterogeneous (20, 12.0): 455 states against 569, and the least-squares
  error is about 48x its floor of 2.3e-4, with most of the residual where
  mu and the source pass through their C3 bridge; the cause is open.

Criterion 3 reads the abstract's "number of degrees of freedom scaling as
k^{d-1/2}" as a bound: the smallest delta reaching a fixed target shrinks
at least as fast as k^(-1/2), so ndofs grows at most as k^(1/2) (polynomial
spaces need at least k).  Only that side is checked, with a 0.15 margin.
The measured pass rests on ndofs falling with k (769 -> 368 over
k = 50..400, delta slope -1.5); the data show no k^(1/2) regime, so the
pass is not evidence of the rate itself.  The one-sided reading holds until
the paper's theorem statement is in the repository.
"""

import math

import numpy as np
import pytest

from gcshelm import analysis, assembly_solver, gaussian_states as gs, quadrature as quad, reference_fem
from gcshelm.experiments import ExperimentConfig, ScalingStudy, _ReferenceCache, run_cell, scaling_study
from gcshelm.phase_space import LatticeSpec
from gcshelm.problem_model import ProblemCase

CONFIG = ExperimentConfig()


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fem_cache():
    return _ReferenceCache(CONFIG.fem_x_end)


# -- paper-table cells ---------------------------------------------------------


def best_h1k_error(case, index_set, u_ref):
    """Relative H1_k distance from ``u_ref`` to the span of the selected states.

    The norm is the one ``analysis.h1k_error`` measures, ||v||**2 +
    k**-2 ||v'||**2 on the error window, discretized on the rule it builds
    for a cell: ``quad.build_rule`` at the node density ``build_rule``
    documents for states up to |xi| = xi_max (20 nodes per period of the
    fastest oscillation).  A least-squares projection on that rule bounds
    the cell's error from below.  It uses lstsq's own rank cutoff rather
    than the solver's, so the floor belongs to the trial space alone.
    Columns below 1e-16 of the largest (states centered far outside the
    window) lie under that cutoff and are dropped.  Returns the error and
    that cutoff, numpy's default rcond = eps * max(rows, columns), since the
    floor moves by 10-20% with the cutoff on these redundant sets.
    """
    k = case.k
    xi_max = float(np.max(np.abs(index_set.xi_array())))
    density = math.ceil(40 * max(1.0, xi_max))
    rule = quad.build_rule(CONFIG.error_window, k, density)
    states = assembly_solver.states_from_index_set(index_set)
    root_w = np.sqrt(rule.weights)
    basis = np.concatenate(
        [
            np.stack([root_w * gs.eval_derivative(s, 0, rule.nodes) for s in states], axis=1),
            np.stack([root_w * gs.eval_derivative(s, 1, rule.nodes) / k for s in states], axis=1),
        ]
    )
    norms = np.linalg.norm(basis, axis=0)
    basis = basis[:, norms > 1e-16 * norms.max()]
    value, derivative = u_ref
    target = np.concatenate([root_w * value(rule.nodes), root_w * derivative(rule.nodes) / k])
    rcond = np.finfo(float).eps * max(basis.shape)
    coeff = np.linalg.lstsq(basis, target, rcond=rcond)[0]
    return float(np.linalg.norm(basis @ coeff - target) / np.linalg.norm(target)), rcond


def check_table_cell(name, case, delta, ndofs_ref, err_ref, cache):
    record, _, index_set = run_cell(case, delta, CONFIG, cache)
    e_best, rcond = best_h1k_error(case, index_set, cache.reference(case))
    err = record.rel_h1k_error
    dofs_ok = abs(record.ndofs - ndofs_ref) <= 0.10 * ndofs_ref
    err_ok = err_ref / 10.0 <= err <= 10.0 * err_ref
    floor_ok = e_best <= err
    report(
        f"{name} [k={case.k:g}, delta={delta:g}]",
        dofs_ok and err_ok and floor_ok,
        f"ndofs={record.ndofs} (ref {ndofs_ref} +-10%), "
        f"rel_h1k={err:.4e} (ref {err_ref:.4e} within x10); "
        f"e_best={e_best:.4e} (<= rel_h1k; lstsq rcond={rcond:.2e}), err/e_best={err / e_best:.2f}",
    )


# -- criterion 1: homogeneous table ----------------------------------------

TABLE2 = [
    (20.0, 2.0, 177, 2.2356e-05),
    (50.0, 1.0, 229, 1.7831e-05),
    (100.0, 0.8, 278, 3.9496e-05),
    (200.0, 0.6, 334, 1.8555e-05),
]


@pytest.mark.parametrize("k,delta,ndofs_ref,err_ref", TABLE2)
def test_criterion_1_homogeneous_table(k, delta, ndofs_ref, err_ref, fem_cache):
    check_table_cell("criterion 1", ProblemCase.homogeneous(k), delta, ndofs_ref, err_ref, fem_cache)


# -- criterion 2: heterogeneous table ---------------------------------------

TABLE3 = [
    (20.0, 12.0, 569, 1.3463e-04),
    (50.0, 6.0, 695, 1.0504e-03),
    (100.0, 4.0, 995, 1.7647e-04),
]


@pytest.mark.parametrize("k,delta,ndofs_ref,err_ref", TABLE3)
def test_criterion_2_heterogeneous_table(k, delta, ndofs_ref, err_ref, fem_cache):
    check_table_cell("criterion 2", ProblemCase.heterogeneous(k), delta, ndofs_ref, err_ref, fem_cache)


# -- criterion 3: scaling laws ----------------------------------------------

SLOPE_MARGIN = 0.15


def dof_law_holds(study):
    """ndofs grows at most as k^(1/2) and delta shrinks at least as k^(-1/2).

    One-sided: a study whose ndofs falls with k passes, as the measured one
    does, so a pass does not show the k^(1/2) rate itself.
    """
    return study.ndofs_slope <= 0.5 + SLOPE_MARGIN and study.delta_slope <= -0.5 + SLOPE_MARGIN


def test_criterion_3_scaling_laws():
    config = ExperimentConfig(
        case="homogeneous",
        ks=(20.0, 50.0, 100.0, 200.0, 400.0),
        deltas=(),
        target_accuracy=4e-05,
    )
    study = scaling_study(config)
    report(
        "criterion 3",
        dof_law_holds(study),
        f"ndofs slope={study.ndofs_slope:.3f} (want <= {0.5 + SLOPE_MARGIN:.2f}), "
        f"delta slope={study.delta_slope:.3f} (want <= {-0.5 + SLOPE_MARGIN:.2f}); "
        f"hits: ks={study.ks} deltas={study.deltas} ndofs={study.ndofs} "
        f"errors=({', '.join(f'{e:.3e}' for e in study.errors)}) "
        f"dropped={study.dropped_ks}",
    )


def _synthetic_study(ks, ndofs, deltas):
    log_k = np.log(ks)
    return ScalingStudy(
        tuple(ks), tuple(deltas), tuple(ndofs), (4e-05,) * len(ks), (),
        float(np.polyfit(log_k, np.log(ndofs), 1)[0]),
        float(np.polyfit(log_k, np.log(deltas), 1)[0]),
    )


def test_criterion_3_verdict_rejects_polynomial_rate():
    ks = np.array([50.0, 100.0, 200.0, 400.0])
    polynomial = _synthetic_study(ks, 8.0 * ks, np.full(ks.size, 2.0))
    semiclassical = _synthetic_study(ks, 30.0 * np.sqrt(ks), 20.0 / np.sqrt(ks))
    assert not dof_law_holds(polynomial)
    assert dof_law_holds(semiclassical)


# -- criterion 4: residual scaling ------------------------------------------


def test_criterion_4_residual_scaling():
    op = gs.constant_operator(-1.0, 0.0, -1.0)  # homogeneous physical region
    hbars = [2.0**-p for p in range(4, 11)]
    slopes = {}
    for L in (1, 2):
        norms = [
            gs.iterated_residual_norm(gs.CoherentState(h, 0.0, 1.0), op, L)
            for h in hbars
        ]
        slopes[L] = float(np.polyfit(np.log(hbars), np.log(norms), 1)[0])
    ok = abs(slopes[1] - 0.5) <= 0.1 and abs(slopes[2] - 1.0) <= 0.15
    report(
        "criterion 4",
        ok,
        f"L=1 slope={slopes[1]:.3f} (0.5 +- 0.1), L=2 slope={slopes[2]:.3f} (1.0 +- 0.15)",
    )


# -- criterion 5: overlap oracle equivalence ---------------------------------


def test_criterion_5_overlap_oracle():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for hbar in (1.0 / 20.0, 1.0 / 400.0):
        k = 1.0 / hbar
        for _ in range(100):
            x1, x2 = rng.uniform(-1.0, 1.0, size=2)
            xi1, xi2 = rng.uniform(-2.0, 2.0, size=2)
            s1 = gs.CoherentState(hbar, x1, xi1)
            s2 = gs.CoherentState(hbar, x2, xi2)
            density = max(40, math.ceil(30 * (1 + abs(xi1 - xi2))))
            rule = quad.build_rule(quad.support_window([s1, s2]), k, density)
            qv = quad.inner_product(
                lambda x: gs.eval_state(s1, x), lambda x: gs.eval_state(s2, x), rule
            )
            worst = max(worst, abs(qv - gs.overlap(s1, s2)))
    report("criterion 5", worst <= 1e-12, f"max |closed - quadrature| = {worst:.3e} over 200 pairs")


# -- criterion 6: quasi-orthogonality decay ----------------------------------


def test_criterion_6_quasi_orthogonality():
    spec = LatticeSpec(1.0 / 100.0)
    op = gs.constant_operator(-1.0, 0.0, -1.0)
    probe = analysis.quasi_orthogonality_probe(spec, op, distances=(2, 4, 8, 16))
    ratios = [probe[2] / probe[4], probe[4] / probe[8], probe[8] / probe[16]]
    ok = all(r >= 6.0 for r in ratios)
    report(
        "criterion 6",
        ok,
        "max|(P Psi, Psi')| = "
        + ", ".join(f"D={d}: {probe[d]:.3e}" for d in (2, 4, 8, 16))
        + f"; per-doubling ratios {[f'{r:.2e}' for r in ratios]} all >= 6",
    )


# -- criterion 7: frame stability and dual decay ------------------------------


def quadrature_gram_error(hbar, half_width=6, x_stretch=1.0):
    """Largest |G_quad - lattice_gram| entry on a lattice box at ``hbar``.

    G_quad[i, j] = sum_q w_q Psi_i(x_q) conj(Psi_j(x_q)), the convention of
    ``analysis.lattice_gram``, samples the states at (x_stretch * m, n) times
    the lattice spacing sqrt(pi*hbar) through ``gs.state_blocks``, on a rule
    holding every state's 12-sigma window at 40*max(1, max|xi|) nodes per
    wavelength of k = 1/hbar.  The lattice Gram is hbar-free; this one is not.
    """
    spec = LatticeSpec(hbar)
    pairs = [(m, n) for m in range(-half_width, half_width + 1) for n in range(-half_width, half_width + 1)]
    m, n = np.array(pairs).T
    x0, xi0 = x_stretch * m * spec.spacing, n * spec.spacing
    reach = x0.max() + gs.WINDOW_SIGMAS * math.sqrt(hbar)
    rule = quad.build_rule((-reach, reach), 1.0 / hbar, math.ceil(40 * max(1.0, xi0.max())))
    basis = np.zeros((rule.nodes.size, len(pairs)), dtype=complex)
    for rows, cols, block in gs.state_blocks(hbar, x0, xi0, rule.nodes):
        basis[rows, cols] = block
    gram = (rule.weights[:, None] * basis).T @ basis.conj()
    return float(np.abs(gram - analysis.lattice_gram(pairs)).max())


def test_criterion_7_frame_stability():
    # The box estimate is hbar-free (it reads only the lattice Gram), so it
    # is computed once; hbar enters through the quadrature Gram check.
    diag = analysis.frame_bounds(LatticeSpec(1.0 / 20.0))
    gram_errors = {h: quadrature_gram_error(1.0 / h) for h in (20, 100)}
    gram_ok = all(e <= 1e-12 for e in gram_errors.values())
    pairs, coeffs, _ = analysis.dual_frame_coefficients(LatticeSpec(1.0 / 20.0), (0, 0))
    rate, r_squared, _ = analysis.dual_decay_fit(pairs, coeffs, (0, 0))
    decay_ok = rate > 0.0 and r_squared >= 0.9
    report(
        "criterion 7",
        gram_ok and decay_ok,
        f"alpha={diag.alpha_est:.5f}, beta={diag.beta_est:.5f} (box 25); "
        "quadrature Gram of the half-width-6 box vs lattice_gram: "
        + ", ".join(f"{e:.1e} (hbar=1/{h})" for h, e in gram_errors.items())
        + f" <= 1e-12; dual decay rate={rate:.3f} > 0, R^2={r_squared:.3f} >= 0.9",
    )


def test_criterion_7_gram_check_rejects_stretched_lattice():
    # positions 1% off the lattice break the hbar check by far more than 1e-12
    assert quadrature_gram_error(1.0 / 20.0, x_stretch=1.01) > 1e-2


# -- criterion 8: FEM self-validation -----------------------------------------


def test_criterion_8_fem_self_validation():
    case = ProblemCase.homogeneous(20)
    sol = reference_fem.fem_solve(case, CONFIG.fem_x_end)
    exact = (lambda x: case.exact_solution(x, 0), lambda x: case.exact_solution(x, 1))
    err = analysis.h1k_error(
        (lambda x: sol(x, 0), lambda x: sol(x, 1)), exact, (-1, 1), 20, 60
    ).relative
    errs, hs = [], []
    for elements in (112, 224, 448, 896):
        h = 7.0 / elements  # breakpoint-aligned meshes recover the full order
        s = reference_fem.fem_solve(case, 3.5, h=h)
        errs.append(
            analysis.h1k_error(
                (lambda x: s(x, 0), lambda x: s(x, 1)), exact, (-1, 1), 20, 60
            ).relative
        )
        hs.append(h)
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = err <= 1e-6 and abs(slope - 4.0) <= 0.3
    report(
        "criterion 8",
        ok,
        f"rel_h1k={err:.3e} <= 1e-6 at h=0.02*k^(-9/8); observed order {slope:.3f} (4 +- 0.3)",
    )


# -- criterion 9: plane-wave micro-localization --------------------------------


def test_criterion_9_planewave_microlocalization():
    ratios = []
    for k in (50.0, 100.0, 200.0):
        ratio, _, _ = analysis.planewave_coefficient_probe(ProblemCase.homogeneous(k))
        ratios.append(ratio)
    ok = ratios[0] > ratios[1] > ratios[2]
    report(
        "criterion 9",
        ok,
        "outside/inside coefficient ratios over k=(50, 100, 200): "
        + ", ".join(f"{r:.3e}" for r in ratios)
        + " (monotone decreasing)",
    )
