import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gcshelm
from gcshelm import analysis, reference_fem as fem
from gcshelm.problem_model import ProblemCase

from helpers import banded_fem_values, nu_element_matrices

KS = (20.0, 50.0, 100.0, 200.0, 400.0)
# relative H1_k error on [-1, 1] that fem.MESH_RESOLUTION is chosen for
ACCURACY_TARGET = 2e-8
CASES = (ProblemCase.homogeneous, ProblemCase.heterogeneous)


def h1k_vs_exact(solution, case, window=(-1.0, 1.0), density=60):
    return analysis.h1k_error(solution, case.exact_solution, window, case.k, density).relative


def aligned_h(elements):
    # element counts divisible by 28 put the C3 breakpoints of the exact
    # solution on element boundaries, recovering the full order
    assert elements % 28 == 0
    return 7.0 / elements


def resolution(k):
    # elements per MESH_UNIT of the default mesh
    return math.ceil(fem.MESH_RESOLUTION * k ** (9.0 / 8.0))


def off_node_distance(case, mesh):
    """Largest distance from a breakpoint or domain end to the nearest mesh node."""
    nodes = np.linspace(-mesh.x_end, mesh.x_end, mesh.dofs)
    pts = np.array([*case.breakpoints, -mesh.x_end, mesh.x_end])
    nearest = np.rint((pts + mesh.x_end) / (mesh.h / 4)).astype(int)
    return float(np.abs(nodes[np.clip(nearest, 0, mesh.dofs - 1)] - pts).max())


def test_mesh_bookkeeping():
    case = ProblemCase.homogeneous(20)
    default, explicit = fem.fem_solve(case), fem.fem_solve(case, 700)
    assert default.mesh.elements == 140 * resolution(20) == 2100
    assert explicit.mesh.elements == 700 and explicit.mesh.h == 0.01
    for sol in (default, explicit):
        mesh = sol.mesh
        assert mesh.x_end == fem.DEFAULT_X_END == 3.5
        assert mesh.dofs == 4 * mesh.elements + 1 == sol.values.size
        assert sol.nodes[0] == -3.5 and sol.nodes[-1] == 3.5
        assert sol.values[0] == 0.0 and sol.values[-1] == 0.0


@pytest.mark.parametrize("make", CASES, ids=["hom", "het"])
@pytest.mark.parametrize("k", KS)
def test_default_mesh_puts_breakpoints_on_nodes(make, k):
    case = make(k)
    assert off_node_distance(case, fem._mesh_for(case)) <= 1e-12
    # the former law h = 0.02 k^(-9/8), ceil(350 k^(9/8)) elements, cuts
    # through the C3 joints
    old = fem.FemMesh(fem.DEFAULT_X_END, math.ceil(350.0 * k ** (9.0 / 8.0)))
    assert off_node_distance(case, old) > 1e-7


def test_default_mesh_rejects_unaligned_domain():
    # a breakpoint off the MESH_UNIT grid cannot sit on an element edge
    case = ProblemCase.homogeneous(20)
    moved = dataclasses.replace(case, breakpoints=(-1.0, -0.75, -0.52, 0.5, 0.75, 1.0))
    with pytest.raises(ValueError, match="multiples"):
        fem.fem_solve(moved)


@pytest.mark.parametrize(
    "make, k",
    [(ProblemCase.homogeneous, k) for k in (20.0, 100.0, 400.0)]
    + [(ProblemCase.heterogeneous, k) for k in (20.0, 50.0, 100.0)],
    ids=["hom-20", "hom-100", "hom-400", "het-20", "het-50", "het-100"],
)
def test_default_mesh_meets_accuracy_target(make, k):
    # against the exact solution, or a 4x-refined aligned mesh where there is none
    case = make(k)
    sol = fem.fem_solve(case)
    if case.solution is not None:
        err = h1k_vs_exact(sol, case)
    else:
        truth = fem.fem_solve(case, 4 * sol.mesh.elements)
        assert off_node_distance(case, truth.mesh) <= 1e-12
        err = analysis.h1k_error(sol, truth, (-1.0, 1.0), case.k, 60).relative
    assert err <= ACCURACY_TARGET


@pytest.mark.parametrize("make", CASES, ids=["hom", "het"])
def test_element_matrices_read_the_operator_coefficients(make):
    # -a/k**2 and -c of case.operator() give, bit for bit, the matrices
    # of nu**(-1)/k**2 and mu*nu, on a mesh across both PML sides
    case = make(20.0)
    mesh = fem._mesh_for(case)
    assert np.array_equal(fem._element_system(case, mesh)[0], nu_element_matrices(case, mesh))


# relative max-norm distance of the nodal values from LAPACK's banded solve;
# the largest measured is 6.1e-10, at hom k = 400
ORACLE_TOLERANCE = 2e-9


@pytest.mark.parametrize("make", CASES, ids=["hom", "het"])
@pytest.mark.parametrize("k", (20.0, 50.0, 100.0, 400.0))
def test_fem_solve_matches_banded_lapack_oracle(make, k):
    # static condensation, the runs and the pivoted sweep against gbsv on
    # the same system
    case = make(k)
    got, want = fem.fem_solve(case).values, banded_fem_values(case)
    assert got[0] == 0.0 and got[-1] == 0.0
    assert np.max(np.abs(got - want)) <= ORACLE_TOLERANCE * np.max(np.abs(want))


@pytest.mark.parametrize("make", CASES, ids=["hom", "het"])
@pytest.mark.parametrize("k", KS)
def test_default_mesh_runs_stay_below_a_quarter_wavelength(make, k):
    # the runs of the default mesh, whose inner vertices are eliminated unpivoted
    case = make(k)
    mesh = fem._mesh_for(case)
    run = fem._run_length(case, mesh)
    mu_max = 2.0 if case.name == "heterogeneous" else 1.0
    assert mesh.elements % run == 0 and 14 <= run
    assert case.k * run * mesh.h * math.sqrt(mu_max) <= math.pi / 2


@pytest.mark.parametrize("size", (2, 3, 6, 40))
def test_tridiagonal_sweep_pivots_past_a_zero_first_pivot(size):
    # an unpivoted sweep divides by the zero diag[0]
    rng = np.random.default_rng(size)
    lower, diag, upper, rhs = ((1.0, 1j) @ rng.normal(size=(2, n)) for n in (size - 1, size, size - 1, size))
    diag[0] = 0.0
    want = np.linalg.solve(np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1), rhs)
    got = fem._tridiagonal_solve(lower, diag, upper, rhs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_tridiagonal_sweep_raises_on_a_zero_pivot():
    # singular: the second row is the first, so the pivot of the last is 0
    with pytest.raises(RuntimeError, match="zero pivot"):
        fem._tridiagonal_solve([1.0], [1.0, 1.0], [1.0], [1.0, 2.0])


def test_homogeneous_reference_accuracy():
    case = ProblemCase.homogeneous(20)
    sol = fem.fem_solve(case)
    assert h1k_vs_exact(sol, case) <= 1e-6


def test_h_convergence_order_four():
    case = ProblemCase.homogeneous(20)
    errs, hs = [], []
    for elements in (112, 224, 448, 896):
        sol = fem.fem_solve(case, elements)
        errs.append(h1k_vs_exact(sol, case))
        hs.append(aligned_h(elements))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 4.0) < 0.3


def test_self_convergence_against_refined_reference():
    # errors measured against a 2x-refined solution keep the same order
    case = ProblemCase.heterogeneous(20)
    truth = fem.fem_solve(case, 1792)
    errs, hs = [], []
    for elements in (112, 224, 448):
        sol = fem.fem_solve(case, elements)
        err = analysis.h1k_error(sol, truth, (-1.0, 1.0), case.k, 60).relative
        errs.append(err)
        hs.append(aligned_h(elements))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 4.0) < 0.5


def test_pml_decay_at_domain_end():
    case = ProblemCase.homogeneous(20)
    sol = fem.fem_solve(case)
    edge = abs(sol(3.4)[0])
    peak = np.abs(sol.values).max()
    assert edge <= 1e-6 * peak


def test_truncation_insensitivity(monkeypatch):
    case = ProblemCase.heterogeneous(20)
    sol_a = fem.fem_solve(case)
    monkeypatch.setattr(fem, "DEFAULT_X_END", 4.0)
    sol_b = fem.fem_solve(case)
    assert sol_b.mesh.x_end == 4.0
    err = analysis.h1k_error(sol_a, sol_b, (-1.0, 1.0), case.k, 60)
    assert err.relative <= 1e-7


def test_fem_eval_nodal_and_derivative():
    case = ProblemCase.homogeneous(20)
    sol = fem.fem_solve(case, 112)
    idx = np.array([5, 100, 300])
    got = sol(sol.nodes[idx])[0]
    assert np.max(np.abs(got - sol.values[idx])) < 1e-12 * np.abs(sol.values[idx]).max()

    x = np.array([-0.613, 0.211, 1.777])
    h = 1e-6
    fd = (sol(x + h)[0] - sol(x - h)[0]) / (2 * h)
    dv = sol(x)[1]
    assert np.max(np.abs(fd - dv) / np.abs(dv)) < 1e-6


def test_fem_eval_constant_field_derivative():
    case = ProblemCase.homogeneous(20)
    sol = fem.fem_solve(case, 112)
    const = fem.FemSolution(sol.mesh, sol.nodes, np.ones_like(sol.values))
    x = np.linspace(-3.0, 3.0, 17)
    assert np.max(np.abs(const(x)[1])) < 1e-11


def test_fem_eval_out_of_domain():
    case = ProblemCase.homogeneous(20)
    sol = fem.fem_solve(case, 112)
    with pytest.raises(ValueError):
        sol(3.6)
    with pytest.raises(ValueError):
        sol(np.array([0.0, -3.6]))


def test_import_leaves_scipy_unloaded():
    # the package needs numpy alone; scipy is a test dependency, and
    # scipy.linalg adds about 27 MB of resident memory to a process
    src = os.path.dirname(os.path.dirname(os.path.abspath(gcshelm.__file__)))
    code = (
        "import sys, gcshelm\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "from gcshelm.experiments import ExperimentConfig, run_cell\n"
        "record = run_cell(gcshelm.ProblemCase.heterogeneous(20.0), 12.0, ExperimentConfig())[0]\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')), record.ndofs)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split("\n") == ["[]", "[] 455", ""]
