import math

import numpy as np
import pytest

from gcshelm import assembly_solver as asm
from gcshelm import gaussian_states as gs
from gcshelm import quadrature as quad
from gcshelm.experiments import ExperimentConfig, _ReferenceCache, run_cell
from gcshelm.phase_space import IndexPair, IndexSet, LatticeSpec, build_symbol_set
from gcshelm.problem_model import ProblemCase


def make_system(k=50.0, delta=0.5, density=64, case=None):
    case = case or ProblemCase.homogeneous(k)
    iset = build_symbol_set(LatticeSpec(1.0 / k), case.symbol, delta)
    states = asm.states_from_index_set(iset)
    lo, hi = quad.support_window(states)
    rule = quad.build_rule((min(lo, -1.0), max(hi, 1.0)), k, density)
    return asm.assemble(iset, case, rule), iset, case


def coefficient_report(c):
    """A report that carries only coefficients, as ``reconstruct`` reads it."""
    return asm.SolveReport(c, 0, asm.DEFAULT_CUTOFF, 0.0, 0.0, 0.0, 0.0)


def test_exact_representability_single_column():
    system, iset, case = make_system()
    target = system.matrix[:, :1]
    single = IndexSet(iset.members[:1], iset.lattice)
    sub = asm.DesignSystem(target, target[:, 0].copy(), single, system.rule)
    report = asm.solve(sub)
    assert abs(report.coefficients[0] - 1.0) < 1e-8
    assert report.residual_norm < 1e-10


def test_gram_diagonal_matches_independent_quadrature():
    system, iset, case = make_system(density=64)
    gram_diag = np.real(np.sum(np.abs(system.matrix) ** 2, axis=0))
    op = case.operator()
    states = asm.states_from_index_set(iset)
    fine = quad.build_rule(system.rule.window, case.k, 96)
    for j in (0, len(states) // 2, len(states) - 1):
        direct = quad.norm(lambda x: gs.apply_operator(states[j], op, x), fine) ** 2
        assert abs(gram_diag[j] - direct) <= 1e-10 * max(direct, 1.0)


def test_gram_hermitian():
    system, _, _ = make_system()
    gram = system.matrix.conj().T @ system.matrix
    assert np.array_equal(gram, gram)  # finite
    assert np.max(np.abs(gram - gram.conj().T)) == 0.0


def test_duplicate_column_rank_and_residual():
    system, iset, _ = make_system()
    report = asm.solve(system)
    dup = np.concatenate([system.matrix, system.matrix[:, :1]], axis=1)
    pad = IndexSet(iset.members, iset.lattice)
    sub = asm.DesignSystem(dup, system.rhs, pad, system.rule)
    report2 = asm.solve(sub)
    assert report2.numerical_rank == report.numerical_rank
    assert abs(report2.residual_norm - report.residual_norm) < 1e-8


def test_orthonormal_columns_projection():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(40, 6)) + 1j * rng.normal(size=(40, 6)))
    b = rng.normal(size=40) + 1j * rng.normal(size=40)
    spec = LatticeSpec(0.05)
    idx = IndexSet(tuple(IndexPair(0, n) for n in range(6)), spec)
    rule = quad.build_rule((0.0, 1.0), 20, 20)
    sub = asm.DesignSystem(q, b, idx, rule)
    report = asm.solve(sub)
    assert np.max(np.abs(report.coefficients - q.conj().T @ b)) < 1e-10


def test_normal_equation_optimality():
    # full-precision optimality on a conditioned system through the same path
    rng = np.random.default_rng(9)
    u, _ = np.linalg.qr(rng.normal(size=(200, 30)) + 1j * rng.normal(size=(200, 30)))
    v, _ = np.linalg.qr(rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)))
    a = u @ np.diag(np.logspace(0, -3, 30)) @ v.conj().T
    b = rng.normal(size=200) + 1j * rng.normal(size=200)
    spec = LatticeSpec(0.05)
    idx = IndexSet(tuple(IndexPair(0, n) for n in range(30)), spec)
    rule = quad.build_rule((0.0, 1.0), 20, 20)
    report = asm.solve(asm.DesignSystem(a, b, idx, rule))
    lhs = np.linalg.norm(a.conj().T @ (a @ report.coefficients - b))
    assert lhs <= 1e-8 * np.linalg.norm(a.conj().T @ b)

    # the coherent-state dictionary has condition ~1e15; optimality is then
    # only meaningful within the revealed-rank subspace
    system, _, _ = make_system(k=50.0, delta=1.0)
    report_d = asm.solve(system)
    u2, s2, _ = np.linalg.svd(system.matrix, full_matrices=False)
    kept = u2[:, s2 > report_d.truncation_cutoff * s2[0]]
    resid = system.matrix @ report_d.coefficients - system.rhs
    assert np.linalg.norm(kept.conj().T @ resid) <= 1e-6 * np.linalg.norm(system.rhs)


def test_monotone_residual_in_delta():
    k = 50.0
    case = ProblemCase.homogeneous(k)
    spec = LatticeSpec(1.0 / k)
    small = build_symbol_set(spec, case.symbol, 0.5)
    large = build_symbol_set(spec, case.symbol, 1.0)
    assert {(p.m, p.n) for p in small} <= {(p.m, p.n) for p in large}
    states = asm.states_from_index_set(large)
    lo, hi = quad.support_window(states)
    rule = quad.build_rule((min(lo, -1.0), max(hi, 1.0)), k, 64)
    res = [asm.solve(asm.assemble(s, case, rule)).residual_norm for s in (small, large)]
    assert res[1] <= res[0] + 1e-10


def test_quadrature_invariance_of_reconstruction_error():
    from gcshelm import analysis

    k = 50.0
    case = ProblemCase.homogeneous(k)
    iset = build_symbol_set(LatticeSpec(1.0 / k), case.symbol, 1.0)
    states = asm.states_from_index_set(iset)
    lo, hi = quad.support_window(states)
    window = (min(lo, -1.0), max(hi, 1.0))
    errs = []
    for density in (64, 128):
        rule = quad.build_rule(window, k, density)
        report = asm.solve(asm.assemble(iset, case, rule))
        err = analysis.h1k_error(
            (
                lambda x: asm.reconstruct(report, iset, x, 0),
                lambda x: asm.reconstruct(report, iset, x, 1),
            ),
            (lambda x: case.exact_solution(x, 0), lambda x: case.exact_solution(x, 1)),
            (-1.0, 1.0),
            k,
            96,
        )
        errs.append(err.relative)
    assert abs(errs[0] - errs[1]) <= 0.01 * errs[1]


def test_near_bandedness_at_k100():
    system, iset, _ = make_system(k=100.0, delta=0.8, density=64)
    gram = system.matrix.conj().T @ system.matrix
    m = iset.m_array()
    n = iset.n_array()
    dist = np.hypot(m[:, None] - m[None, :], n[:, None] - n[None, :])
    far = dist >= 10.0
    max_far = np.abs(gram[far]).max()
    max_diag = np.abs(np.diag(gram)).max()
    assert max_far <= 1e-8 * max_diag


def test_reconstruct_linearity_and_trivial_cases():
    system, iset, case = make_system()
    report = asm.solve(system)
    zero = coefficient_report(np.zeros_like(report.coefficients))
    x = np.linspace(-0.9, 0.9, 20)
    assert np.max(np.abs(asm.reconstruct(zero, iset, x))) == 0.0

    unit = np.zeros_like(report.coefficients)
    unit[3] = 1.0
    one = coefficient_report(unit)
    state = asm.states_from_index_set(iset)[3]
    assert np.allclose(asm.reconstruct(one, iset, x, 1), gs.eval_derivative(state, 1, x))

    rng = np.random.default_rng(11)
    c1 = rng.normal(size=len(iset)) + 1j * rng.normal(size=len(iset))
    c2 = rng.normal(size=len(iset)) + 1j * rng.normal(size=len(iset))
    r1 = coefficient_report(c1)
    r2 = coefficient_report(c2)
    r12 = coefficient_report(c1 + c2)
    lhs = asm.reconstruct(r12, iset, x)
    rhs = asm.reconstruct(r1, iset, x) + asm.reconstruct(r2, iset, x)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


def test_assemble_window_coverage_check():
    k = 50.0
    case = ProblemCase.homogeneous(k)
    iset = build_symbol_set(LatticeSpec(1.0 / k), case.symbol, 0.5)
    narrow = quad.build_rule((-1.0, 1.0), k, 20)
    with pytest.raises(ValueError, match="window"):
        asm.assemble(iset, case, narrow)


def test_solve_validation():
    system, _, _ = make_system()
    with pytest.raises(ValueError):
        asm.solve(system, cutoff_rel=0.0)
    zero = asm.DesignSystem(
        np.zeros_like(system.matrix), system.rhs, system.column_index, system.rule
    )
    with pytest.raises(ValueError):
        asm.solve(zero)


# -- the windowed state kernel against the per-state reference -----------------


def cell_system(case, delta):
    """The design system of one table cell, at the node density ``run_cell`` uses."""
    iset = build_symbol_set(LatticeSpec(1.0 / case.k), case.symbol, delta)
    density = math.ceil(40.0 * max(1.0, np.abs(iset.xi_array()).max()))
    return make_system(case.k, delta, density, case)[0], iset


@pytest.fixture(scope="module")
def het_cell():
    return cell_system(ProblemCase.heterogeneous(50.0), 2.0)


@pytest.fixture(scope="module")
def hom_cell():
    return cell_system(ProblemCase.homogeneous(400.0), 0.336)


def test_assemble_matches_per_state_columns(het_cell):
    system, iset = het_cell
    rule = system.rule
    assert rule.window[0] < -1.0 and rule.window[1] > 1.0  # reaches into the PML
    op = ProblemCase.heterogeneous(50.0).operator()
    root_w = np.sqrt(rule.weights)
    loop = np.stack(
        [root_w * gs.apply_operator(s, op, rule.nodes) for s in asm.states_from_index_set(iset)],
        axis=1,
    )
    scale = np.abs(loop).max()
    assert np.abs(system.matrix - loop).max() <= 1e-12 * scale


@pytest.mark.parametrize("order", [0, 1])
def test_reconstruct_matches_per_state_sum(order):
    _, iset, _ = make_system()
    rng = np.random.default_rng(5)
    c = rng.normal(size=len(iset)) + 1j * rng.normal(size=len(iset))
    report = coefficient_report(c)
    states = asm.states_from_index_set(iset)

    def reference(x):
        return sum(cj * gs.eval_derivative(s, order, x) for cj, s in zip(c, states))

    for x in (0.37, rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.5, 1.5, (5, 8))):
        got = asm.reconstruct(report, iset, x, order)
        want = reference(np.asarray(x))
        assert np.shape(got) == np.shape(x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert isinstance(asm.reconstruct(report, iset, 0.37, order), complex)


@pytest.mark.parametrize("cell", ["heterogeneous", "homogeneous"])
def test_design_matrix_window_and_no_subnormals(cell, het_cell, hom_cell):
    # Gaussian tails underflow to subnormal numbers, on which gelsd ran several
    # times slower; the kernel leaves them exactly zero outside 12 sqrt(hbar).
    system, iset = het_cell if cell == "heterogeneous" else hom_cell
    a = system.matrix
    tiny = np.finfo(float).tiny
    for part in (a.real, a.imag):
        assert not np.any((np.abs(part) > 0.0) & (np.abs(part) < tiny))
    dist = np.abs(system.rule.nodes[:, None] - iset.x_array()[None, :])
    far = dist > 12.0 * np.sqrt(iset.lattice.hbar)
    assert np.any(far) and not np.any(a[far])


# -- the banded row-block QR solve against lstsq on the whole matrix -----------


@pytest.fixture(scope="module")
def het6_cell():
    return cell_system(ProblemCase.heterogeneous(50.0), 6.0)


def synthetic_system(a, b):
    spec = LatticeSpec(0.05)
    idx = IndexSet(tuple(IndexPair(0, n) for n in range(a.shape[1])), spec)
    return asm.DesignSystem(a, b, idx, quad.build_rule((0.0, 1.0), 20, 20))


def dense_system(padded):
    # 2500 rows are three row blocks, and every row touches every column
    rng = np.random.default_rng(17)
    a = rng.normal(size=(2500, 60)) + 1j * rng.normal(size=(2500, 60))
    b = rng.normal(size=2500) + 1j * rng.normal(size=2500)
    if padded:  # a zero column and a copy of column 0 after the last column
        a = np.concatenate([a, np.zeros((2500, 1)), a[:, :1]], axis=1)
    return synthetic_system(a, b)


def lstsq_solve(system, cutoff_rel=asm.DEFAULT_CUTOFF):
    """The solve before the banded QR: gelsd on the whole Q x N matrix."""
    a, b = system.matrix, system.rhs
    coeff, _, rank, sigma = np.linalg.lstsq(a, b, rcond=cutoff_rel)
    dropped = float(sigma[rank]) if rank < sigma.size else 0.0
    residual = float(np.linalg.norm(a @ coeff - b))
    return asm.SolveReport(
        coeff, int(rank), cutoff_rel, residual, sigma[0], sigma[rank - 1], dropped
    )


# (system, numerical rank of lstsq)
EQUIVALENCE_CASES = {
    "hom-400-0.336": (lambda r: r.getfixturevalue("hom_cell")[0], 364),
    "het-50-6": (lambda r: r.getfixturevalue("het6_cell")[0], 474),
    "dense": (lambda r: dense_system(False), 60),
    "dense-zero-and-duplicate-column": (lambda r: dense_system(True), 60),
    "shorter-than-one-block": (lambda r: make_system(20.0, 1.0, 20)[0], 78),
}


@pytest.mark.parametrize("name", EQUIVALENCE_CASES)
def test_solve_matches_lstsq(name, request):
    build, rank = EQUIVALENCE_CASES[name]
    system = build(request)
    before = system.matrix.copy()
    report = asm.solve(system)
    oracle = lstsq_solve(system)
    assert np.array_equal(system.matrix, before)
    assert report.numerical_rank == oracle.numerical_rank == rank
    assert abs(report.residual_norm - oracle.residual_norm) <= 1e-6 * oracle.residual_norm
    if rank == system.matrix.shape[1]:
        diff = np.linalg.norm(report.coefficients - oracle.coefficients)
        assert diff <= 1e-8 * np.linalg.norm(oracle.coefficients)


def test_cell_error_matches_lstsq_solve(monkeypatch):
    case = ProblemCase.heterogeneous(50.0)
    config = ExperimentConfig()
    cache = _ReferenceCache(config.fem_x_end)
    banded, _, _ = run_cell(case, 6.0, config, cache)
    monkeypatch.setattr(asm, "solve", lstsq_solve)
    oracle, _, _ = run_cell(case, 6.0, config, cache)
    assert banded.rank == oracle.rank == 474
    assert abs(banded.rel_h1k_error - oracle.rel_h1k_error) <= 1e-3 * oracle.rel_h1k_error


def test_singular_value_range_clear_of_cutoff(het6_cell, hom_cell):
    # rank-deficient het (50, 6): the smallest kept and the largest dropped
    # singular value sit 1.32 and 0.86 times the cutoff, which is why the
    # rank of the triangle's SVD agrees with that of the whole matrix
    system, _ = het6_cell
    report = asm.solve(system)
    oracle = lstsq_solve(system)
    assert abs(report.sigma_max - oracle.sigma_max) <= 1e-12 * oracle.sigma_max
    for got, want in ((report.sigma_kept_min, oracle.sigma_kept_min),
                      (report.sigma_dropped_max, oracle.sigma_dropped_max)):
        assert abs(got - want) <= 1e-3 * want
    cut = report.truncation_cutoff * report.sigma_max
    assert report.sigma_kept_min / cut > 1.0 + 1e-3
    assert 0.0 < report.sigma_dropped_max / cut < 1.0 - 1e-3

    full = asm.solve(hom_cell[0])
    assert full.numerical_rank == 364 and full.sigma_dropped_max == 0.0
    assert full.sigma_kept_min > full.truncation_cutoff * full.sigma_max


def test_design_matrix_is_a_staircase_band(hom_cell):
    # the solve streams rows over a column window; the window stays narrow
    # only because index sets are sorted by position
    system, iset = hom_cell
    a = system.matrix
    first = (a != 0).argmax(axis=0)
    assert np.all(np.diff(iset.x_array()) >= 0.0)
    assert np.all(np.diff(first) >= 0)
    assert a.shape[1] == 364 and np.count_nonzero(a, axis=1).max() == 112
    shuffled = np.random.default_rng(2).permutation(a.shape[1])
    assert np.any(np.diff(first[shuffled]) < 0)
