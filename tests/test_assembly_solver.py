import math
from types import SimpleNamespace

import numpy as np
import pytest

from gcshelm import assembly_solver as asm
from gcshelm import gaussian_states as gs
from gcshelm import quadrature as quad
from gcshelm.experiments import ExperimentConfig, _ReferenceCache, run_cell
from gcshelm.gaussian_states import SecondOrderOperator
from gcshelm.phase_space import IndexSet, LatticeSpec, build_symbol_set
from gcshelm.problem_model import ProblemCase

from helpers import (
    dense,
    halves_system,
    norm,
    one_block,
    pairs_of,
    qr_recorder,
    state_matrix,
    state_rhs,
    states_from_index_set,
    support_window,
)


def make_system(k=50.0, delta=0.5, density=64, case=None):
    case = case or ProblemCase.homogeneous(k)
    iset = build_symbol_set(LatticeSpec(1.0 / k), case.operator(), delta)
    return asm.assemble(iset, case, density), iset, case


def coefficient_report(c):
    """A report that carries only coefficients, as ``reconstruct`` reads it."""
    return asm.SolveReport(c, 0, asm.DEFAULT_CUTOFF, 0.0, 0.0, 0.0, 0.0)


def test_exact_representability_single_column():
    # the first column of each half, with that column as its right-hand
    # side: both parity coefficients are 1
    system, _, _ = make_system()
    even, odd = (dense(half)[:, :1] for half in asm._halves(system.matrix))
    report = asm.solve(halves_system(even, even[:, 0], odd, odd[:, 0]))
    assert np.abs(asm._fold(report.coefficients) - 1.0).max() < 1e-8
    assert report.residual_norm < 1e-10


def test_gram_diagonal_matches_independent_quadrature():
    system, iset, case = make_system(density=64)
    gram_diag = np.real(np.sum(np.abs(state_matrix(system)) ** 2, axis=0))
    op = case.operator()
    states = states_from_index_set(iset)
    fine = quad.build_rule(system.rule.window, case.k, 96)
    for j in (0, len(states) // 2, len(states) - 1):
        direct = norm(lambda x: gs.apply_operator(states[j], op, x), fine) ** 2
        assert abs(gram_diag[j] - direct) <= 1e-10 * max(direct, 1.0)


def test_gram_hermitian():
    system, _, _ = make_system()
    a = dense(system.matrix)
    gram = a.conj().T @ a
    assert np.array_equal(gram, gram)  # finite
    assert np.max(np.abs(gram - gram.conj().T)) == 0.0


def test_duplicate_column_rank_and_residual():
    # each half with a copy of its first column after its last
    system, _, _ = make_system()
    report = asm.solve(system)
    even, odd = (dense(half) for half in asm._halves(system.matrix))
    q_even = even.shape[0]
    dup = [np.concatenate([a, a[:, :1]], axis=1) for a in (even, odd)]
    sub = halves_system(dup[0], system.rhs[:q_even], dup[1], system.rhs[q_even:])
    report2 = asm.solve(sub)
    assert report2.numerical_rank == report.numerical_rank
    assert abs(report2.residual_norm - report.residual_norm) < 1e-8


def test_orthonormal_columns_projection():
    # orthonormal columns in each half stay orthonormal in state order
    rng = np.random.default_rng(3)
    halves = [np.linalg.qr(rng.normal(size=(20, 3)) + 1j * rng.normal(size=(20, 3)))[0] for _ in range(2)]
    b = rng.normal(size=40) + 1j * rng.normal(size=40)
    sub = halves_system(halves[0], b[:20], halves[1], b[20:])
    report = asm.solve(sub)
    q = state_matrix(sub)
    assert np.max(np.abs(report.coefficients - q.conj().T @ state_rhs(sub))) < 1e-10


def test_normal_equation_optimality():
    # full-precision optimality on a conditioned system through the same
    # path, its singular values dealt alternately to the two halves
    rng = np.random.default_rng(9)
    sigma = np.logspace(0, -3, 30)
    halves = [with_singular_values(rng, 100, sigma[parity::2]) for parity in (0, 1)]
    b = rng.normal(size=200) + 1j * rng.normal(size=200)
    sub = halves_system(halves[0], b[:100], halves[1], b[100:])
    report = asm.solve(sub)
    a, b = state_matrix(sub), state_rhs(sub)
    lhs = np.linalg.norm(a.conj().T @ (a @ report.coefficients - b))
    assert lhs <= 1e-8 * np.linalg.norm(a.conj().T @ b)

    # the coherent-state dictionary has condition ~1e15; optimality is then
    # only meaningful within the revealed-rank subspace
    system, _, _ = make_system(k=50.0, delta=1.0)
    report_d = asm.solve(system)
    a_d = state_matrix(system)
    u2, s2, _ = np.linalg.svd(a_d, full_matrices=False)
    kept = u2[:, s2 > report_d.truncation_cutoff * s2[0]]
    resid = a_d @ report_d.coefficients - state_rhs(system)
    assert np.linalg.norm(kept.conj().T @ resid) <= 1e-6 * np.linalg.norm(system.rhs)


def test_monotone_residual_in_delta():
    # each set gets its own window; outside it the states are below 1e-16 of
    # their peaks and the source vanishes, so the residuals compare as on one
    # rule
    k = 50.0
    case = ProblemCase.homogeneous(k)
    spec = LatticeSpec(1.0 / k)
    small = build_symbol_set(spec, case.operator(), 0.5)
    large = build_symbol_set(spec, case.operator(), 1.0)
    assert pairs_of(small) <= pairs_of(large)
    res = [asm.solve(asm.assemble(s, case, 64)).residual_norm for s in (small, large)]
    assert res[1] <= res[0] + 1e-10


@pytest.mark.parametrize(
    "name,k,delta,err_tol",
    [("homogeneous", 400.0, 0.336, 1e-5), ("heterogeneous", 50.0, 6.0, 1e-3)],
    ids=["hom-400-0.336", "het-50-6"],
)
def test_quadrature_invariance_of_reconstruction_error(name, k, delta, err_tol, monkeypatch):
    # run_cell on the production rule against twice its nodes per period,
    # which is exactly the former rule ceil(40 * max(1, xi_max)) nodes per
    # wavelength for the design system and the error alike, kept inline as
    # the old path.  het (50, 6) is rank-deficient, so its error is only
    # determined to about 1e-4 (measured moves: residual 2.6e-7 and 1.9e-8,
    # error 1.5e-7 and 2.5e-5).
    case = ProblemCase.from_name(name, k)
    config = ExperimentConfig()
    cache = _ReferenceCache()
    new_record, new_report, _ = run_cell(case, delta, config, cache)
    monkeypatch.setattr(quad, "nodes_per_wavelength", lambda f: math.ceil(40.0 * (f / 2.0)))
    old_record, old_report, _ = run_cell(case, delta, config, cache)
    assert new_record.ndofs == old_record.ndofs
    assert new_record.rank == old_record.rank
    res = (new_report.residual_norm, old_report.residual_norm)
    assert abs(res[0] - res[1]) <= 1e-6 * res[1]
    errs = (new_record.rel_h1k_error, old_record.rel_h1k_error)
    assert abs(errs[0] - errs[1]) <= err_tol * errs[1]


def test_near_bandedness_at_k100():
    system, iset, _ = make_system(k=100.0, delta=0.8, density=64)
    a = state_matrix(system)
    gram = a.conj().T @ a
    m, n = iset.m, iset.n
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
    for part in asm.reconstruct(zero, iset, x):
        assert np.max(np.abs(part)) == 0.0

    unit = np.zeros_like(report.coefficients)
    unit[3] = 1.0
    one = coefficient_report(unit)
    state = states_from_index_set(iset)[3]
    value, derivative = asm.reconstruct(one, iset, x)
    assert np.allclose(value, gs.eval_state(state, x))
    assert np.allclose(derivative, gs.eval_derivative(state, 1, x))

    rng = np.random.default_rng(11)
    c1 = rng.normal(size=len(iset)) + 1j * rng.normal(size=len(iset))
    c2 = rng.normal(size=len(iset)) + 1j * rng.normal(size=len(iset))
    r1 = coefficient_report(c1)
    r2 = coefficient_report(c2)
    r12 = coefficient_report(c1 + c2)
    lhs = np.array(asm.reconstruct(r12, iset, x))
    rhs = np.array(asm.reconstruct(r1, iset, x)) + np.array(asm.reconstruct(r2, iset, x))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))


def test_assemble_window_holds_states_and_source():
    # hom (20, 2.0) selects states in the PML, beyond the source support
    case = ProblemCase.homogeneous(20.0)
    iset = build_symbol_set(LatticeSpec(1.0 / 20.0), case.operator(), 2.0)
    lo, hi = support_window(states_from_index_set(iset))
    system = asm.assemble(iset, case, 20)
    assert system.rule.window == (min(lo, -1.0), max(hi, 1.0))
    assert system.rule.window[0] < -3.2 and system.rule.window[1] > 3.2


def test_solve_validation():
    system, _, _ = make_system()
    with pytest.raises(ValueError):
        asm.solve(system, cutoff_rel=0.0)
    shape = system.matrix.shape
    zeros = tuple((rows, cols, np.zeros_like(block)) for rows, cols, block in system.matrix.blocks)
    for matrix in (asm.BlockMatrix(shape, zeros), asm.BlockMatrix(shape, ())):
        with pytest.raises(ValueError, match="identically zero"):
            asm.solve(asm.DesignSystem(matrix, system.rhs, system.rule))


# -- the windowed state kernel against the per-state reference -----------------


def cell_system(case, delta):
    """The design system of one table cell, at the node density ``run_cell`` uses."""
    iset = build_symbol_set(LatticeSpec(1.0 / case.k), case.operator(), delta)
    density = quad.nodes_per_wavelength(2.0 * max(1.0, np.abs(iset.xi_array()).max()))
    return make_system(case.k, delta, density, case)[0], iset


@pytest.fixture(scope="module")
def het_cell():
    return cell_system(ProblemCase.heterogeneous(50.0), 2.0)


@pytest.fixture(scope="module")
def hom_cell():
    return cell_system(ProblemCase.homogeneous(400.0), 0.336)


def test_assemble_matches_per_state_columns(het_cell, het6_cell):
    # het (50, 6) has Q and N odd: the node at 0 and the state (0, 0) are
    # their own mirrors in the fold
    op = ProblemCase.heterogeneous(50.0).operator()
    for system, iset in (het_cell, het6_cell):
        rule = system.rule
        assert rule.window[0] < -1.0 and rule.window[1] > 1.0  # reaches into the PML
        root_w = np.sqrt(rule.weights)
        loop = np.stack(
            [root_w * gs.apply_operator(s, op, rule.nodes) for s in states_from_index_set(iset)],
            axis=1,
        )
        scale = np.abs(loop).max()
        assert np.abs(state_matrix(system) - loop).max() <= 1e-12 * scale


@pytest.mark.parametrize("order", [0, 1])
def test_reconstruct_matches_per_state_sum(order):
    # value and derivative come from one kernel pass; each matches its own
    # per-state sum, on and off the lattice positions
    _, iset, _ = make_system()
    rng = np.random.default_rng(5)
    c = rng.normal(size=len(iset)) + 1j * rng.normal(size=len(iset))
    report = coefficient_report(c)
    states = states_from_index_set(iset)

    def reference(x):
        return sum(cj * gs.eval_derivative(s, order, x) for cj, s in zip(c, states))

    for x in (0.37, iset.x_array(), rng.uniform(-1.5, 1.5, 40), rng.uniform(-1.5, 1.5, (5, 8))):
        got = asm.reconstruct(report, iset, x)[order]
        want = reference(np.asarray(x))
        assert np.shape(got) == np.shape(x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert isinstance(asm.reconstruct(report, iset, 0.37)[order], complex)


# the five benchmark cells and the seven table cells, eight distinct
ORACLE_CELLS = [
    ("homogeneous", 100.0, 0.8),
    ("homogeneous", 200.0, 0.6),
    ("homogeneous", 400.0, 0.336),
    ("heterogeneous", 50.0, 6.0),
    ("heterogeneous", 100.0, 4.0),
    ("homogeneous", 20.0, 2.0),
    ("heterogeneous", 20.0, 12.0),
    ("homogeneous", 50.0, 1.0),
]


def cell_id(v):
    return f"{v:g}" if isinstance(v, float) else v


@pytest.mark.parametrize("name,k,delta", ORACLE_CELLS, ids=cell_id)
def test_state_blocks_match_per_state_on_the_cells(name, k, delta):
    # the blocks of every cell on its own rule, the states and P_k of them,
    # each column on the nodes within WINDOW_SIGMAS*sqrt(hbar) of its state
    # against the per-state reference there, within 1e-14 of the block's
    # largest entry
    case = ProblemCase.from_name(name, k)
    system, iset = cell_system(case, delta)
    nodes, hbar, x0 = system.rule.nodes, iset.lattice.hbar, iset.x_array()
    reach = gs.WINDOW_SIGMAS * math.sqrt(hbar)
    states = states_from_index_set(iset)
    op = case.operator()
    for kernel_op in (op, None):
        for rows, cols, block in gs.state_blocks(hbar, x0, iset.n, nodes, kernel_op):
            near = np.flatnonzero(np.abs(nodes - x0[cols.start]) <= reach)
            assert np.array_equal(near, np.arange(rows.start, rows.stop))
            x = nodes[rows]
            ref = np.stack([
                gs.eval_state(s, x) if kernel_op is None else gs.apply_operator(s, op, x) for s in states[cols]
            ], axis=1)
            assert np.abs(block - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("cell", ["heterogeneous", "homogeneous"])
def test_design_matrix_window_and_no_subnormals(cell, het_cell, hom_cell):
    # Gaussian tails underflow to subnormal numbers, on which gelsd ran several
    # times slower; the kernel leaves them exactly zero outside its window,
    # where a state is below 1e-16 of its peak.
    system, iset = het_cell if cell == "heterogeneous" else hom_cell
    a = state_matrix(system)
    tiny = np.finfo(float).tiny
    for part in (a.real, a.imag):
        assert not np.any((np.abs(part) > 0.0) & (np.abs(part) < tiny))
    dist = np.abs(system.rule.nodes[:, None] - iset.x_array()[None, :])
    far = dist > gs.WINDOW_SIGMAS * np.sqrt(iset.lattice.hbar)
    assert np.any(far) and not np.any(a[far])


# -- the banded row-block QR solve against lstsq on the whole matrix -----------


@pytest.fixture(scope="module")
def het6_cell():
    return cell_system(ProblemCase.heterogeneous(50.0), 6.0)


def dense_system(padded, rows=2500):
    # two halves of rows/2 x 30, every row of a half touching every column
    # of it
    rng = np.random.default_rng(17)
    a = rng.normal(size=(rows, 60)) + 1j * rng.normal(size=(rows, 60))
    b = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    half = rows // 2
    even, odd = a[:half, :30], a[half:, 30:]
    if padded:  # in each half, a zero column and a copy of its column 0 after its last column
        even, odd = (np.concatenate([h, np.zeros((half, 1)), h[:, :1]], axis=1) for h in (even, odd))
    return halves_system(even, b[:half], odd, b[half:])


def lstsq_solve(system, cutoff_rel=asm.DEFAULT_CUTOFF):
    """The solve before the banded QR: gelsd on the whole Q x N matrix in state order."""
    a, b = state_matrix(system), state_rhs(system)
    coeff, _, rank, sigma = np.linalg.lstsq(a, b, rcond=cutoff_rel)
    dropped = float(sigma[rank]) if rank < sigma.size else 0.0
    residual = float(np.linalg.norm(a @ coeff - b))
    return asm.SolveReport(
        coeff, int(rank), cutoff_rel, residual, sigma[0], sigma[rank - 1], dropped
    )


def gapped_staircase():
    # two halves of 1500 rows over 8 columns, as ``assemble`` lays them
    # out: the same two random blocks on the rows before the even half's
    # last block (the fork, row 900), then a last block of each half's own.
    # Column 6 of the even half is in none of its blocks
    rng = np.random.default_rng(23)
    rows = [(0, 900), (300, 1200), (900, 1500)]
    cols = [(0, 3), (3, 6), (6, 8)]
    even, odd = [], []
    for k, ((r0, r1), (c0, c1)) in enumerate(zip(rows, cols)):
        block = rng.normal(size=(r1 - r0, c1 - c0)) + 1j * rng.normal(size=(r1 - r0, c1 - c0))
        odd.append((slice(1500 + r0, 1500 + r1), slice(8 + c0, 8 + c1), block))
        if k == len(rows) - 1:
            c0, block = c0 + 1, rng.normal(size=(r1 - r0, 1)) + 1j * rng.normal(size=(r1 - r0, 1))
        even.append((slice(r0, r1), slice(c0, c1), block))
    b = rng.normal(size=3000) + 1j * rng.normal(size=3000)
    matrix = asm.BlockMatrix((3000, 16), tuple(even + odd))
    return asm.DesignSystem(matrix, b, quad.build_rule((0.0, 1.0), 20, 20))


# (system, numerical rank of lstsq, row steps of the streaming QR); the
# assembled cells stream the rows their halves share once, ceil(fork /
# step) steps, then each half's own rows: 8 + 2 + 2 of 429 rows at hom
# (400, 0.336) (fork at 3249 of 3906 rows a half), 5 + 2 + 2 of 415 and
# 416 at het (50, 6) (1866 of 2465 and 2464), 3 + 2 + 2 of 68 at hom
# (20, 1) (153 of 275), 4 + 3 + 3 of 281 on the gapped staircase (900 of
# 1500).  The dense halves fork at row 0 and stream apart: 5 + 5 steps of
# 312 rows of 1250, 1 + 1 of 30
EQUIVALENCE_CASES = {
    "hom-400-0.336": (lambda r: r.getfixturevalue("hom_cell")[0], 364, 12),
    "het-50-6": (lambda r: r.getfixturevalue("het6_cell")[0], 474, 9),
    "dense": (lambda r: dense_system(False), 60, 10),
    "dense-zero-and-duplicate-column": (lambda r: dense_system(True), 60, 10),
    "dense-square": (lambda r: dense_system(False, rows=60), 60, 2),
    "hom-20-1": (lambda r: make_system(20.0, 1.0, 20)[0], 78, 7),
    "gapped-staircase": (lambda r: gapped_staircase(), 15, 10),
}


@pytest.mark.parametrize("name", EQUIVALENCE_CASES)
def test_solve_matches_lstsq(name, request, monkeypatch):
    # each array handed to the QR stays inside (band + step) x 3/2 band
    # entries, which blocks of the former max(4 band, 1024) rows overrun
    build, rank, steps = EQUIVALENCE_CASES[name]
    system = build(request)
    before = dense(system.matrix)
    shapes = []
    monkeypatch.setattr(np.linalg, "qr", qr_recorder(shapes))
    report = asm.solve(system)
    assert len(shapes) == steps
    band = int(np.count_nonzero(before, axis=1).max())
    assert max(rows * cols for rows, cols in shapes) <= 1.5 * band * (band + asm._row_step(band, *before.shape))
    oracle = lstsq_solve(system)
    assert np.array_equal(dense(system.matrix), before)
    assert report.numerical_rank == oracle.numerical_rank == rank
    # the residual read off the triangle against the product with the matrix
    direct = np.linalg.norm(state_matrix(system) @ report.coefficients - state_rhs(system))
    q, n = system.matrix.shape
    if q == n:  # b lies in the range of a: every residual is rounding
        residuals = (report.residual_norm, oracle.residual_norm, direct)
        assert max(residuals) <= 1e-12 * np.linalg.norm(system.rhs)
    else:
        assert abs(report.residual_norm - oracle.residual_norm) <= 1e-6 * oracle.residual_norm
        assert abs(report.residual_norm - direct) <= 2e-6 * direct
    if rank == n:
        diff = np.linalg.norm(report.coefficients - oracle.coefficients)
        assert diff <= 1e-8 * np.linalg.norm(oracle.coefficients)


# cells whose error the solve fixes only up to rounding, held to the spread
# of their error under rounding-size perturbations rather than to 1e-4
ROUNDING_BOUND_CELLS = {("heterogeneous", 100.0, 4.0)}
# cells whose residual the solve fixes only up to rounding: 1e-15
# perturbations of the blocks moved it by up to 4.6e-6 (hom (20, 2)),
# 3.2e-6 (het (100, 4)) and 1.66e-6 (het (20, 12)) of itself, above the
# 1e-6 that holds the other cells; held to the spread of their residual
RESIDUAL_ROUNDING_CELLS = {
    ("homogeneous", 20.0, 2.0), ("heterogeneous", 100.0, 4.0), ("heterogeneous", 20.0, 12.0),
}
PERTURBATION_SEEDS = range(8)


def perturbed_runs(case, delta, cache, index_set):
    """(rel_h1k, residual) of a cell with every block entry times 1 + 1e-15 u, u uniform in [-1, 1].

    One run per seed of ``PERTURBATION_SEEDS``.
    """
    real = asm.assemble
    runs = []
    for seed in PERTURBATION_SEEDS:
        rng = np.random.default_rng(seed)

        def assemble(*args):
            system = real(*args)
            for _, _, block in system.matrix.blocks:
                block *= 1.0 + 1e-15 * rng.uniform(-1.0, 1.0, block.shape)
            return system

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(asm, "assemble", assemble)
            record, report, _ = run_cell(case, delta, ExperimentConfig(), cache, index_set)
        runs.append((record.rel_h1k_error, report.residual_norm))
    return runs


def rounding_spread(case, delta, cache, index_set, record, report):
    """The spreads (max - min) of rel_h1k and of the residual over a cell's run and ``perturbed_runs``."""
    runs = np.array(perturbed_runs(case, delta, cache, index_set) + [(record.rel_h1k_error, report.residual_norm)])
    return runs.max(axis=0) - runs.min(axis=0)


# het (20, 0.5): N = 32 and no state at m = 0, so the staircase forks at
# row 91 of 300, before the first row whose entries differ (212)
EARLY_FORK_CELL = ("heterogeneous", 20.0, 0.5)


@pytest.mark.parametrize("name,k,delta", ORACLE_CELLS + [EARLY_FORK_CELL], ids=cell_id)
def test_cell_matches_the_dense_lstsq(name, k, delta, monkeypatch):
    # run_cell against itself with lstsq on the whole matrix in state order
    # as its solve, on the same index set and reference.  No lstsq of the
    # solve is wider than the larger half, ceil(N/2) columns.  The error is
    # held to 1e-4 and the residual to 1e-6 of the oracle's, or on the
    # rounding cells to the spread of the solve's perturbed runs
    case = ProblemCase.from_name(name, k)
    cache = _ReferenceCache()
    widths = []
    lstsq = np.linalg.lstsq

    def recording_lstsq(a, b, rcond):
        widths.append(a.shape[1])
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    record, report, iset = run_cell(case, delta, ExperimentConfig(), cache)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    assert max(widths) == len(iset) - len(iset) // 2
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asm, "solve", lstsq_solve)
        oracle, oracle_report, _ = run_cell(case, delta, ExperimentConfig(), cache, iset)
    assert record.ndofs == oracle.ndofs and record.rank == oracle.rank
    cell = (name, k, delta)
    err_tol, res_tol = 1e-4 * oracle.rel_h1k_error, 1e-6 * oracle_report.residual_norm
    if cell in ROUNDING_BOUND_CELLS | RESIDUAL_ROUNDING_CELLS:
        spread = rounding_spread(case, delta, cache, iset, record, report)
        err_tol = spread[0] if cell in ROUNDING_BOUND_CELLS else err_tol
        res_tol = spread[1] if cell in RESIDUAL_ROUNDING_CELLS else res_tol
    assert abs(record.rel_h1k_error - oracle.rel_h1k_error) <= err_tol
    assert abs(report.residual_norm - oracle_report.residual_norm) <= res_tol


def test_cell_error_matches_lstsq_solve(monkeypatch):
    case = ProblemCase.heterogeneous(50.0)
    config = ExperimentConfig()
    cache = _ReferenceCache()
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
    a = dense(system.matrix)
    first = (a != 0).argmax(axis=0)
    assert np.all(np.diff(iset.x_array()) >= 0.0)
    assert np.all(np.diff(first) >= 0)
    assert a.shape[1] == 364 and np.count_nonzero(a, axis=1).max() == 80
    shuffled = np.random.default_rng(2).permutation(a.shape[1])
    assert np.any(np.diff(first[shuffled]) < 0)


# -- the design matrix held as its state blocks --------------------------------


@pytest.mark.parametrize("cell", ["hom-400-0.336", "het-50-6"])
def test_block_rows_match_the_nonzero_scan(cell, hom_cell, het6_cell):
    # the QR reads each column's first and last row off its block's row
    # bounds; they equal a scan of the dense matrix, so its windows, and
    # with them R and Q^H b, are those of a scan
    system, _ = hom_cell if cell == "hom-400-0.336" else het6_cell
    nonzero = dense(system.matrix) != 0
    q = nonzero.shape[0]
    row_bounds, col_bounds = system.matrix.row_bounds, system.matrix.col_bounds
    widths = col_bounds[:, 1] - col_bounds[:, 0]
    cols = np.concatenate([np.arange(c0, c1) for c0, c1 in col_bounds])
    first = np.repeat(row_bounds[:, 0], widths)
    last = np.repeat(row_bounds[:, 1] - 1, widths)
    assert np.array_equal(cols, np.flatnonzero(nonzero.any(axis=0)))
    assert np.array_equal(first, nonzero.argmax(axis=0)[cols])
    assert np.array_equal(last, q - 1 - nonzero[::-1].argmax(axis=0)[cols])


@pytest.mark.parametrize("cell", ["hom-400-0.336", "het-50-6"])
def test_blocks_store_only_the_nonzeros(cell, hom_cell, het6_cell):
    # the rule keeps its panel count (Q as before the parity fold: 7812 and
    # 4929), and the halves have ceil and floor of Q and N
    system, _ = hom_cell if cell == "hom-400-0.336" else het6_cell
    q, n = system.matrix.shape
    assert q == {"hom-400-0.336": 7812, "het-50-6": 4929}[cell]
    assert [half.shape for half in asm._halves(system.matrix)] == [(q - q // 2, n - n // 2), (q // 2, n // 2)]
    stored = sum(block.size for _, _, block in system.matrix.blocks)
    assert stored == np.count_nonzero(dense(system.matrix))
    assert stored <= 0.35 * q * n


def test_block_matrix_rejects_blocks_out_of_order():
    a = np.ones((4, 1))
    down = (slice(0, 2), slice(0, 1), a[:2])
    up = (slice(1, 3), slice(1, 2), a[:2])
    asm.BlockMatrix((4, 2), (down, up))
    with pytest.raises(ValueError):
        asm.BlockMatrix((4, 2), (up, down))  # columns decrease
    with pytest.raises(ValueError):
        asm.BlockMatrix((4, 2), ((slice(2, 4), slice(0, 1), a[:2]), up))  # rows go back up
    with pytest.raises(ValueError):
        asm.BlockMatrix((2, 2), (down, up))  # rows past the matrix


# -- the parity fold: two halves solved apart ----------------------------------


def with_singular_values(rng, rows, sigma):
    """A random complex rows x len(sigma) matrix with the given singular values."""
    cols = len(sigma)
    u, _ = np.linalg.qr(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, cols)) + 1j * rng.normal(size=(cols, cols)))
    return u @ np.diag(sigma) @ v.conj().T


def test_one_cutoff_for_all_diagonal_blocks(monkeypatch):
    # the odd half's largest singular value is 1e-3 of the even half's: its
    # own relative cutoff would keep 1e-13 and 1e-14, which tau = 1e-12 *
    # sigma_max drops, so that half is solved again and the rank is that
    # of a dense truncated SVD of the whole matrix
    rng = np.random.default_rng(31)
    first = with_singular_values(rng, 40, [1.0, 0.5, 0.25, 0.125])
    second = with_singular_values(rng, 40, [1e-3, 1e-13, 1e-14])
    b = rng.normal(size=80) + 1j * rng.normal(size=80)
    system = halves_system(first, b[:40], second, b[40:])
    calls = []
    lstsq = np.linalg.lstsq

    def recording(a, rhs, rcond):
        calls.append(a.shape)
        return lstsq(a, rhs, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", recording)
    report = asm.solve(system)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    assert calls == [(4, 4), (3, 3), (3, 3)]
    a, b = state_matrix(system), state_rhs(system)
    coeff, _, rank, sigma = np.linalg.lstsq(a, b, rcond=asm.DEFAULT_CUTOFF)
    assert report.numerical_rank == rank == 5
    assert abs(report.sigma_kept_min - 1e-3) <= 1e-12 and abs(report.sigma_dropped_max - 1e-13) <= 1e-15
    assert np.linalg.norm(report.coefficients - coeff) <= 1e-10 * np.linalg.norm(coeff)
    assert abs(report.residual_norm - np.linalg.norm(a @ coeff - b)) <= 1e-12 * np.linalg.norm(b)


def test_assemble_rejects_a_set_or_operator_without_parity():
    case = ProblemCase.homogeneous(50.0)
    iset = build_symbol_set(LatticeSpec(1.0 / case.k), case.operator(), 0.5)
    system = asm.assemble(iset, case, 20)
    assert system.rule.window[1] > 1.0  # into the PML, where b is nonzero
    lopsided = IndexSet(iset.m[1:], iset.n[1:], iset.lattice)
    with pytest.raises(ValueError, match="closed under"):
        asm.assemble(lopsided, case, 20)
    op = case.operator()

    def even_b(x):
        a, _, c = op.coefficients(x)
        return a, op.coefficients(np.abs(x))[1], c

    mirrored = SimpleNamespace(
        k=case.k, rhs=case.rhs, rhs_support=case.rhs_support,
        operator=lambda: SecondOrderOperator(even_b),
    )
    with pytest.raises(ValueError, match="even, odd and even"):
        asm.assemble(iset, mirrored, 20)


def test_design_system_rejects_blocks_across_the_halves():
    # the assembled matrix unfolded lies in both halves; so does a block on
    # 8 x 4 that reaches past the even half's 4 rows or 2 columns, or that
    # couples its rows to the odd half's columns
    system, _, _ = make_system()
    with pytest.raises(ValueError, match="even or in the odd half"):
        asm.DesignSystem(one_block(state_matrix(system)), state_rhs(system), system.rule)

    def system_of(layout):
        blocks = tuple((rows, cols, np.ones((rows.stop - rows.start, cols.stop - cols.start))) for rows, cols in layout)
        return asm.DesignSystem(asm.BlockMatrix((8, 4), blocks), np.ones(8), system.rule)

    system_of(((slice(0, 4), slice(0, 2)), (slice(4, 8), slice(2, 4))))
    for layout in (
        ((slice(0, 5), slice(0, 2)), (slice(5, 8), slice(2, 4))),
        ((slice(0, 4), slice(0, 3)), (slice(4, 8), slice(3, 4))),
        ((slice(0, 4), slice(0, 2)), (slice(2, 4), slice(2, 4))),
    ):
        with pytest.raises(ValueError, match="even or in the odd half"):
            system_of(layout)


@pytest.mark.parametrize(
    "rows,cols,empty", [(slice(4, 8), slice(2, 4), "even"), (slice(0, 4), slice(0, 2), "odd")],
)
def test_design_system_rejects_a_half_without_blocks(rows, cols, empty):
    # on 8 x 4 the even half is rows 0-4 and columns 0-2; with a block in one
    # half only, the other would reach the solve empty
    system, _, _ = make_system()
    blocks = ((rows, cols, np.ones((4, 2))),)
    with pytest.raises(ValueError, match=f"the {empty} half of the system holds no block"):
        asm.DesignSystem(asm.BlockMatrix((8, 4), blocks), np.ones(8), system.rule)


def test_assemble_rejects_the_set_of_one_state():
    # the state (0, 0) alone has no odd half; no case selects it, since the
    # pairs (0, +-n) enter first
    case = ProblemCase.homogeneous(20.0)
    with pytest.raises(ValueError, match="two columns"):
        asm.assemble(IndexSet(np.array([0]), np.array([0]), LatticeSpec(1.0 / case.k)), case, 20)


# -- the shared rows: one stream until the halves fork -------------------------


def shared_sigma_gap(system):
    """How far the shared stream moves the singular values of the halves, over sigma_max.

    A = QR keeps them, so each triangle of ``asm._shared_qr`` has those of
    its dense half; the largest move of one, over the largest of all.
    """
    triangles = [r for r, _, _ in asm._shared_qr(system.matrix, system.rhs)]
    halves = [dense(half) for half in asm._halves(system.matrix)]
    sigma = [np.linalg.svd(a, compute_uv=False) for a in triangles + halves]
    gap = max(np.abs(new - old).max() for new, old in zip(sigma[:2], sigma[2:]))
    return gap / max(s[0] for s in sigma)


def first_differing_row(even, odd):
    """The first row at which the halves' entries differ, or that the odd half lacks.

    On the odd half's columns, with the even half's column of the state
    (0, 0) differing where it is nonzero.
    """
    a_even, a_odd = dense(even), dense(odd)
    q_odd, n_odd = a_odd.shape
    differs = (a_even[:q_odd, :n_odd] != a_odd).any(axis=1) | a_even[:q_odd, n_odd:].any(axis=1)
    return int(np.argmax(np.append(differs, True)))


@pytest.mark.parametrize("name,k,delta", ORACLE_CELLS + [EARLY_FORK_CELL], ids=cell_id)
def test_triangles_keep_the_halves_singular_values(name, k, delta):
    # the rows both halves hold are factored once, from the outer end; each
    # triangle still has the singular values of its dense half
    assert shared_sigma_gap(cell_system(ProblemCase.from_name(name, k), delta)[0]) <= 1e-13


@pytest.mark.parametrize("name,k,delta", ORACLE_CELLS + [EARLY_FORK_CELL], ids=cell_id)
def test_the_staircase_fork_matches_the_entries(name, k, delta):
    # the first row of the even half's last block, which holds the states
    # nearest 0, against the first row whose entries differ: the same with
    # a state at m = 0, earlier without one; the halves agree on every row
    # before the fork, bit for bit
    even, odd = asm._halves(cell_system(ProblemCase.from_name(name, k), delta)[0].matrix)
    fork, first = asm._fork_row(even, odd), first_differing_row(even, odd)
    if (name, k, delta) == EARLY_FORK_CELL:
        assert (fork, first) == (91, 212)
    else:
        assert fork == first


# homogeneous k = 20 cells (delta, nodes per wavelength) of each parity: N
# is odd with the state (0, 0) in the set, Q with the node 0 in the rule
PARITY_CELLS = {
    "N-even-Q-even": (1.0, 16),
    "N-even-Q-odd": (1.0, 17),
    "N-odd-Q-even": (4.0, 16),
    "N-odd-Q-odd": (4.0, 17),
}


@pytest.fixture(params=PARITY_CELLS)
def parity_cell(request):
    system = make_system(20.0, *PARITY_CELLS[request.param])[0]
    q, n = system.matrix.shape
    assert request.param == f"N-{('even', 'odd')[n % 2]}-Q-{('even', 'odd')[q % 2]}"
    return system


def scrambled(system, odd_blocks, seed=5):
    """The system with a random right-hand side, and random odd rows if ``odd_blocks``.

    Those are the odd half's entries from the fork on, the rows where
    ``asm.assemble`` lets the halves differ, redrawn at the scale of the
    largest entry.  On an assembled cell the halves first differ at the far
    edge of a window, where a state is 1e-16 of its peak; redrawn, they
    differ from the fork on at the matrix's scale.
    """
    matrix = system.matrix
    q = matrix.shape[0]
    rng = np.random.default_rng(seed)
    scale = max(np.abs(block).max() for _, _, block in matrix.blocks)
    q_even = q - q // 2
    fork = q_even + asm._fork_row(*asm._halves(matrix))
    blocks = []
    for rows, cols, block in matrix.blocks:
        if odd_blocks and rows.start >= q_even and rows.stop > fork:
            block = block.copy()
            tail = block[max(fork - rows.start, 0) :]
            tail[:] = scale * (rng.normal(size=tail.shape) + 1j * rng.normal(size=tail.shape))
        blocks.append((rows, cols, block))
    rhs = rng.normal(size=q) + 1j * rng.normal(size=q)
    return asm.DesignSystem(asm.BlockMatrix(matrix.shape, tuple(blocks)), rhs, system.rule)


def test_halves_agree_up_to_the_fork_and_share_its_rows_once(parity_cell, monkeypatch):
    # the halves hold the same entries, bit for bit, on the rows before the
    # fork, and the even half's column of the state (0, 0) is zero there;
    # they differ on the fork row, the first whose entries differ.  The
    # shared rows are streamed once, then each half's own rows
    even, odd = asm._halves(parity_cell.matrix)
    fork = asm._fork_row(even, odd)
    assert 0 < fork < odd.shape[0] - 1
    a_even, a_odd = dense(even), dense(odd)
    n_odd = odd.shape[1]
    assert np.array_equal(a_even[:fork, :n_odd], a_odd[:fork]) and not a_even[:fork, n_odd:].any()
    assert not np.array_equal(a_even[fork, :n_odd], a_odd[fork]) or a_even[fork, n_odd:].any()
    ranges = []
    stream = asm._stream

    def recording(a, b, start, stop, *state):
        ranges.append((a.shape, b.shape[1], start, stop))
        return stream(a, b, start, stop, *state)

    monkeypatch.setattr(asm, "_stream", recording)
    asm.solve(parity_cell)
    assert ranges == [
        (even.shape, 2, 0, fork), (even.shape, 1, fork, even.shape[0]), (odd.shape, 1, fork, odd.shape[0]),
    ]


def test_a_fork_one_row_deeper_fails_the_oracle(parity_cell, monkeypatch):
    # on the cell itself the fork row's halves differ by about 1e-16 of the
    # largest entry, so one row too deep moves the triangles by rounding
    # alone; with the odd half's own blocks redrawn, the triangles keep the
    # singular values of their halves only at the fork found
    system = scrambled(parity_cell, odd_blocks=True)
    assert shared_sigma_gap(system) <= 1e-13
    fork_row = asm._fork_row
    monkeypatch.setattr(asm, "_fork_row", lambda even, odd: fork_row(even, odd) + 1)
    assert shared_sigma_gap(system) > 1e-6


def test_the_odd_carry_keeps_the_even_rhs_row(parity_cell, monkeypatch):
    # with [b_E | b_O] streamed together, the QR rotates part of b_O's
    # residual into b_E's row of the carry; without that row the odd
    # triangle's rho, and so the residual, is wrong.  A random right-hand
    # side makes b_E and b_O differ on every row
    system = scrambled(parity_cell, odd_blocks=False)
    a, b = state_matrix(system), state_rhs(system)

    def residual_gap():
        report = asm.solve(system)
        direct = np.linalg.norm(a @ report.coefficients - b)
        return abs(report.residual_norm - direct) / direct

    assert residual_gap() <= 2e-6
    split = asm._split_carry

    def dropping(carry, odd_width):
        even, odd = split(carry, odd_width)
        return even, np.delete(odd, carry.shape[1] - 2, axis=0)

    monkeypatch.setattr(asm, "_split_carry", dropping)
    assert residual_gap() > 2e-6


def test_normal_equation_optimality_on_a_full_rank_folded_cell(hom_cell, monkeypatch):
    # hom (400, 0.336) has full rank and condition number 1.9e5: the
    # halves streamed apart read 9.3e-14 of ||A^H b||, the shared stream
    # 4.3e-14.  A fork one row too deep shares a row whose halves differ by
    # 2.6e-16 of the largest entry and reads 4.8e-14, so no fork error that
    # small shows here; 200 rows too deep (up to 3.9e-8) reads 5.4e-8
    system, _ = hom_cell
    a, b = state_matrix(system), state_rhs(system)
    bound = 1e-11 * np.linalg.norm(a.conj().T @ b)

    def optimality():
        return np.linalg.norm(a.conj().T @ (a @ asm.solve(system).coefficients - b))

    assert optimality() <= bound
    fork_row = asm._fork_row
    monkeypatch.setattr(asm, "_fork_row", lambda even, odd: fork_row(even, odd) + 200)
    assert optimality() > bound
