import math

import numpy as np
import pytest

from gcshelm import phase_space as ps
from gcshelm.experiments import DEFAULT_SCALING_DELTAS
from gcshelm.gaussian_states import SecondOrderOperator, constant_operator
from gcshelm.problem_model import ProblemCase

from helpers import box_symbol_set, pairs_of

# the deltas of the table cells of both cases and of the benchmark cells
TABLE_DELTAS = (2.0, 1.0, 0.8, 0.6, 0.336, 12.0, 6.0, 4.0)


def test_lattice_point_values():
    # lattice index m sits at m * spacing, for positions and frequencies alike
    assert abs(ps.LatticeSpec(1.0 / math.pi).spacing - 1.0) < 1e-15
    # lattice step for k = 400 (matches the published phase-space chart)
    assert abs(ps.LatticeSpec(1.0 / 400.0).spacing - 0.08862269254527) < 1e-12


def test_lattice_spec_invariants():
    spec = ps.LatticeSpec(0.05)
    assert abs(spec.spacing**2 - math.pi * 0.05) < 1e-16
    with pytest.raises(ValueError):
        ps.LatticeSpec(0.0)


def test_symbol_set_figure_geometry_k400():
    # delta = 0.1 keeps exactly the two frequency lines xi = +-0.974849617998
    case = ProblemCase.homogeneous(400)
    spec = ps.LatticeSpec(1.0 / 400.0)
    iset = ps.build_symbol_set(spec, case.operator(), 0.1)
    xis = np.unique(np.round(np.abs(iset.xi_array()), 10))
    assert xis.size == 1
    assert abs(xis[0] - 0.974849617998) < 1e-10
    assert set(np.unique(iset.n)) == {-11, 11}


def test_symbol_set_strictness_empty_sublevel():
    # |xi**2 - 1| < delta with delta -> 0+ selects nothing on a generic lattice
    spec = ps.LatticeSpec(1.0 / 37.0)
    rows = np.arange(-4, 5)
    op = constant_operator(-1.0, 0.0, -1.0)
    a, _, c = op.coefficients(rows * spec.spacing)
    bounds = (rows, np.full_like(rows, 40), a, c)
    iset = ps.build_symbol_set(spec, op, 1e-12, bounds=bounds)
    assert len(iset) == 0


@pytest.mark.parametrize("hbar", [1.0 / 400.0, 1.0 / 37.0], ids=["hbar-1/400", "hbar-1/37"])
def test_symbol_set_keeps_pairs_one_ulp_inside_delta(hbar):
    # p = xi**2 - 1 on the rows |x| <= 1.2, closed beyond: at delta one ulp
    # above |p(0, xi_n)| the pair (0, n) is kept, at delta = |p| it is not;
    # the computed root lands within rounding of n*h, which the bound's one
    # step of widening absorbs
    def coefficients(x):
        c = np.where(np.abs(x) <= 1.2, -1.0, 1e3) + 0j
        return np.full(np.shape(x), -1.0 + 0j), np.zeros(np.shape(x), dtype=complex), c

    op = SecondOrderOperator(coefficients)
    spec = ps.LatticeSpec(hbar)
    n = np.arange(1, int(3.0 / spec.spacing))
    for ni, p in zip(n, np.abs(ps.principal_symbol(-1.0 + 0j, -1.0 + 0j, n * spec.spacing))):
        kept = ps.build_symbol_set(spec, op, np.nextafter(p, np.inf))
        assert ni in kept.n[kept.m == 0], ni
        strict = ps.build_symbol_set(spec, op, p)
        assert ni not in strict.n[strict.m == 0], ni


def test_symbol_set_counts_frozen():
    # regression values for this implementation's strict-< rule, each equal to
    # the count of |p(x_m, xi_n)| < delta that ``box_symbol_set`` finds on a
    # box whose shell has |p| >= 1.1 delta; the paper's table counts are
    # checked (and missed at homogeneous k <= 50 and heterogeneous k = 20) in
    # acceptance
    expected = {
        (ProblemCase.homogeneous, 20, 2.0): 131,
        (ProblemCase.homogeneous, 50, 1.0): 198,
        (ProblemCase.homogeneous, 100, 0.8): 262,
        (ProblemCase.homogeneous, 200, 0.6): 354,
        (ProblemCase.heterogeneous, 20, 12.0): 455,
        (ProblemCase.heterogeneous, 50, 6.0): 657,
        (ProblemCase.heterogeneous, 100, 4.0): 985,
    }
    for (make_case, k, delta), count in expected.items():
        case = make_case(k)
        iset = ps.build_symbol_set(ps.LatticeSpec(1.0 / k), case.operator(), delta)
        assert len(iset) == count


def test_symbol_set_monotone_in_delta():
    case = ProblemCase.homogeneous(50)
    spec = ps.LatticeSpec(1.0 / 50.0)
    sets = [pairs_of(ps.build_symbol_set(spec, case.operator(), d)) for d in (0.5, 1.0, 2.0)]
    assert sets[0] <= sets[1] <= sets[2]


@pytest.mark.parametrize("name", ("homogeneous", "heterogeneous"))
def test_symbol_set_matches_the_box_oracle(name):
    # 216 sets per case at k = 20..800, and every third scaling delta at
    # k = 1600 and 3200: the same (m, n) arrays as thresholding the box
    deltas = DEFAULT_SCALING_DELTAS + TABLE_DELTAS
    cells = [(k, d) for k in (20, 50, 100, 200, 400, 800) for d in deltas]
    cells += [(k, d) for k in (1600, 3200) for d in DEFAULT_SCALING_DELTAS[::3]]
    for k, delta in cells:
        case = ProblemCase.from_name(name, k)
        spec = ps.LatticeSpec(1.0 / k)
        got = ps.build_symbol_set(spec, case.operator(), delta)
        want = box_symbol_set(spec, case.symbol, delta)
        assert np.array_equal(got.m, want.m) and np.array_equal(got.n, want.n), (k, delta)


@pytest.mark.parametrize("name", ("homogeneous", "heterogeneous"))
@pytest.mark.parametrize("k", (20, 100, 400))
def test_bounds_end_at_the_first_closed_row_past_one(name, k):
    case = ProblemCase.from_name(name, k)
    spec = ps.LatticeSpec(1.0 / k)
    xi = np.linspace(0.0, 4.0, 40001)

    def row_min(mi):
        return np.abs(case.symbol(mi * spec.spacing, xi)).min()

    for delta in DEFAULT_SCALING_DELTAS + TABLE_DELTAS:
        bounds = ps.search_bounds_from_symbol(case.operator(), delta, spec)
        m, hi, a, c = bounds
        assert np.array_equal(m, np.arange(-m[-1], m[-1] + 1))
        # the outermost kept rows lie past |x| = 1 and are open, the next are closed
        assert m[-1] * spec.spacing > 1.0
        assert row_min(m[-1]) < delta <= row_min(m[-1] + 1), delta
        assert row_min(m[0]) < delta <= row_min(m[0] - 1), delta
        # the rows' samples are the operator's on x_m, bit for bit
        want_a, _, want_c = case.operator().coefficients(m * spec.spacing)
        assert np.array_equal(a, want_a) and np.array_equal(c, want_c)
        # every selected n lies within its row's bound
        iset = ps.build_symbol_set(spec, case.operator(), delta, bounds=bounds)
        assert np.all(np.abs(iset.n) <= hi[iset.m - m[0]])


def test_rows_with_a_zero_raise_unless_closed():
    # with a = 0, |p| = |c| at every frequency: the row is empty or unbounded
    spec = ps.LatticeSpec(1.0 / 20.0)
    with pytest.raises(ValueError, match="a = 0"):
        ps.build_symbol_set(spec, constant_operator(0.0, 0.0, -0.5), 1.0)
    assert len(ps.build_symbol_set(spec, constant_operator(0.0, 0.0, -2.0), 1.0)) == 0


def test_rows_that_never_close_raise():
    # min over xi of |xi**2 - 1| is 0 on every row
    spec = ps.LatticeSpec(1.0 / 20.0)
    with pytest.raises(ValueError, match="never close"):
        ps.build_symbol_set(spec, constant_operator(-1.0, 0.0, -1.0), 1.0)


def test_row_minimum_dipping_below_delta_again_raises():
    # p = xi**2 + 10 closes the rows on 1 < |x| < 2; beyond, p = xi**2 - 1 opens them again
    def coefficients(x):
        x = np.asarray(x, dtype=float)
        c = np.where((np.abs(x) > 1.0) & (np.abs(x) < 2.0), 10.0, -1.0) + 0j
        return np.full(x.shape, -1.0 + 0j), np.zeros(x.shape, dtype=complex), c

    spec = ps.LatticeSpec(1.0 / 20.0)
    with pytest.raises(ValueError, match="again"):
        ps.build_symbol_set(spec, SecondOrderOperator(coefficients), 1.0)


def test_planewave_set_boundary_inclusion():
    # hbar = 1 makes the tolerance 1, so (0, 0) sits exactly on the band edge
    spec = ps.LatticeSpec(1.0)
    iset = ps.build_planewave_rhs_set(spec, (-1.0, 1.0), 1e-9)
    assert (0, 0) in pairs_of(iset)


def test_planewave_set_band_halfwidth():
    hbar, eps = 1.0 / 100.0, 0.1
    spec = ps.LatticeSpec(hbar)
    tol = hbar ** (0.5 - eps)
    assert abs(tol - 0.15848931924611134) < 1e-15
    iset = ps.build_planewave_rhs_set(spec, (-1.0, 1.0), eps)
    xs = iset.x_array()
    assert xs.max() <= 1.0 + tol + 1e-12
    # the outermost admissible lattice column is included
    assert xs.max() > 1.0 + tol - spec.spacing
    # the documented band, enumerated pair by pair over a box around it
    h = spec.spacing
    box = range(-math.ceil((1.0 + tol) / h) - 2, math.ceil((1.0 + tol) / h) + 3)
    band = {
        (m, n)
        for m in box
        for n in box
        if max(abs(m * h) - 1.0, 0.0) <= tol and abs(abs(n * h) - 1.0) <= tol
    }
    assert pairs_of(iset) == band


def test_planewave_set_count_scaling():
    eps = 0.1
    hbars, counts = [], []
    for k in (50, 100, 200, 400):
        iset = ps.build_planewave_rhs_set(ps.LatticeSpec(1.0 / k), (-1.0, 1.0), eps)
        hbars.append(1.0 / k)
        counts.append(len(iset))
    slope = np.polyfit(np.log(hbars), np.log(counts), 1)[0]
    assert abs(slope - (-(0.5 + 2 * eps))) < 0.15


def test_planewave_set_validation():
    spec = ps.LatticeSpec(0.01)
    with pytest.raises(ValueError):
        ps.build_planewave_rhs_set(spec, (1.0, 1.0), 0.1)
    with pytest.raises(ValueError):
        ps.build_planewave_rhs_set(spec, (-1.0, 1.0), 0.7)


def test_index_set_duplicate_and_order_validation():
    spec = ps.LatticeSpec(0.1)
    with pytest.raises(ValueError, match="duplicate"):
        ps.IndexSet(np.array([0, 0]), np.array([0, 0]), spec)
    with pytest.raises(ValueError, match="sorted"):
        ps.IndexSet(np.array([1, 0]), np.array([0, 0]), spec)
    with pytest.raises(ValueError, match="sorted"):
        ps.IndexSet(np.array([0, 0]), np.array([1, -1]), spec)
    with pytest.raises(ValueError, match="equal length"):
        ps.IndexSet(np.array([0, 1]), np.array([0]), spec)
    assert len(ps.IndexSet(np.array([-1, 0, 0, 2]), np.array([5, -3, 1, -7]), spec)) == 4
