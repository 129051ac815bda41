import math

import numpy as np
import pytest

from gcshelm import phase_space as ps
from gcshelm.problem_model import ProblemCase


def test_lattice_point_values():
    assert ps.lattice_point(0, ps.LatticeSpec(0.37)) == 0.0
    assert abs(ps.lattice_point(1, ps.LatticeSpec(1.0 / math.pi)) - 1.0) < 1e-15
    # lattice step for k = 400 (matches the published phase-space chart)
    assert abs(ps.lattice_point(1, ps.LatticeSpec(1.0 / 400.0)) - 0.08862269254527) < 1e-12


def test_lattice_spec_invariants():
    spec = ps.LatticeSpec(0.05)
    assert abs(spec.spacing**2 - math.pi * 0.05) < 1e-16
    with pytest.raises(ValueError):
        ps.LatticeSpec(0.0)


def test_symbol_set_figure_geometry_k400():
    # delta = 0.1 keeps exactly the two frequency lines xi = +-0.974849617998
    case = ProblemCase.homogeneous(400)
    spec = ps.LatticeSpec(1.0 / 400.0)
    iset = ps.build_symbol_set(spec, case.symbol, 0.1)
    xis = np.unique(np.round(np.abs(iset.xi_array()), 10))
    assert xis.size == 1
    assert abs(xis[0] - 0.974849617998) < 1e-10
    assert set(np.unique(iset.n_array())) == {-11, 11}


def test_symbol_set_strictness_empty_sublevel():
    # |xi**2 - 1| < delta with delta -> 0+ selects nothing on a generic lattice
    spec = ps.LatticeSpec(1.0 / 37.0)

    def symbol(x, xi):
        return xi**2 - 1.0 + 0.0 * x

    iset = ps.build_symbol_set(spec, symbol, 1e-12, bounds=(4, 40))
    assert len(iset) == 0


def test_symbol_set_counts_frozen():
    # regression values for this implementation's strict-< rule, each equal to
    # a brute-force count of |p(x_m, xi_n)| < delta over a box whose shell has
    # |p| >= delta; the paper's table counts are checked (and missed at
    # homogeneous k <= 50 and heterogeneous k = 20) in acceptance
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
        iset = ps.build_symbol_set(ps.LatticeSpec(1.0 / k), case.symbol, delta)
        assert len(iset) == count


def test_symbol_set_monotone_in_delta():
    case = ProblemCase.homogeneous(50)
    spec = ps.LatticeSpec(1.0 / 50.0)
    sets = [
        {(p.m, p.n) for p in ps.build_symbol_set(spec, case.symbol, d)}
        for d in (0.5, 1.0, 2.0)
    ]
    assert sets[0] <= sets[1] <= sets[2]


def test_symbol_set_stable_under_bound_enlargement():
    case = ProblemCase.homogeneous(50)
    spec = ps.LatticeSpec(1.0 / 50.0)
    base = ps.build_symbol_set(spec, case.symbol, 1.0)
    bounds = ps.search_bounds_from_symbol(case.symbol, 1.0, spec)
    bigger = ps.build_symbol_set(
        spec, case.symbol, 1.0, bounds=(2 * bounds[0], 2 * bounds[1])
    )
    assert base.members == bigger.members


def test_symbol_set_boundary_touch_raises():
    case = ProblemCase.homogeneous(50)
    spec = ps.LatticeSpec(1.0 / 50.0)
    with pytest.raises(ValueError, match="boundary"):
        ps.build_symbol_set(spec, case.symbol, 1.0, bounds=(30, 5))


def test_planewave_set_boundary_inclusion():
    # hbar = 1 makes the tolerance 1, so (0, 0) sits exactly on the band edge
    spec = ps.LatticeSpec(1.0)
    iset = ps.build_planewave_rhs_set(spec, (-1.0, 1.0), 1e-9)
    assert (0, 0) in {(p.m, p.n) for p in iset}


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


def test_search_bounds_cover_characteristic_band():
    spec = ps.LatticeSpec(1.0 / 50.0)
    hom = ProblemCase.homogeneous(50)
    m_max, n_max = ps.search_bounds_from_symbol(hom.symbol, 0.5, spec)
    assert n_max * spec.spacing >= math.sqrt(1.5)
    het = ProblemCase.heterogeneous(50)
    m2, n2 = ps.search_bounds_from_symbol(het.symbol, 0.5, spec)
    assert n2 * spec.spacing >= math.sqrt(2.5)


def test_search_bounds_terminate_in_pml():
    # sigma growth pushes |p| above any fixed delta, so the doubling exits
    spec = ps.LatticeSpec(1.0 / 20.0)
    case = ProblemCase.homogeneous(20)
    m_max, n_max = ps.search_bounds_from_symbol(case.symbol, 2.0, spec)
    x_edge = m_max * spec.spacing
    assert abs(complex(case.symbol(x_edge, 0.0))) >= 2.0
    with pytest.raises(RuntimeError):
        ps.search_bounds_from_symbol(lambda x, xi: 0.0 * x * xi, 1.0, spec, max_doublings=3)


def test_index_set_duplicate_and_order_validation():
    spec = ps.LatticeSpec(0.1)
    with pytest.raises(ValueError):
        ps.IndexSet((ps.IndexPair(0, 0), ps.IndexPair(0, 0)), spec)
    with pytest.raises(ValueError):
        ps.IndexSet((ps.IndexPair(1, 0), ps.IndexPair(0, 0)), spec)
