import math

import numpy as np
import pytest

from gcshelm import problem_model as pm

from helpers import apply_P, closure_coefficients, even_bridge, nu_symbol, nu_triple, pml_sigma_by_order

BREAKPOINTS = (0.5, 0.7, 0.75, 0.8)
BRIDGE = np.polynomial.Polynomial(pm.BRIDGE_COEFFS)


def piecewise_fit_residual(case, breakpoints, x_end=3.5, degree=7):
    """Worst misfit of mu, sigma and rhs*exp(-ikx) by one polynomial per interval."""
    edges = (-x_end, *breakpoints, x_end)
    worst = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        x = np.linspace(lo, hi, 40)[1:-1]
        for vals in (case.mu(x), pm.pml_sigma(x)[0], case.rhs(x) * np.exp(-1j * case.k * x)):
            for part in (np.real(vals), np.imag(vals)):
                fit = np.polynomial.polynomial.Polynomial.fit(x, part, degree)
                worst = max(worst, float(np.max(np.abs(fit(x) - part))))
    return worst


@pytest.mark.parametrize("make", [pm.ProblemCase.homogeneous, pm.ProblemCase.heterogeneous])
def test_case_breakpoints_are_the_coefficient_joints(make):
    # between breakpoints mu, the PML and the source envelope are polynomials
    # of degree <= 7; dropping any breakpoint leaves a joint inside an interval
    case = make(20)
    assert list(case.breakpoints) == sorted(case.breakpoints)
    assert case.breakpoints == tuple(-b for b in reversed(case.breakpoints))
    assert piecewise_fit_residual(case, case.breakpoints) < 1e-9
    for drop in case.breakpoints:
        fewer = tuple(b for b in case.breakpoints if b != drop)
        assert piecewise_fit_residual(case, fewer) > 1e-6, drop


def test_bridge_defining_conditions():
    # exact: the plateaus rely on S(0) = 0, S(1) = 1 and flat ends in floating point
    assert BRIDGE(0.0) == 0.0
    assert BRIDGE(1.0) == 1.0
    for order in (1, 2, 3):
        assert BRIDGE.deriv(order)(0.0) == 0.0
        assert BRIDGE.deriv(order)(1.0) == 0.0
    assert abs(BRIDGE(0.5) - 0.5) < 1e-15


def test_bridge_coefficients_solve_hermite_system():
    # independent oracle: the 8x8 two-point Hermite system
    a = np.zeros((8, 8))
    rhs = np.zeros(8)
    for order in range(4):
        a[order, order] = math.factorial(order)  # S^(order)(0) = 0
        for j in range(order, 8):
            a[4 + order, j] = math.factorial(j) // math.factorial(j - order)
    rhs[4] = 1.0  # S(1) = 1; every other condition is zero
    coeffs = np.linalg.solve(a, rhs)
    assert np.max(np.abs(coeffs - pm.BRIDGE_COEFFS)) < 1e-9
    residual = a @ pm.BRIDGE_COEFFS - rhs
    assert np.max(np.abs(residual)) < 1e-12


def test_bridge_monotone_and_bounds():
    t = np.linspace(0.0, 1.0, 401)
    assert np.all(BRIDGE.deriv()(t) >= -1e-12)
    assert np.all((BRIDGE(t) >= 0.0) & (BRIDGE(t) <= 1.0))


def test_pml_sigma_values():
    assert pm.pml_sigma(0.5) == (0.0, 0.0)
    assert pm.pml_sigma(1.0)[1] == 0.0
    assert abs(pm.pml_sigma(2.0)[0] - 0.1) < 1e-15
    assert abs(pm.pml_sigma(3.5)[0] - 3.90625) < 1e-12
    assert abs(pm.pml_sigma(-3.5)[0] - 3.90625) < 1e-12
    assert pm.pml_sigma(2.0)[1] == 0.4
    # mirrored first derivative is negative on the left branch
    assert pm.pml_sigma(-2.0)[1] == -pm.pml_sigma(2.0)[1]


def test_phi_plateau_and_support():
    assert pm.cutoff_phi(0.0) == 1.0
    assert pm.cutoff_phi(0.49) == 1.0
    assert pm.cutoff_phi(0.8) == 0.0
    assert pm.cutoff_phi(-0.8) == 0.0
    assert abs(pm.cutoff_phi(0.625) - 0.5) < 1e-12  # odd symmetry of the bridge


def test_mu_heterogeneous_plateaus():
    assert pm.mu_heterogeneous(0.0) == 2.0
    assert pm.mu_heterogeneous(0.69) == 2.0
    assert pm.mu_heterogeneous(0.81) == 1.0
    assert pm.mu_heterogeneous(5.0) == 1.0


def bridge_plateau(x, order, lo, hi):
    """d^order/dx^order of 1 on |x| <= lo, S((hi - |x|)/(hi - lo)) up to hi, 0 beyond.

    S is the ``Polynomial`` of ``pm.BRIDGE_COEFFS``, so every order is at hand.
    """
    r, scale = abs(x), 1.0 / (hi - lo)
    if r >= hi:
        return 0.0
    if r <= lo:
        return 1.0 if order == 0 else 0.0
    return BRIDGE.deriv(order)((hi - r) * scale) * (-scale * np.sign(x)) ** order


# name -> (x, order) -> d^order of the plateau: the function itself at the
# orders it takes (cutoff_phi 0-2, mu - 1 order 0), ``bridge_plateau`` above
PLATEAUS = {
    "cutoff_phi": (
        lambda x, order: pm.cutoff_phi(x, order) if order <= 2 else bridge_plateau(x, order, 0.5, 0.75)
    ),
    "mu_heterogeneous": (
        lambda x, order: pm.mu_heterogeneous(x) - 1.0 if order == 0 else bridge_plateau(x, order, 0.7, 0.8)
    ),
}


@pytest.mark.parametrize("name", PLATEAUS)
def test_c3_continuity_at_breakpoints(name):
    # jumps across a junction are bounded by the next derivative's Taylor term
    fn = PLATEAUS[name]
    eps = 1e-9
    for b in BREAKPOINTS:
        for sign in (1.0, -1.0):
            for order in range(3):
                left = fn(sign * b - eps, order)
                right = fn(sign * b + eps, order)
                slope = abs(fn(sign * b - eps, order + 1)) + abs(
                    fn(sign * b + eps, order + 1)
                )
                assert abs(left - right) <= 2 * eps * slope + 1e-9, (b, order)
            # order 3 is continuous but its modulus of continuity is set by
            # the (discontinuous) fourth derivative; probe closer
            eps3 = 1e-12
            d3 = abs(fn(sign * b - eps3, 3) - fn(sign * b + eps3, 3))
            assert d3 < 1e-4, b


def test_evenness_exact():
    x = np.linspace(0.0, 1.2, 241)
    assert np.array_equal(pm.cutoff_phi(x), pm.cutoff_phi(-x))
    assert np.array_equal(pm.mu_heterogeneous(x), pm.mu_heterogeneous(-x))


def test_apply_P_plane_wave_annihilated():
    case = pm.ProblemCase.homogeneous(20)
    x = np.linspace(-0.9, 0.9, 11)
    u = np.exp(1j * 20 * x)
    du = 1j * 20 * u
    d2u = -(400.0) * u
    res = apply_P(case, u, du, d2u, x)
    assert np.max(np.abs(res)) < 1e-13


def test_apply_P_constant_field():
    case = pm.ProblemCase.homogeneous(20)
    x = np.array([-0.3, 0.2])
    out = apply_P(case, np.ones(2, complex), np.zeros(2), np.zeros(2), x)
    assert np.allclose(out, -1.0)


def test_apply_P_pml_region_finite_difference():
    case = pm.ProblemCase.homogeneous(20)
    k = 20.0
    x = 2.0

    def u(t):
        return np.exp(1j * k * t)

    # step balances central-difference truncation against roundoff
    h = 1e-5
    du = (u(x + h) - u(x - h)) / (2 * h)
    d2u = (u(x + h) - 2 * u(x) + u(x - h)) / h**2
    got = apply_P(case, u(x), du, d2u, x)
    exact = apply_P(case, u(x), 1j * k * u(x), -(k**2) * u(x), x)
    assert abs(got - exact) / abs(exact) < 1e-6


def test_physical_region_neutrality():
    # the stretching is inactive on [-1, 1]: nu = 1 and the operator matches
    # the unstretched form there
    case = pm.ProblemCase.homogeneous(30)
    x = np.linspace(-1.0, 1.0, 101)
    assert np.all(pm.pml_sigma(x)[0] == 0.0)
    assert np.all(case.operator().coefficients(x)[0] == -1.0)
    u = np.exp(0.3j * x)
    du = 0.3j * u
    d2u = -0.09 * u
    plain = -u - d2u / 30.0**2
    assert np.max(np.abs(apply_P(case, u, du, d2u, x) - plain)) < 1e-15


def test_symbol_values():
    hom = pm.ProblemCase.homogeneous(30)
    assert abs(hom.symbol(0.0, 1.0)) < 1e-15
    assert abs(hom.symbol(0.5, 0.5) - (-0.75)) < 1e-15
    het = pm.ProblemCase.heterogeneous(30)
    assert abs(het.symbol(0.0, math.sqrt(2.0))) < 1e-14
    # deep PML: xi = 0 stays out of every sublevel set below mu*sqrt(1+sigma^2)
    sigma = pm.pml_sigma(3.0)[0]
    assert abs(abs(hom.symbol(3.0, 0.0)) - math.sqrt(1 + sigma**2)) < 1e-12
    assert abs(hom.symbol(3.0, 0.0)) > 1.0


def test_rhs_homogeneous_vanishes_on_plateau_and_outside():
    case = pm.ProblemCase.homogeneous(40)
    x = np.array([-0.4, 0.0, 0.3])
    assert np.max(np.abs(case.rhs(x))) == 0.0
    assert np.max(np.abs(case.rhs(np.array([1.01, -1.01, 2.0])))) == 0.0


def test_rhs_heterogeneous_plateau():
    case = pm.ProblemCase.heterogeneous(40)
    x = np.array([0.0, 0.35, 0.7])
    expected = np.exp(1j * 40 * x)
    assert np.max(np.abs(case.rhs(x) - expected)) < 1e-14
    assert np.max(np.abs(case.rhs(np.array([0.85, 1.01])))) == 0.0


def test_exact_solution_values():
    case = pm.ProblemCase.homogeneous(25)
    assert abs(case.exact_solution(0.0)[0] - 1.0) < 1e-15
    assert case.exact_solution(0.0)[1] == 25j
    assert case.exact_solution(0.8) == (0.0, 0.0)
    assert case.exact_solution(-0.8) == (0.0, 0.0)
    with pytest.raises(ValueError):
        pm.ProblemCase.heterogeneous(25).exact_solution(0.0)


def test_exact_solution_residual():
    # apply_P on the exact derivative family reproduces the source
    case = pm.ProblemCase.homogeneous(20)
    k = 20.0
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.0, 1.0, 100)
    phi0 = pm.cutoff_phi(x, 0)
    phi1 = pm.cutoff_phi(x, 1)
    phi2 = pm.cutoff_phi(x, 2)
    wave = np.exp(1j * k * x)
    u = phi0 * wave
    du = (phi1 + 1j * k * phi0) * wave
    d2u = (phi2 + 2j * k * phi1 - k**2 * phi0) * wave
    res = apply_P(case, u, du, d2u, x) - case.rhs(x)
    assert np.max(np.abs(res)) < 1e-9


def test_symbol_operator_consistency_on_lattice():
    # |g(x0) - p(x0, xi0)| <= C hbar (1 + xi0**2) with C stable across hbar
    from gcshelm import gaussian_states as gs
    from gcshelm.phase_space import LatticeSpec, build_symbol_set

    ratios = []
    for k in (20.0, 100.0):
        case = pm.ProblemCase.homogeneous(k)
        op = case.operator()
        spec = LatticeSpec(1.0 / k)
        iset = build_symbol_set(spec, case.symbol, 0.8)
        step = max(1, len(iset) // 25)
        for m, n in zip(iset.m[::step], iset.n[::step]):
            s = gs.CoherentState(spec.hbar, m * spec.spacing, n * spec.spacing)
            r0 = gs.apply_operator(s, op, s.x0) / gs.eval_state(s, s.x0) - case.symbol(s.x0, s.xi0)
            ratios.append(abs(r0) / (s.hbar * (1 + s.xi0**2)))
    assert max(ratios) < 3.0


@pytest.mark.parametrize("make", [pm.ProblemCase.homogeneous, pm.ProblemCase.heterogeneous])
def test_operator_and_symbol_match_nu_formulas(make):
    # bit for bit against nu**(-1)*xi**2 - mu*nu and the triple through
    # nu**(-1) and (nu**(-1))', on a grid across both PML sides
    case = make(20)
    x = np.linspace(-3.5, 3.5, 141)[:, None]
    xi = np.linspace(-3.0, 3.0, 61)
    assert np.array_equal(case.symbol(x, xi), nu_symbol(case, x, xi))
    op = case.operator()
    for got, want in zip(op.coefficients(x), nu_triple(case, x)):
        assert np.array_equal(got, want)
    assert np.array_equal(case.symbol(-2.0, 1.5), nu_symbol(case, -2.0, 1.5))


def test_first_order_coefficient_is_divergence_form():
    # b = -1j*hbar*a', the condition under which the FEM weak form with
    # stiffness -a/k**2 and mass -c discretises P_k
    for case in (pm.ProblemCase.homogeneous(20), pm.ProblemCase.heterogeneous(50)):
        op = case.operator()
        x = np.array([-2.5, -1.5, -1.1, 0.3, 1.1, 1.5, 2.5])
        h = 1e-6
        fd = (op.coefficients(x + h)[0] - op.coefficients(x - h)[0]) / (2 * h)
        b = op.coefficients(x)[1]
        assert np.max(np.abs(b - (-1j / case.k) * fd)) < 1e-7 * np.max(np.abs(b))


def test_case_validation():
    with pytest.raises(ValueError):
        pm.ProblemCase.homogeneous(0.5)
    with pytest.raises(ValueError):
        pm.ProblemCase.from_name("unknown", 20)


def test_rhs_bit_identical_to_closed_forms():
    k = 50.0
    x = np.linspace(-1.2, 1.2, 241)
    wave = np.exp(1j * k * x)
    hom = -(pm.cutoff_phi(x, 2) + 2j * k * pm.cutoff_phi(x, 1)) * wave / k**2
    het = (pm.mu_heterogeneous(x) - 1.0) * wave
    assert np.array_equal(pm.ProblemCase.homogeneous(k).rhs(x), hom)
    assert np.array_equal(pm.ProblemCase.heterogeneous(k).rhs(x), het)
    assert pm.ProblemCase.heterogeneous(k).rhs(x[135]) == het[135]


# every breakpoint and its float neighbours, +-0.0, +-3.5 and a grid between
_JOINTS = np.array([0.5, 0.7, 0.75, 0.8, 1.0, -0.5, -0.7, -0.75, -0.8, -1.0])
ORACLE_X = np.concatenate(
    [
        np.linspace(-3.5, 3.5, 7001),
        [0.0, -0.0, 3.5, -3.5],
        _JOINTS,
        np.nextafter(_JOINTS, -np.inf),
        np.nextafter(_JOINTS, np.inf),
    ]
)


def test_plateaus_and_pml_match_masked_forms():
    # the clipped polynomial plateaus and the (sigma, sigma') pair, bit for
    # bit against the masked forms they replaced, arrays and scalars
    for order in range(3):
        assert np.array_equal(pm.cutoff_phi(ORACLE_X, order), even_bridge(ORACLE_X, order, 0.5, 0.75))
    assert np.array_equal(pm.mu_heterogeneous(ORACLE_X), even_bridge(ORACLE_X, 0, 0.7, 0.8) + 1.0)
    sigma, dsigma = pm.pml_sigma(ORACLE_X)
    assert np.array_equal(sigma, pml_sigma_by_order(ORACLE_X))
    assert np.array_equal(dsigma, pml_sigma_by_order(ORACLE_X, 1))
    for x in (-3.5, -0.75, -0.0, 0.0, 0.6, 1.5):
        assert pm.cutoff_phi(x, 1) == even_bridge(x, 1, 0.5, 0.75)
        assert pm.pml_sigma(x) == (pml_sigma_by_order(x), pml_sigma_by_order(x, 1))
    with pytest.raises(ValueError):
        pm.cutoff_phi(0.0, 3)


@pytest.mark.parametrize("name", ["homogeneous", "heterogeneous"])
@pytest.mark.parametrize("k", [20.0, 100.0])
def test_operator_coefficients_match_closures(name, k):
    # one coefficient function, bit for bit against the three closures that
    # each evaluated sigma themselves
    case = pm.ProblemCase.from_name(name, k)
    got = case.operator().coefficients(ORACLE_X)
    for g, f in zip(got, closure_coefficients(case)):
        assert np.array_equal(g, f(ORACLE_X))
