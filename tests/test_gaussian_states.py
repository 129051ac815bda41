import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcshelm import analysis
from gcshelm import gaussian_states as gs
from gcshelm import quadrature as quad
from gcshelm.phase_space import LatticeSpec
from gcshelm.problem_model import ProblemCase

from helpers import (
    apply_P,
    constant_symbol,
    derivative_blocks,
    inner_product,
    iterated_residual_norm,
    norm,
    operator_pair_inner,
    overlap,
    support_window,
)

HBAR = 1.0 / 50.0

finite_real = st.floats(-2.0, 2.0, allow_nan=False)


def state_rule(*states, density=80):
    k = 1.0 / states[0].hbar
    return quad.build_rule(support_window(states), k, density)


def residual(s, op, symbol, x):
    """(P - p(x0, xi0)) Psi at x for the symbol p, from the per-state reference."""
    return gs.apply_operator(s, op, x) - complex(symbol(s.x0, s.xi0)) * gs.eval_state(s, x)


def test_eval_state_center_value():
    s = gs.CoherentState(HBAR, 0.3, 1.2)
    v = gs.eval_state(s, 0.3)
    assert abs(v.imag) == 0.0
    assert abs(v.real - (math.pi * HBAR) ** -0.25) < 1e-14


@given(xi0=finite_real, dx=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_eval_state_modulus_even(xi0, dx):
    s = gs.CoherentState(HBAR, 0.1, xi0)
    left = abs(gs.eval_state(s, 0.1 - dx))
    right = abs(gs.eval_state(s, 0.1 + dx))
    assert abs(left - right) <= 1e-12 * max(left, 1e-300)


def test_eval_state_unit_norm():
    s = gs.CoherentState(HBAR, -0.4, 0.9)
    rule = state_rule(s)
    val = inner_product(lambda x: gs.eval_state(s, x), lambda x: gs.eval_state(s, x), rule)
    assert abs(val - 1.0) < 1e-12


def test_eval_derivative_order_zero_and_one():
    s = gs.CoherentState(HBAR, 0.2, 1.4)
    x = np.array([0.1, 0.2, 0.5])
    assert np.allclose(gs.eval_derivative(s, 0, x), gs.eval_state(s, x))
    # Gaussian factor has zero slope at the center
    v1 = gs.eval_derivative(s, 1, 0.2)
    expected = 1j * s.xi0 / s.hbar * gs.eval_state(s, 0.2)
    assert abs(v1 - expected) < 1e-12 * abs(expected)


def test_eval_derivative_matches_finite_difference():
    s = gs.CoherentState(HBAR, 0.0, 1.0)
    x0 = 0.13
    h = 1e-5 * math.sqrt(s.hbar)
    fd = (gs.eval_state(s, x0 + h) - 2 * gs.eval_state(s, x0) + gs.eval_state(s, x0 - h)) / h**2
    an = gs.eval_derivative(s, 2, x0)
    assert abs(fd - an) / abs(an) < 1e-6


def test_eval_derivative_rejects_high_order():
    s = gs.CoherentState(HBAR, 0.0, 0.0)
    with pytest.raises(ValueError):
        gs.eval_derivative(s, 5, 0.0)


def test_overlap_self_is_one():
    s = gs.CoherentState(HBAR, 0.7, -1.1)
    assert abs(overlap(s, s) - 1.0) < 1e-15


def test_overlap_frequency_shift_modulus():
    spacing = math.sqrt(math.pi * HBAR)
    s1 = gs.CoherentState(HBAR, 0.2, 0.5)
    s2 = gs.CoherentState(HBAR, 0.2, 0.5 + 2 * spacing)
    assert abs(abs(overlap(s1, s2)) - math.exp(-math.pi)) < 1e-14


@given(x1=finite_real, xi1=finite_real, x2=finite_real, xi2=finite_real)
@settings(max_examples=50, deadline=None)
def test_overlap_modulus_law(x1, xi1, x2, xi2):
    s1 = gs.CoherentState(HBAR, x1, xi1)
    s2 = gs.CoherentState(HBAR, x2, xi2)
    expected = math.exp(-((x1 - x2) ** 2 + (xi1 - xi2) ** 2) / (4 * HBAR))
    assert abs(abs(overlap(s1, s2)) - expected) <= 1e-12


def test_overlap_requires_matching_hbar():
    with pytest.raises(ValueError):
        overlap(gs.CoherentState(0.1, 0, 0), gs.CoherentState(0.2, 0, 0))


def test_overlap_matches_quadrature():
    s1 = gs.CoherentState(HBAR, 0.15, 0.85)
    s2 = gs.CoherentState(HBAR, -0.2, 1.3)
    rule = state_rule(s1, s2, density=120)
    val = inner_product(lambda x: gs.eval_state(s1, x), lambda x: gs.eval_state(s2, x), rule)
    assert abs(val - overlap(s1, s2)) < 1e-12


def test_apply_operator_identity():
    s = gs.CoherentState(HBAR, 0.3, -0.7)
    op = gs.constant_operator(0.0, 0.0, 1.0)
    x = np.linspace(-0.5, 1.0, 7)
    assert np.allclose(gs.apply_operator(s, op, x), gs.eval_state(s, x))


def test_apply_operator_free_symbol_at_center():
    # -hbar**2 Psi'' at the center equals (xi0**2 + hbar) Psi
    s = gs.CoherentState(HBAR, 0.0, 1.3)
    op = gs.constant_operator(-1.0, 0.0, 0.0)
    got = gs.apply_operator(s, op, 0.0)
    expected = (s.xi0**2 + s.hbar) * gs.eval_state(s, 0.0)
    assert abs(got - expected) < 1e-13 * abs(expected)


def test_apply_operator_matches_model_operator():
    # full PML operator applied analytically vs coefficient-wise application
    case = ProblemCase.homogeneous(50)
    op = case.operator()
    s = gs.CoherentState(1.0 / 50.0, 1.9, 1.0)
    x = np.array([1.7, 1.95, 2.2])
    h = 1e-5 * math.sqrt(s.hbar)
    u0 = gs.eval_state(s, x)
    d1 = (gs.eval_state(s, x + h) - gs.eval_state(s, x - h)) / (2 * h)
    d2 = (gs.eval_state(s, x + h) - 2 * u0 + gs.eval_state(s, x - h)) / h**2
    fd = apply_P(case, u0, d1, d2, x)
    an = gs.apply_operator(s, op, x)
    assert np.max(np.abs(fd - an) / np.abs(an)) < 1e-6


def test_residual_factor_constant_coefficients():
    # exact identity: r = -a*hbar - 1j*(2*a*xi0 + b)*u + a*u**2 for the
    # operator triple (a, b, c) under the substitution symbol
    hbar = 0.07
    s = gs.CoherentState(hbar, 0.1, 0.9)
    a, b, c = -1.3 + 0.2j, 0.4 - 0.1j, -2.0 + 0.05j
    op = gs.constant_operator(a, b, c)
    x = np.array([0.1, 0.18, -0.05])
    u = x - s.x0
    expected = -a * hbar - 1j * (2 * a * s.xi0 + b) * u + a * u**2
    r = residual(s, op, constant_symbol(op), x)
    assert np.max(np.abs(r - expected * gs.eval_state(s, x))) < 1e-14


def test_residual_factor_center_value_model_operator():
    # only the trace-like hbar term survives at the center in the interior
    case = ProblemCase.homogeneous(100)
    op = case.operator()
    s = gs.CoherentState(1.0 / 100.0, 0.0, 1.0)
    r0 = residual(s, op, case.symbol, 0.0) / gs.eval_state(s, 0.0)
    assert abs(r0 - s.hbar) < 1e-12


def test_residual_norm_scaling_quadrature():
    # || r Psi || ~ sqrt(hbar) for the interior operator at (0, 1)
    norms, hbars = [], []
    for p in range(4, 9):
        hbar = 2.0**-p
        case = ProblemCase.homogeneous(1.0 / hbar)
        op = case.operator()
        s = gs.CoherentState(hbar, 0.0, 1.0)
        rule = state_rule(s, density=60)
        val = norm(lambda x: residual(s, op, case.symbol, x), rule)
        norms.append(val)
        hbars.append(hbar)
    slope = np.polyfit(np.log(hbars), np.log(norms), 1)[0]
    assert abs(slope - 0.5) < 0.05


def test_iterated_residual_norm_free_case_closed_form():
    # L=1, (x0, xi0) = (0, 0), P = -hbar**2 d2: r = hbar - u**2 and
    # ||r Psi||**2 = 3/4 hbar**2 by Gaussian moments
    hbar = 0.05
    s = gs.CoherentState(hbar, 0.0, 0.0)
    op = gs.constant_operator(-1.0, 0.0, 0.0)
    val = iterated_residual_norm(s, op, 1)
    assert abs(val - math.sqrt(0.75) * hbar) < 1e-14


def test_iterated_residual_norm_matches_quadrature():
    hbar = 1.0 / 64.0
    s = gs.CoherentState(hbar, 0.0, 1.0)
    op = gs.constant_operator(-1.0, 0.0, -1.0)
    exact = iterated_residual_norm(s, op, 1)
    rule = state_rule(s, density=60)
    qval = norm(lambda x: residual(s, op, constant_symbol(op), x), rule)
    assert abs(exact - qval) < 1e-12


def test_iterated_residual_norm_L2_matches_quadrature():
    # (P - p0)**2 = sum_o c_o d^o with e = c - p0 for constant (a, b, c)
    a, b, c = -1.3 + 0.2j, 0.4 - 0.1j, -2.0 + 0.05j
    op = gs.constant_operator(a, b, c)
    for hbar, x0, xi0 in ((1.0 / 64.0, 0.0, 1.0), (1.0 / 40.0, 0.3, -0.8)):
        s = gs.CoherentState(hbar, x0, xi0)
        e = c - complex(constant_symbol(op)(x0, xi0))
        coeffs = [
            e * e,
            2j * hbar * b * e,
            2 * hbar**2 * a * e - hbar**2 * b * b,
            2j * hbar**3 * a * b,
            hbar**4 * a * a,
        ]
        rule = state_rule(s, density=120)
        qval = norm(lambda x: sum(co * gs.eval_derivative(s, o, x) for o, co in enumerate(coeffs)), rule)
        assert abs(iterated_residual_norm(s, op, 2) - qval) <= 1e-12 * qval


def test_closed_forms_need_constant_coefficients():
    op = ProblemCase.homogeneous(50).operator()
    s = gs.CoherentState(1.0 / 50.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="constant-coefficient"):
        analysis.quasi_orthogonality_probe(LatticeSpec(1.0 / 50.0), op)
    with pytest.raises(ValueError, match="constant-coefficient"):
        iterated_residual_norm(s, op, 1)


def test_iterated_residual_norm_scaling_and_monotonicity():
    op = gs.constant_operator(-1.0, 0.0, -1.0)
    for L in (1, 2, 3):
        hbars = [2.0**-p for p in range(4, 11)]
        vals = [
            iterated_residual_norm(gs.CoherentState(h, 0.0, 1.0), op, L) for h in hbars
        ]
        slope = np.polyfit(np.log(hbars), np.log(vals), 1)[0]
        assert abs(slope - L / 2.0) < 0.1
    s = gs.CoherentState(1e-2, 0.0, 1.0)
    assert iterated_residual_norm(s, op, 2) <= iterated_residual_norm(s, op, 1)


def test_iterated_residual_norm_validates_L():
    s = gs.CoherentState(0.05, 0.0, 0.0)
    op = gs.constant_operator(-1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        iterated_residual_norm(s, op, 4)


def test_gaussian_moment_bounds():
    # integrals of |x^beta d^gamma G(x - x0)| with G = hbar^{-1/2} e^{-y^2/hbar}
    # scale like hbar^{-gamma/2} (hbar^{beta/2} + |x0|^beta)
    def moment(hbar, beta, gamma, x0):
        y = np.linspace(-14 * math.sqrt(hbar), 14 * math.sqrt(hbar), 4001)
        g = np.exp(-(y**2) / hbar) / math.sqrt(hbar)
        if gamma == 1:
            g = np.abs(-2 * y / hbar) * g
        elif gamma == 2:
            g = np.abs(4 * y**2 / hbar**2 - 2 / hbar) * g
        vals = np.abs((y + x0) ** beta) * g
        return np.trapezoid(vals, y)

    hbars = [2.0**-p for p in range(4, 10)]
    for beta in range(3):
        for gamma in range(3):
            for x0, expo in ((0.7, -gamma / 2), (0.0, (beta - gamma) / 2)):
                vals = [moment(h, beta, gamma, x0) for h in hbars]
                slope = np.polyfit(np.log(hbars), np.log(vals), 1)[0]
                assert abs(slope - expo) < 0.1, (beta, gamma, x0, slope)


def test_operator_pair_inner_matches_quadrature():
    # the real Helmholtz triple from the origin, and a complex triple with
    # b != 0 from a state off the origin
    hbar = 1.0 / 100.0
    spacing = math.sqrt(math.pi * hbar)
    cases = [
        (gs.constant_operator(-1.0, 0.0, -1.0), (0, 0)),
        (gs.constant_operator(-1.3 + 0.2j, 0.4 - 0.1j, -2.0 + 0.05j), (1, -2)),
    ]
    for op, (m1, n1) in cases:
        s1 = gs.CoherentState(hbar, m1 * spacing, n1 * spacing)
        for dm, dn in [(2, 0), (0, 2), (1, 1), (3, 2)]:
            s2 = gs.CoherentState(hbar, (m1 + dm) * spacing, (n1 + dn) * spacing)
            xi_max = max(abs(s1.xi0), abs(s2.xi0))
            rule = state_rule(s1, s2, density=max(120, int(40 * (xi_max + 1))))
            qv = inner_product(
                lambda x: gs.apply_operator(s1, op, x), lambda x: gs.eval_state(s2, x), rule
            )
            cv = operator_pair_inner(op, s1, s2)
            assert abs(qv - cv) < 1e-12


def test_state_blocks_match_per_state_derivatives():
    # every kernel path (the state and an operator's multiplier, constant
    # and heterogeneous) and the derivative blocks of orders 1-4 built on it
    # against the per-state reference, for states off the lattice positions
    # at HBAR and on the lattice of hbar = 1/100, on nodes that hold the
    # centres; frequencies are lattice ones, n * sqrt(pi*hbar)
    h = math.sqrt(math.pi / 100.0)
    state_sets = [
        (HBAR, np.array([-0.3, -0.3, 0.0, 0.4, 0.4, 0.4]), np.array([-4, 2, 0, -3, -2, 4])),
        (1.0 / 100.0, h * np.array([-3, -3, 0, 2, 2, 2]), np.array([-4, 1, 0, -2, 3, 6])),
    ]
    paths = [(order, None) for order in range(gs.MAX_DERIVATIVE_ORDER + 1)]
    paths += [(0, gs.constant_operator(-1.0, 0.0, -1.0)), (0, ProblemCase.heterogeneous(100.0).operator())]
    for hbar, x0, n in state_sets:
        x = np.sort(np.concatenate([np.linspace(-3.5, 3.5, 1401), x0]))
        for order, op in paths:
            dense = np.zeros((x.size, x0.size), dtype=complex)
            if op is None:
                blocks = derivative_blocks(hbar, x0, n, x, order)
            else:
                blocks = gs.state_blocks(hbar, x0, n, x, op=op)
            for rows, cols, block in blocks:
                dense[rows, cols] = block
            for j in range(x0.size):
                state = gs.CoherentState(hbar, x0[j], n[j] * math.sqrt(math.pi * hbar))
                ref = gs.eval_derivative(state, order, x) if op is None else gs.apply_operator(state, op, x)
                near = np.abs(x - x0[j]) <= gs.WINDOW_SIGMAS * math.sqrt(hbar)
                assert np.max(np.abs(dense[near, j] - ref[near])) <= 1e-12 * np.max(np.abs(ref))
                assert not np.any(dense[~near, j])
    with pytest.raises(ValueError):
        next(gs.state_blocks(HBAR, x0, n, x[::-1]))
    with pytest.raises(TypeError):
        next(gs.state_blocks(HBAR, x0, n * 1.0, x))


@pytest.mark.parametrize(
    "n",
    [np.arange(-30, 34), np.array([-13, -12, -11, -10, 10, 11, 12, 13])],
    ids=["run-of-64", "gapped-pm-xi"],
)
def test_state_blocks_phase_powers_match_per_state(n):
    # within a block the phases are powers of one root exp(1j*h*u/hbar) per
    # row, reseeded from an exact exp where a run of consecutive n starts
    # and every few columns: a run of 64 n at hbar = 1/400, and the gapped
    # +-xi block of every position of hom (400, 0.336)
    hbar = 1.0 / 400.0
    h = math.sqrt(math.pi * hbar)
    x0 = np.full(n.size, 3 * h)
    x = np.sort(np.append(np.linspace(-0.5, 0.7, 4801), 3 * h))
    ((rows, cols, block),) = gs.state_blocks(hbar, x0, n, x)
    assert cols == slice(0, n.size)
    for j in range(n.size):
        ref = gs.eval_state(gs.CoherentState(hbar, x0[j], n[j] * h), x[rows])
        assert np.max(np.abs(block[:, j] - ref)) <= 1e-13 * np.max(np.abs(ref))


def per_state_box(hbar, m, n_max, x, gw):
    """(g, Psi_mn) over the box of rows ``m`` and |n| <= n_max, one ``eval_state`` pairing per pair."""
    h = math.sqrt(math.pi * hbar)
    return np.array(
        [[np.sum(gw * np.conj(gs.eval_state(gs.CoherentState(hbar, mi * h, n * h), x))) for n in range(-n_max, n_max + 1)]
         for mi in m]
    )


def test_state_blocks_phase_reseeds():
    # at hbar = pi/64 the step h/hbar is exactly 8, so on dyadic nodes about
    # x0 = 0 every angle n*h*u/hbar is exact and each exact exp carries one
    # rounding; with an exact exp every _RESEED columns a run of 401
    # consecutive n stays within a few roundings of it, where powers of one
    # root alone drift by ~3e-14
    hbar = math.pi / 64.0
    rng = np.random.default_rng(0)
    x = np.sort(np.ldexp(rng.integers(-(2**20), 2**20, 4000).astype(float), -20))
    n = np.arange(-200, 201)
    ((rows, cols, block),) = gs.state_blocks(hbar, np.zeros(n.size), n, x)
    u = x[rows]
    amp = (math.pi * hbar) ** (-0.25)
    exact = amp * np.exp(-(u**2) / (2.0 * hbar))[:, None] * np.exp(8j * np.multiply.outer(u, n))
    assert np.max(np.abs(block - exact)) <= 2e-15 * amp


@pytest.mark.parametrize("hbar", [1.0 / 50.0, 1.0 / 400.0])
def test_box_coefficients_match_per_state_loop(hbar):
    # complex values against one eval_state pairing per pair, on an
    # off-centre box and random complex weights over the plane-wave probe's
    # |x| <= 0.75: this holds the sign (-1)**(m*n) and the conjugate half
    rng = np.random.default_rng(5)
    h = math.sqrt(math.pi * hbar)
    rule = quad.build_rule((-0.75, 0.75), 1.0 / hbar, quad.nodes_per_wavelength(3.5))
    gw = (rng.standard_normal(rule.nodes.size) + 1j * rng.standard_normal(rule.nodes.size)) * rule.weights
    m = np.arange(-3, 8)
    n_max = math.floor(2.5 / h)
    got = gs.box_coefficients(hbar, m, n_max, rule.nodes, gw)
    want = per_state_box(hbar, m, n_max, rule.nodes, gw)
    assert got.shape == (m.size, 2 * n_max + 1)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("k", [50.0, 100.0, 200.0, 400.0])
def test_box_coefficients_match_per_state_loop_on_the_probe_box(k):
    # the plane-wave probe's box, rule and source: the moduli within 1e-14
    # of the largest, the complex values within 1e-13, since the phases of
    # box_coefficients are referenced to x (3.0e-14 at k = 400)
    case = ProblemCase.homogeneous(k)
    hbar = 1.0 / k
    h = math.sqrt(math.pi * hbar)
    rule = quad.build_rule((-0.75, 0.75), k, quad.nodes_per_wavelength(1.0 + analysis.PLANEWAVE_XI_MAX))
    fw = case.exact_solution(rule.nodes)[0] * rule.weights
    m_max = math.floor((0.75 + analysis.PLANEWAVE_X_PAD) / h)
    n_max = math.floor(analysis.PLANEWAVE_XI_MAX / h)
    m = np.arange(-m_max, m_max + 1)
    got = gs.box_coefficients(hbar, m, n_max, rule.nodes, fw)
    want = per_state_box(hbar, m, n_max, rule.nodes, fw)
    largest = np.max(np.abs(want))
    assert np.max(np.abs(np.abs(got) - np.abs(want))) <= 1e-14 * largest
    assert np.max(np.abs(got - want)) <= 1e-13 * largest


def test_box_phase_table_reseeds():
    # on dyadic angles p*theta is exact, so exp(-1j*p*theta) carries one
    # rounding; the exact exp every _RESEED powers keeps the recurrence
    # within a few roundings of it out to p = 400, where powers of one root
    # alone drift by ~3e-14
    rng = np.random.default_rng(0)
    theta = np.ldexp(rng.integers(-(2**22), 2**22, 4000).astype(float), -20)
    p_max = 400
    table = gs._conj_phase_powers(theta, p_max)
    exact = np.exp(-1j * np.multiply.outer(np.arange(p_max + 1), theta))
    assert np.max(np.abs(table - exact)) <= 2e-15


def test_box_coefficients_validation():
    x = np.linspace(-1.0, 1.0, 50)
    with pytest.raises(ValueError):
        gs.box_coefficients(HBAR, np.arange(3), 2, x[::-1], np.ones(x.size))
    with pytest.raises(TypeError):
        gs.box_coefficients(HBAR, np.arange(3) * 1.0, 2, x, np.ones(x.size))
