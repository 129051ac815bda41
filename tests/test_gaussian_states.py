import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcshelm import gaussian_states as gs
from gcshelm import quadrature as quad
from gcshelm.problem_model import ProblemCase

HBAR = 1.0 / 50.0

finite_real = st.floats(-2.0, 2.0, allow_nan=False)


def state_rule(*states, density=80):
    k = 1.0 / states[0].hbar
    return quad.build_rule(quad.support_window(states), k, density)


def residual(s, op, x):
    """(P - p(x0, xi0)) Psi at x, from the per-state reference."""
    return gs.apply_operator(s, op, x) - complex(op.symbol(s.x0, s.xi0)) * gs.eval_state(s, x)


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
    val = quad.inner_product(lambda x: gs.eval_state(s, x), lambda x: gs.eval_state(s, x), rule)
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
    assert abs(gs.overlap(s, s) - 1.0) < 1e-15


def test_overlap_frequency_shift_modulus():
    spacing = math.sqrt(math.pi * HBAR)
    s1 = gs.CoherentState(HBAR, 0.2, 0.5)
    s2 = gs.CoherentState(HBAR, 0.2, 0.5 + 2 * spacing)
    assert abs(abs(gs.overlap(s1, s2)) - math.exp(-math.pi)) < 1e-14


@given(x1=finite_real, xi1=finite_real, x2=finite_real, xi2=finite_real)
@settings(max_examples=50, deadline=None)
def test_overlap_modulus_law(x1, xi1, x2, xi2):
    s1 = gs.CoherentState(HBAR, x1, xi1)
    s2 = gs.CoherentState(HBAR, x2, xi2)
    expected = math.exp(-((x1 - x2) ** 2 + (xi1 - xi2) ** 2) / (4 * HBAR))
    assert abs(abs(gs.overlap(s1, s2)) - expected) <= 1e-12


def test_overlap_requires_matching_hbar():
    with pytest.raises(ValueError):
        gs.overlap(gs.CoherentState(0.1, 0, 0), gs.CoherentState(0.2, 0, 0))


def test_overlap_matches_quadrature():
    s1 = gs.CoherentState(HBAR, 0.15, 0.85)
    s2 = gs.CoherentState(HBAR, -0.2, 1.3)
    rule = state_rule(s1, s2, density=120)
    val = quad.inner_product(lambda x: gs.eval_state(s1, x), lambda x: gs.eval_state(s2, x), rule)
    assert abs(val - gs.overlap(s1, s2)) < 1e-12


def test_pair_moments_match_quadrature():
    s1 = gs.CoherentState(HBAR, 0.1, 0.6)
    s2 = gs.CoherentState(HBAR, -0.15, 1.0)
    rule = state_rule(s1, s2, density=120)
    xbar = 0.5 * (s1.x0 + s2.x0)
    moments = gs.pair_moments(s1, s2, 4)
    for j in range(5):
        val = quad.inner_product(
            lambda x: (x - xbar) ** j * gs.eval_state(s1, x),
            lambda x: gs.eval_state(s2, x),
            rule,
        )
        assert abs(val - moments[j]) < 1e-12


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
    fd = case.apply_P(u0, d1, d2, x)
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
    assert np.max(np.abs(residual(s, op, x) - expected * gs.eval_state(s, x))) < 1e-14


def test_residual_factor_center_value_model_operator():
    # only the trace-like hbar term survives at the center in the interior
    case = ProblemCase.homogeneous(100)
    op = case.operator()
    s = gs.CoherentState(1.0 / 100.0, 0.0, 1.0)
    r0 = residual(s, op, 0.0) / gs.eval_state(s, 0.0)
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
        val = quad.norm(lambda x: residual(s, op, x), rule)
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
    val = gs.iterated_residual_norm(s, op, 1)
    assert abs(val - math.sqrt(0.75) * hbar) < 1e-14


def test_iterated_residual_norm_matches_quadrature():
    hbar = 1.0 / 64.0
    s = gs.CoherentState(hbar, 0.0, 1.0)
    op = gs.constant_operator(-1.0, 0.0, -1.0)
    exact = gs.iterated_residual_norm(s, op, 1)
    rule = state_rule(s, density=60)
    qval = quad.norm(lambda x: residual(s, op, x), rule)
    assert abs(exact - qval) < 1e-12


def test_iterated_residual_norm_scaling_and_monotonicity():
    op = gs.constant_operator(-1.0, 0.0, -1.0)
    for L in (1, 2, 3):
        hbars = [2.0**-p for p in range(4, 11)]
        vals = [
            gs.iterated_residual_norm(gs.CoherentState(h, 0.0, 1.0), op, L) for h in hbars
        ]
        slope = np.polyfit(np.log(hbars), np.log(vals), 1)[0]
        assert abs(slope - L / 2.0) < 0.1
    s = gs.CoherentState(1e-2, 0.0, 1.0)
    assert gs.iterated_residual_norm(s, op, 2) <= gs.iterated_residual_norm(s, op, 1)


def test_iterated_residual_norm_validates_L():
    s = gs.CoherentState(0.05, 0.0, 0.0)
    op = gs.constant_operator(-1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        gs.iterated_residual_norm(s, op, 4)


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
    op = gs.constant_operator(-1.0, 0.0, -1.0)
    hbar = 1.0 / 100.0
    spacing = math.sqrt(math.pi * hbar)
    s1 = gs.CoherentState(hbar, 0.0, 0.0)
    for dm, dn in [(2, 0), (0, 2), (1, 1), (3, 2)]:
        s2 = gs.CoherentState(hbar, dm * spacing, dn * spacing)
        rule = state_rule(s1, s2, density=max(120, int(40 * (dn * spacing + 1))))
        qv = quad.inner_product(
            lambda x: gs.apply_operator(s1, op, x), lambda x: gs.eval_state(s2, x), rule
        )
        cv = gs.operator_pair_inner(op, s1, s2)
        assert abs(qv - cv) < 1e-12


def test_state_blocks_match_per_state_derivatives():
    x0 = np.array([-0.3, -0.3, 0.0, 0.4, 0.4, 0.4])
    xi0 = np.array([-1.0, 0.5, 0.0, -0.7, 0.2, 1.1])
    x = np.linspace(-3.5, 3.5, 1401)
    for order in (0, 2, 4):
        dense = np.zeros((x.size, x0.size), dtype=complex)
        for rows, cols, block in gs.state_blocks(HBAR, x0, xi0, x, order):
            dense[rows, cols] = block
        for j in range(x0.size):
            ref = gs.eval_derivative(gs.CoherentState(HBAR, x0[j], xi0[j]), order, x)
            near = np.abs(x - x0[j]) <= gs.WINDOW_SIGMAS * math.sqrt(HBAR)
            assert np.max(np.abs(dense[near, j] - ref[near])) <= 1e-12 * np.max(np.abs(ref))
            assert not np.any(dense[~near, j])
    with pytest.raises(ValueError):
        next(gs.state_blocks(HBAR, x0, xi0, x[::-1]))
