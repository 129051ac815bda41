import math

import numpy as np
import pytest

from gcshelm import gaussian_states as gs
from gcshelm import quadrature as quad

from helpers import inner_product, overlap, support_window


def test_constant_integral_exact():
    rule = quad.build_rule((0.0, 1.0), 20, 20)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-14
    val = inner_product(lambda x: np.ones_like(x), lambda x: np.ones_like(x), rule)
    assert abs(val - 1.0) < 1e-14


def test_oscillatory_closed_form():
    k = 100.0
    rule = quad.build_rule((-1.0, 1.0), k, 20)
    val = inner_product(lambda x: np.exp(1j * k * x), lambda x: np.ones_like(x), rule)
    assert abs(val - 2.0 * math.sin(k) / k) < 1e-10


def test_gaussian_normalization_high_k():
    hbar = 1.0 / 400.0
    s = gs.CoherentState(hbar, 0.0, 1.0)
    rule = quad.build_rule(support_window([s]), 400, 20)
    val = inner_product(lambda x: gs.eval_state(s, x), lambda x: gs.eval_state(s, x), rule)
    assert abs(val - 1.0) < 1e-12


def test_weights_sum_and_node_ordering():
    rule = quad.build_rule((-2.5, 3.5), 50, 26)
    assert abs(np.sum(rule.weights) - 6.0) < 1e-13 * 6.0
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > -2.5 and rule.nodes[-1] < 3.5
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize(
    "half_width,k,density",
    [(2.5, 50, 26), (2.6, 50, 26), (2.6, 50, 20)],
    ids=["even-panels", "odd-panels-node-at-0", "odd-panels"],
)
def test_rule_mirrors_bit_for_bit_on_a_symmetric_window(half_width, k, density):
    # nodes[::-1] == -nodes and weights[::-1] == weights exactly, so the
    # design system folds into even and odd halves; the panel count is
    # ceil(width / half wavelength) as before, and the panels past the
    # middle one hold the same nodes as the rule on np.linspace's edges
    rule = quad.build_rule((-half_width, half_width), k, density)
    assert np.array_equal(rule.nodes[::-1], -rule.nodes)
    assert np.array_equal(rule.weights[::-1], rule.weights)
    panels = math.ceil(2.0 * half_width / (math.pi / k))
    npp = rule.nodes_per_panel
    assert len(rule) == panels * npp
    ref_x, _ = np.polynomial.legendre.leggauss(npp)
    edges = np.linspace(-half_width, half_width, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    linspace_nodes = (mid[:, None] + half[:, None] * ref_x).ravel()
    past_middle = (panels // 2 + 1) * npp
    assert np.array_equal(rule.nodes[past_middle:], linspace_nodes[past_middle:])
    assert (0.0 in rule.nodes) == (panels % 2 == 1 and npp % 2 == 1)


def test_reference_rule_is_leggauss_once_per_order_and_read_only():
    # every rule of an order shares one cached leggauss pair, bit for bit;
    # a write into it raises instead of moving the nodes of later rules
    for order in (2, 10, 13):
        nodes, weights = quad._reference_rule(order)
        want_x, want_w = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(nodes, want_x) and np.array_equal(weights, want_w)
        assert quad._reference_rule(order)[0] is nodes
        for ref in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                ref[0] = 0.0
    rule = quad.build_rule((-1.0, 2.0), 40, 26)
    assert rule.nodes.flags.writeable and rule.weights.flags.writeable
    edges = np.linspace(-1.0, 2.0, math.ceil(3.0 / (math.pi / 40)) + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    ref_x, ref_w = np.polynomial.legendre.leggauss(13)
    assert np.array_equal(rule.nodes, (mid[:, None] + half[:, None] * ref_x).ravel())
    assert np.array_equal(rule.weights, (half[:, None] * ref_w).ravel())


def test_inner_product_axioms():
    rule = quad.build_rule((-1.0, 1.0), 30, 20)

    def f(x):
        return np.exp(1j * 30 * x) * np.cos(x)

    def g(x):
        return np.exp(-(x**2)) * (1.0 + 2j * x)

    ff = inner_product(f, f, rule)
    assert abs(ff.imag) < 1e-14 * abs(ff)
    assert ff.real >= 0.0
    fg = inner_product(f, g, rule)
    gf = inner_product(g, f, rule)
    assert abs(fg - np.conj(gf)) < 1e-14


def test_inner_product_matches_overlap():
    hbar = 1.0 / 50.0
    s1 = gs.CoherentState(hbar, 0.1, 0.8)
    s2 = gs.CoherentState(hbar, -0.2, 1.1)
    rule = quad.build_rule(support_window([s1, s2]), 50, 60)
    val = inner_product(lambda x: gs.eval_state(s1, x), lambda x: gs.eval_state(s2, x), rule)
    assert abs(val - overlap(s1, s2)) < 1e-10


def test_support_window_single_and_hull():
    hbar = 0.01
    s = gs.CoherentState(hbar, 0.5, 0.0)
    lo, hi = support_window([s])
    reach = gs.WINDOW_SIGMAS * math.sqrt(hbar)
    assert abs(lo - (0.5 - reach)) < 1e-12
    assert abs(hi - (0.5 + reach)) < 1e-12
    s2 = gs.CoherentState(hbar, 5.0, 0.0)
    lo2, hi2 = support_window([s, s2])
    assert lo2 == lo and abs(hi2 - (5.0 + reach)) < 1e-12


def test_support_window_covers_pml_states():
    from gcshelm.phase_space import LatticeSpec, build_symbol_set
    from gcshelm.problem_model import ProblemCase
    from helpers import states_from_index_set

    case = ProblemCase.homogeneous(20)
    iset = build_symbol_set(LatticeSpec(1.0 / 20.0), case.operator(), 2.0)
    lo, hi = support_window(states_from_index_set(iset))
    assert lo < -3.2 and hi > 3.2


GRAM_CELLS = [("homogeneous", 400.0, 0.336), ("heterogeneous", 50.0, 6.0)]


@pytest.mark.parametrize(
    "name,k,delta,scale,converged",
    [cell + (1.0, True) for cell in GRAM_CELLS] + [cell + (0.5, False) for cell in GRAM_CELLS],
    ids=["hom-400-0.336", "het-50-6", "hom-400-0.336-half", "het-50-6-half"],
)
def test_refinement_stability_of_gram_entries(name, k, delta, scale, converged):
    # A^H A of a table cell on the production rule moves by <= 1e-9 of its
    # largest entry against the rule at twice the frequency (1.9e-14 and
    # 2.6e-10 measured); at half the frequency it moves by more (3.9e-7, 1.0e-8)
    from gcshelm.assembly_solver import assemble
    from gcshelm.phase_space import LatticeSpec, build_symbol_set
    from gcshelm.problem_model import ProblemCase
    from helpers import state_matrix

    case = ProblemCase.from_name(name, k)
    iset = build_symbol_set(LatticeSpec(1.0 / k), case.operator(), delta)
    frequency = 2.0 * max(1.0, np.abs(iset.xi_array()).max())
    grams = []
    for f in (scale * frequency, 2.0 * frequency):
        a = state_matrix(assemble(iset, case, quad.nodes_per_wavelength(f)))
        grams.append(a.conj().T @ a)
    moved = np.abs(grams[0] - grams[1]).max() / np.abs(grams[1]).max()
    assert (moved <= 1e-9) == converged, moved


def test_invalid_inputs():
    with pytest.raises(ValueError):
        quad.build_rule((1.0, 1.0), 20, 20)
    with pytest.raises(ValueError):
        quad.build_rule((0.0, 1.0), 20, nodes_per_wavelength=5)
    with pytest.raises(ValueError):
        support_window([])
