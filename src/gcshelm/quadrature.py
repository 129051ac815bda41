"""Composite Gauss-Legendre quadrature tuned to oscillatory Gaussian integrands.

Its nodes and weights discretize every L2 integral: the design system, whose
columns come from ``gaussian_states.state_blocks``, the error norms, the
plane-wave probe, and the ``inner_product`` and ``norm`` oracles of the tests.
Panels are half a wavelength (2*pi/k) wide, so the requested node density per
wavelength translates directly into nodes per panel.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "build_rule",
    "inner_product",
    "norm",
    "support_window",
    "DEFAULT_NODES_PER_WAVELENGTH",
    "DEFAULT_TAIL_TOL",
]

DEFAULT_NODES_PER_WAVELENGTH = 20
# 12-sigma Gaussian tail: exp(-12**2/2)
DEFAULT_TAIL_TOL = math.exp(-72.0)


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre rule on a window.

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing quadrature nodes inside ``window``.
    weights : ndarray
        Positive weights; they sum to the window length.
    window : (float, float)
        Integration interval.
    panels : int
        Number of equal panels.
    nodes_per_panel : int
        Gauss-Legendre order used on every panel.
    """

    nodes: np.ndarray
    weights: np.ndarray
    window: tuple
    panels: int
    nodes_per_panel: int

    def __len__(self):
        return self.nodes.size


def build_rule(window, k, nodes_per_wavelength=DEFAULT_NODES_PER_WAVELENGTH):
    """Build a composite rule resolving oscillations at wavenumber ``k``.

    Parameters
    ----------
    window : (float, float)
        Integration interval (a, b) with a < b.
    k : float
        Reference wavenumber; the base wavelength is 2*pi/k.
    nodes_per_wavelength : int
        Node density per wavelength, at least 10.  Callers integrating
        products of states with |xi| up to xi_max should scale this up
        (roughly 20 nodes per period of the fastest oscillation, i.e.
        density >= 20 * 2 * xi_max).

    Returns
    -------
    QuadratureRule
    """
    a, b = float(window[0]), float(window[1])
    if not b > a:
        raise ValueError(f"empty quadrature window {window!r}")
    if nodes_per_wavelength < 10:
        raise ValueError("nodes_per_wavelength must be >= 10")
    wavelength = 2.0 * math.pi / float(k)
    panel_width = 0.5 * wavelength
    panels = max(1, math.ceil((b - a) / panel_width))
    nodes_per_panel = max(2, math.ceil(nodes_per_wavelength / 2))

    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    return QuadratureRule(nodes, weights, (a, b), panels, nodes_per_panel)


def inner_product(f, g, rule):
    """L2 inner product (f, g) = int f conj(g) over the rule's window.

    ``f`` and ``g`` are vectorized callables.
    """
    fv = np.asarray(f(rule.nodes))
    gv = np.asarray(g(rule.nodes))
    return complex(np.sum(rule.weights * fv * np.conj(gv)))


def norm(f, rule):
    """L2 norm of a vectorized callable over the rule's window."""
    fv = np.asarray(f(rule.nodes))
    return float(np.sqrt(np.sum(rule.weights * np.abs(fv) ** 2)))


def support_window(states, tail_tol=DEFAULT_TAIL_TOL):
    """Smallest interval holding every state center plus its Gaussian tail.

    The half width per state is c*sqrt(hbar) with exp(-c**2/2) <= tail_tol.
    """
    states = list(states)
    if not states:
        raise ValueError("support_window needs at least one state")
    c = math.sqrt(2.0 * math.log(1.0 / tail_tol))
    lo = min(s.x0 - c * math.sqrt(s.hbar) for s in states)
    hi = max(s.x0 + c * math.sqrt(s.hbar) for s in states)
    return (lo, hi)
