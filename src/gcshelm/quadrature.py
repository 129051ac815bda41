"""Composite Gauss-Legendre quadrature tuned to oscillatory Gaussian integrands.

Its nodes and weights discretize every L2 integral: the design system, whose
columns come from ``gaussian_states.state_blocks``, the error norms and the
plane-wave probe.  Panels are half a wavelength (2*pi/k) wide, so the
requested node density per wavelength translates directly into nodes per
panel.  The table cells and the plane-wave probe size their rules with
``nodes_per_wavelength``: 10 nodes per period of the integrand's fastest
oscillation.  Ten Gauss-Legendre nodes integrate exp(1j*w*x) over one
period 2*pi/w to 5e-15 absolute; five leave 3e-5.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "build_rule",
    "nodes_per_wavelength",
]

NODES_PER_PERIOD = 10


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
    nodes_per_panel : int
        Gauss-Legendre order used on every panel.
    """

    nodes: np.ndarray
    weights: np.ndarray
    window: tuple
    nodes_per_panel: int

    def __len__(self):
        return self.nodes.size


def nodes_per_wavelength(frequency):
    """Node density that resolves oscillations up to ``frequency`` (in units of k).

    ``NODES_PER_PERIOD`` nodes per period 2*pi/(frequency*k), i.e.
    ceil(10 * frequency) nodes per base wavelength 2*pi/k.
    """
    return math.ceil(NODES_PER_PERIOD * float(frequency))


@functools.cache
def _reference_rule(order):
    """Gauss-Legendre nodes and weights of ``order`` on [-1, 1], built once per order.

    ``leggauss`` takes 0.26 ms at order 10 and 0.44 ms at order 20 (2-vCPU
    VM), and a scaling study builds dozens of rules of a few orders.  The
    arrays are read-only, since every rule of that order shares them.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def build_rule(window, k, nodes_per_wavelength):
    """Build a composite rule resolving oscillations at wavenumber ``k``.

    Parameters
    ----------
    window : (float, float)
        Integration interval (a, b) with a < b.
    k : float
        Reference wavenumber; the base wavelength is 2*pi/k.
    nodes_per_wavelength : int
        Node density per wavelength, at least 10.  Size it with
        ``nodes_per_wavelength`` from the fastest oscillation of the
        integrand: products of states with |xi| up to xi_max oscillate at
        frequency 2 * max(1, xi_max).

    Returns
    -------
    QuadratureRule
        On a window symmetric about 0, ``nodes[::-1] == -nodes`` and
        ``weights[::-1] == weights`` bit for bit.
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

    ref_x, ref_w = _reference_rule(nodes_per_panel)
    edges = np.linspace(a, b, panels + 1)
    if a == -b:
        # the edges at x > 0 mirrored onto x < 0, and 0 itself for an even
        # panel count: with leggauss's ref_x odd and ref_w even bit for bit,
        # nodes[::-1] == -nodes and weights[::-1] == weights exactly
        upper = edges[panels // 2 + 1 :]
        edges = np.concatenate([-upper[::-1], np.zeros(1 - panels % 2), upper])
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    return QuadratureRule(nodes, weights, (a, b), nodes_per_panel)
