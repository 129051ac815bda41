"""Quadrature-sampled least-squares system over a coherent-state dictionary.

Minimizes || P_k u - f ||_L2 over the span of the selected states.  Columns
hold sqrt(w_q) * (P_k Psi_j)(x_q), so the Euclidean residual of the
rectangular system is the quadrature value of the L2 residual.  The solve
factorizes the design matrix itself (never the normal matrix) with a
relative singular-value cutoff.

Assembly and reconstruction run on ``gaussian_states.state_blocks``: a
column is filled only within 12*sqrt(hbar) of its state's center and is
exactly zero beyond, where its tail would otherwise underflow into subnormal
numbers that make the SVD of the solve several times slower.
"""

from dataclasses import dataclass

import numpy as np

from . import gaussian_states as gs
from . import quadrature as quad
from .phase_space import lattice_point

__all__ = [
    "DesignSystem",
    "SolveReport",
    "states_from_index_set",
    "assemble",
    "solve",
    "reconstruct",
    "DEFAULT_CUTOFF",
]

DEFAULT_CUTOFF = 1e-12


@dataclass(frozen=True)
class DesignSystem:
    """Dense complex least-squares system A c ~ b with quadrature metadata."""

    matrix: np.ndarray
    rhs: np.ndarray
    column_index: object
    rule: quad.QuadratureRule

    def __post_init__(self):
        q, n = self.matrix.shape
        if q < n:
            raise ValueError("system must have at least as many rows as columns")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("non-finite design matrix entries")


@dataclass(frozen=True)
class SolveReport:
    """Minimum-norm least-squares solution with rank and residual metadata."""

    coefficients: np.ndarray
    numerical_rank: int
    truncation_cutoff: float
    residual_norm: float


def states_from_index_set(index_set):
    """Coherent states sitting at the lattice points of an index set."""
    spec = index_set.lattice
    return [
        gs.CoherentState(spec.hbar, lattice_point(p.m, spec), lattice_point(p.n, spec))
        for p in index_set.members
    ]


def assemble(index_set, case, rule):
    """Sample P_k Psi_j and the source on the quadrature rule.

    The rule window must cover the states' support hull and the source
    support; anything narrower silently truncates L2 norms, so it raises.
    """
    states = states_from_index_set(index_set)
    lo, hi = quad.support_window(states)
    flo, fhi = case.rhs_support()
    need = (min(lo, flo), max(hi, fhi))
    have = rule.window
    if have[0] > need[0] + 1e-9 or have[1] < need[1] - 1e-9:
        raise ValueError(
            f"rule window {have} does not cover required window {need}"
        )
    root_w = np.sqrt(rule.weights)
    matrix = np.zeros((len(rule), len(states)), dtype=complex)
    for rows, cols, block in _blocks(index_set, rule.nodes, op=case.operator()):
        matrix[rows, cols] = root_w[rows, None] * block
    rhs = root_w * case.rhs(rule.nodes)
    return DesignSystem(matrix, rhs, index_set, rule)


def solve(system, cutoff_rel=DEFAULT_CUTOFF):
    """Rank-revealing least-squares solve of the rectangular design matrix."""
    if not 0.0 < cutoff_rel < 1.0:
        raise ValueError("cutoff_rel must lie in (0, 1)")
    a = system.matrix
    if not np.any(a):
        raise ValueError("design matrix is identically zero")
    coeff, _, rank, _ = np.linalg.lstsq(a, system.rhs, rcond=cutoff_rel)
    residual = float(np.linalg.norm(a @ coeff - system.rhs))
    return SolveReport(coeff, int(rank), float(cutoff_rel), residual)


def reconstruct(report, index_set, x, derivative_order=0):
    """Evaluate the solved combination sum_j c_j d^order Psi_j at x."""
    if not 0 <= derivative_order <= 1:
        raise ValueError("derivative order must lie in [0, 1]")
    xv = np.asarray(x, dtype=float)
    perm = np.argsort(xv, axis=None)
    values = np.zeros(xv.size, dtype=complex)
    for rows, cols, block in _blocks(index_set, xv.ravel()[perm], order=derivative_order):
        values[rows] += block @ report.coefficients[cols]
    out = np.empty_like(values)
    out[perm] = values
    return out.reshape(xv.shape) if xv.ndim else complex(out[0])


def _blocks(index_set, nodes, order=0, op=None):
    return gs.state_blocks(
        index_set.lattice.hbar, index_set.x_array(), index_set.xi_array(), nodes, order, op
    )
