"""Quadrature-sampled least-squares system over a coherent-state dictionary.

Minimizes || P_k u - f ||_L2 over the span of the selected states.  Columns
hold sqrt(w_q) * (P_k Psi_j)(x_q), so the Euclidean residual of the
rectangular system is the quadrature value of the L2 residual.

Assembly and reconstruction run on ``gaussian_states.state_blocks``: a
column is filled only within 12*sqrt(hbar) of its state's center and is
exactly zero beyond, where its tail would otherwise underflow into subnormal
numbers, on which LAPACK's SVD (``gelsd``) ran several times slower.

Index sets are sorted by position, so the design matrix is a staircase band:
at heterogeneous (k, delta) = (100, 4) a row touches at most 368 of 985
columns.  The solve factorizes the matrix itself (never the normal matrix)
in two steps.  A row-block streaming QR (TSQR; Demmel, Grigori, Hoemmen and
Langou, SIAM J. Sci. Comput. 34, 2012) stacks the carried triangle on each
block of [A | b], restricted to the columns that block can touch, and emits
the rows of R whose columns no later block touches.  The column windows come
from each column's first and last nonzero row; a matrix out of staircase
order only widens them toward a dense blocked QR.  The N x N triangle R has
A's singular values, and its truncated-SVD least-squares solve with the
relative cutoff gives the rank and the minimum-norm solution of A.

The factorizations call ``numpy.linalg`` only.  numpy and scipy link
separate OpenBLAS builds, each with its own thread pool.  On a 2-vCPU
machine, ``scipy.linalg.qr`` in place of ``numpy.linalg.qr`` made a pass of
the benchmark's scaling study 3.2 times slower (8.4-9.1 s against
2.6-2.7 s) and doubled the time of the unchanged reconstruction (0.88
against 0.44 s).
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

# rows per block of the streaming QR: max(_BLOCK_PER_BAND * band, _BLOCK_MIN)
_BLOCK_PER_BAND = 4
_BLOCK_MIN = 1024


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
    """Minimum-norm least-squares solution with rank and residual metadata.

    The singular values are those of the design matrix: the largest, the
    smallest kept above ``truncation_cutoff * sigma_max``, and the largest
    dropped (0.0 at full rank).
    """

    coefficients: np.ndarray
    numerical_rank: int
    truncation_cutoff: float
    residual_norm: float
    sigma_max: float
    sigma_kept_min: float
    sigma_dropped_max: float


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
    r, qhb = _banded_qr(a, system.rhs)
    coeff, _, rank, sigma = np.linalg.lstsq(r, qhb, rcond=cutoff_rel)
    residual = float(np.linalg.norm(a @ coeff - system.rhs))
    dropped = float(sigma[rank]) if rank < sigma.size else 0.0
    return SolveReport(
        coeff, int(rank), float(cutoff_rel), residual,
        float(sigma[0]), float(sigma[rank - 1]), dropped,
    )


def _banded_qr(a, b):
    """The N x N triangle R of a = Q R and Q^H b, from row blocks of [a | b]."""
    q, n = a.shape
    nonzero = a != 0
    touched = nonzero.any(axis=0)
    if not touched.any():
        raise ValueError("design matrix is identically zero")
    # each touched column's first and last nonzero row
    cols = np.flatnonzero(touched)
    first = nonzero.argmax(axis=0)[cols]
    last = q - 1 - nonzero[::-1].argmax(axis=0)[cols]
    # reached[r]: one past the last column that rows < r touch;
    # needed[r]: the first column that rows >= r touch, n if none
    top = np.full(q, -1)
    np.maximum.at(top, first, cols)
    reached = np.append(0, np.maximum.accumulate(top) + 1)
    bottom = np.full(q + 1, n)
    np.minimum.at(bottom, last, cols)
    needed = np.minimum.accumulate(bottom[::-1])[::-1]
    # band: the most column spans that cover one row
    band = np.cumsum(np.bincount(first, minlength=q + 1) - np.bincount(last + 1, minlength=q + 1))
    block = max(_BLOCK_PER_BAND * int(band.max()), _BLOCK_MIN)

    r = np.zeros((n, n), dtype=complex)
    qhb = np.zeros(n, dtype=complex)
    carry = np.zeros((0, 1), dtype=complex)
    lo = 0
    for r0 in range(0, q, block):
        r1 = min(r0 + block, q)
        # rows of R for columns below `done` are final: no later row touches them
        done = needed[r1]
        hi = max(reached[r1], done)
        held = carry.shape[0]
        stacked = np.zeros((held + r1 - r0, hi - lo + 1), dtype=complex)
        stacked[:held, : carry.shape[1] - 1] = carry[:, :-1]
        stacked[:held, -1] = carry[:, -1]
        stacked[held:, :-1] = a[r0:r1, lo:hi]
        stacked[held:, -1] = b[r0:r1]
        tri = np.linalg.qr(stacked, mode="r")
        emit = min(done - lo, tri.shape[0])
        r[lo : lo + emit, lo:hi] = tri[:emit, :-1]
        qhb[lo : lo + emit] = tri[:emit, -1]
        carry = tri[done - lo :, done - lo :]
        lo = done
    return r, qhb


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
