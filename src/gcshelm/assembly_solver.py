"""Quadrature-sampled least-squares system over a coherent-state dictionary.

Minimizes || P_k u - f ||_L2 over the span of the selected states.  Columns
hold sqrt(w_q) * (P_k Psi_j)(x_q), so the Euclidean residual of the
rectangular system is the quadrature value of the L2 residual.

Assembly and reconstruction run on ``gaussian_states.state_blocks``: a
column is filled only within ``gs.WINDOW_SIGMAS`` * sqrt(hbar) ~ 8.58
sqrt(hbar) of its state's center, where the state falls to 1e-16 of its
peak, and is exactly zero beyond, where its tail would otherwise run down
into subnormal numbers, on which LAPACK's SVD (``gelsd``) ran several times
slower.  ``assemble`` builds its own quadrature rule on the union of those
windows and the source support, so no state mass above 1e-16 of its peak,
and no source, falls outside the rule.

The matrix is never formed: ``assemble`` keeps only the blocks that
``state_blocks`` yields, each scaled by sqrt(w_q), so storage grows with
the number of nonzeros, not with Q x N (at heterogeneous (k, delta) =
(100, 4), 1.30M of 6.38M entries).  Index sets are sorted by position, so
the blocks form a staircase band: there a row touches at most 268 of 985
columns.  The solve factorizes the matrix itself (never the normal matrix)
in two steps.  A row-block streaming QR (TSQR; Demmel, Grigori, Hoemmen and
Langou, SIAM J. Sci. Comput. 34, 2012) stacks the carried triangle on each
block of [A | b], filled from the state blocks that overlap its rows and
restricted to the columns those rows can touch, and emits the rows of R
whose columns no later block touches.  Those column windows, the band
and the rows per block are read off the staircase of the blocks' row and
column bounds: a block of max(band, band * Q // (4 N)) rows reaches about
a quarter band of new columns, so each array handed to the QR stays near
5/4 band wide (``_row_step``).  The N x N triangle R has A's singular
values, and its truncated-SVD least-squares solve with the relative cutoff
gives the rank and the minimum-norm solution of A.  The residual comes
from the same triangle: for every c, ||A c - b||**2 = ||R c - Q^H b||**2 +
rho**2, where rho is the last diagonal entry of the triangle of [A | b]
(Golub and Van Loan, Matrix Computations, section 5.3), so no second pass
over the blocks forms A c.

The factorizations call ``numpy.linalg`` only.  numpy and scipy link
separate OpenBLAS builds, each with its own thread pool.  On a 2-vCPU
machine, ``scipy.linalg.qr`` in place of ``numpy.linalg.qr`` made a pass of
the benchmark's scaling study 3.2 times slower (8.4-9.1 s against
2.6-2.7 s) and doubled the time of the unchanged reconstruction (0.88
against 0.44 s).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussian_states as gs
from . import quadrature as quad

__all__ = [
    "BlockMatrix",
    "DesignSystem",
    "SolveReport",
    "assemble",
    "solve",
    "reconstruct",
    "DEFAULT_CUTOFF",
]

DEFAULT_CUTOFF = 1e-12


@dataclass(frozen=True)
class BlockMatrix:
    """A Q x N matrix held as its blocks ``(rows, cols, block)``; zero elsewhere.

    ``rows`` and ``cols`` are slices.  The column runs are disjoint and in
    increasing order, and the row starts and stops never decrease, as
    ``state_blocks`` yields them for an index set sorted by position.
    ``row_bounds`` and ``col_bounds`` hold each block's (start, stop) rows
    and columns: the staircase.
    """

    shape: tuple
    blocks: tuple
    row_bounds: np.ndarray = field(init=False)
    col_bounds: np.ndarray = field(init=False)

    def __post_init__(self):
        rows = np.array([(r.start, r.stop) for r, _, _ in self.blocks], dtype=int).reshape(-1, 2)
        cols = np.array([(c.start, c.stop) for _, c, _ in self.blocks], dtype=int).reshape(-1, 2)
        if np.any(np.diff(rows, axis=0) < 0) or np.any(cols[1:, 0] < cols[:-1, 1]):
            raise ValueError("blocks must run down the rows over disjoint, increasing columns")
        if np.any(rows[:, 0] >= rows[:, 1]) or np.any(rows[:, 1] > self.shape[0]):
            raise ValueError("block rows must be nonempty and inside the matrix")
        if np.any(cols[:, 0] >= cols[:, 1]) or np.any(cols[:, 1] > self.shape[1]):
            raise ValueError("block columns must be nonempty and inside the matrix")
        object.__setattr__(self, "row_bounds", rows)
        object.__setattr__(self, "col_bounds", cols)


@dataclass(frozen=True)
class DesignSystem:
    """Complex least-squares system A c ~ b, A held as blocks, with its quadrature rule."""

    matrix: BlockMatrix
    rhs: np.ndarray
    rule: quad.QuadratureRule

    def __post_init__(self):
        q, n = self.matrix.shape
        if q < n:
            raise ValueError("system must have at least as many rows as columns")
        if not all(np.all(np.isfinite(block)) for _, _, block in self.matrix.blocks):
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


def assemble(index_set, case, nodes_per_wavelength):
    """Sample P_k Psi_j and the source on a rule built for them.

    The rule has ``nodes_per_wavelength`` nodes per wavelength 2*pi/k on the
    union of every state's window [x_j - r, x_j + r], r =
    ``gs.WINDOW_SIGMAS`` * sqrt(hbar), and the source support.
    """
    x0 = index_set.x_array()
    reach = gs.WINDOW_SIGMAS * math.sqrt(index_set.lattice.hbar)
    flo, fhi = case.rhs_support()
    window = (min(x0.min() - reach, flo), max(x0.max() + reach, fhi))
    rule = quad.build_rule(window, case.k, nodes_per_wavelength)
    root_w = np.sqrt(rule.weights)
    blocks = []
    for rows, cols, block in _blocks(index_set, rule.nodes, op=case.operator()):
        block *= root_w[rows, None]
        blocks.append((rows, cols, block))
    rhs = root_w * case.rhs(rule.nodes)
    return DesignSystem(BlockMatrix((len(rule), len(index_set)), tuple(blocks)), rhs, rule)


def solve(system, cutoff_rel=DEFAULT_CUTOFF):
    """Rank-revealing least-squares solve of the rectangular design matrix."""
    if not 0.0 < cutoff_rel < 1.0:
        raise ValueError("cutoff_rel must lie in (0, 1)")
    r, qhb, rho = _banded_qr(system.matrix, system.rhs)
    coeff, _, rank, sigma = np.linalg.lstsq(r, qhb, rcond=cutoff_rel)
    # ||A c - b||**2 = ||R c - Q^H b||**2 + rho**2 for every c
    residual = math.hypot(float(np.linalg.norm(r @ coeff - qhb)), rho)
    dropped = float(sigma[rank]) if rank < sigma.size else 0.0
    return SolveReport(
        coeff, int(rank), float(cutoff_rel), residual,
        float(sigma[0]), float(sigma[rank - 1]), dropped,
    )


def _banded_qr(a, b):
    """The N x N triangle R of a = Q R, Q^H b and |rho|, from row blocks of [a | b].

    rho is the last diagonal entry of the triangle of [a | b], the part of b
    outside the range of a; it is 0 when no row is left for it (Q = N).
    """
    q, n = a.shape
    blocks = a.blocks
    if not any(block.any() for _, _, block in blocks):
        raise ValueError("design matrix is identically zero")
    starts, stops = a.row_bounds.T
    col_starts, col_stops = a.col_bounds.T
    # band: the most columns that cover one row, as at some block start; the
    # blocks that start at or before a row less those that stop by it cover it
    widths = np.append(0, np.cumsum(col_stops - col_starts))
    band = (
        widths[np.searchsorted(starts, starts, side="right")]
        - widths[np.searchsorted(stops, starts, side="right")]
    ).max()
    step = _row_step(int(band), q, n)
    # indexed by searchsorted: n past the last block, 0 before the first
    first_col = np.append(col_starts, n)
    end_col = np.append(0, col_stops)

    r = np.zeros((n, n), dtype=complex)
    qhb = np.zeros(n, dtype=complex)
    carry = np.zeros((0, 1), dtype=complex)
    lo = 0
    for r0 in range(0, q, step):
        r1 = min(r0 + step, q)
        # rows of R for columns below `done` are final: no later row touches
        # them (the first block that stops past r1 starts at `done`); rows
        # < r1 touch columns up to the end of the last block that starts there
        begun = np.searchsorted(starts, r1)
        done = first_col[np.searchsorted(stops, r1, side="right")]
        hi = max(end_col[begun], done)
        held = carry.shape[0]
        stacked = np.zeros((held + r1 - r0, hi - lo + 1), dtype=complex)
        stacked[:held, : carry.shape[1] - 1] = carry[:, :-1]
        stacked[:held, -1] = carry[:, -1]
        # the blocks that overlap rows [r0, r1): stops > r0 and starts < r1
        overlap = slice(np.searchsorted(stops, r0, side="right"), begun)
        for rows, cols, block in blocks[overlap]:
            i0, i1 = max(rows.start, r0), min(rows.stop, r1)
            stacked[held + i0 - r0 : held + i1 - r0, cols.start - lo : cols.stop - lo] = (
                block[i0 - rows.start : i1 - rows.start]
            )
        stacked[held:, -1] = b[r0:r1]
        tri = np.linalg.qr(stacked, mode="r")
        emit = min(done - lo, tri.shape[0])
        r[lo : lo + emit, lo:hi] = tri[:emit, :-1]
        qhb[lo : lo + emit] = tri[:emit, -1]
        carry = tri[done - lo :, done - lo :]
        lo = done
    # after the last block done = n, so the carry is [rho] or empty
    return r, qhb, float(abs(carry[0, 0])) if carry.size else 0.0


def _row_step(band, q, n):
    """Rows of A per block of ``_banded_qr``, read off the staircase.

    A block of s rows reaches about s*n/q columns past the last, so its QR
    factors about band + s rows (the carried triangle and the block) over
    band + s*n/q columns.  Per row of A that costs (band + s*n/q)**2, plus
    the carried triangle spread over the s rows; the sum is smallest near
    s*n/q = band/4, where each array handed to the QR holds about
    (band + s) x 5/4 band entries.  A block has at least band rows, as many
    as the carried triangle, which every step factors again.
    """
    return max(band, band * q // (4 * n))


def reconstruct(report, index_set, x):
    """The solved combination u = sum_j c_j Psi_j and its derivative u' at x.

    Both come from one kernel pass: with u = x - x_j in the block of
    position x_j, Psi_j' = -(u - 1j*xi_j)/hbar * Psi_j, so the block's share
    of u' is -(u * (B c) - 1j * B (xi c))/hbar, from the same product B [c, xi c].
    Returns the pair (u, u').
    """
    xv = np.asarray(x, dtype=float)
    perm = np.argsort(xv, axis=None)
    nodes = xv.ravel()[perm]
    hbar = index_set.lattice.hbar
    x0 = index_set.x_array()
    c = report.coefficients
    both = np.stack([c, index_set.xi_array() * c], axis=1)
    sums = np.zeros((2, xv.size), dtype=complex)
    for rows, cols, block in _blocks(index_set, nodes):
        bc, bxc = (block @ both[cols]).T
        sums[0, rows] += bc
        sums[1, rows] -= ((nodes[rows] - x0[cols.start]) * bc - 1j * bxc) / hbar
    out = np.empty_like(sums)
    out[:, perm] = sums
    if xv.ndim == 0:
        return complex(out[0, 0]), complex(out[1, 0])
    return out[0].reshape(xv.shape), out[1].reshape(xv.shape)


def _blocks(index_set, nodes, op=None):
    return gs.state_blocks(index_set.lattice.hbar, index_set.x_array(), index_set.n, nodes, op=op)
