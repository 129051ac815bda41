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

Both model problems are mirror-symmetric.  With (Rf)(x) = f(-x), the
coefficients a and c of P_k are even and b is odd, so P_k R = R P_k, and
R Psi_{m,n} = Psi_{-m,-n}.  ``assemble`` takes an index set closed under
(m, n) -> (-m, -n), where the partner of column j is column N-1-j, and a
rule whose nodes mirror bit for bit (``quadrature.build_rule`` on a window
symmetric about 0).  In the orthogonal bases (f(x) +- f(-x))/sqrt(2) of the
rows and (e_j +- e_{N-1-j})/sqrt(2) of the columns the system is
block-diagonal, E + O, each half about N/2 wide: an entry of E or O is
sqrt(w) * ((P_k Psi_j)(x) +- (P_k Psi_j)(-x)) at a node x >= 0 (times
1/sqrt(2) at x = 0 and for the state (0, 0), which are their own mirrors).
So ``assemble`` evaluates only the states with m >= 0 and folds each
block's rows at x < 0 onto their mirrors; a state whose window does not
reach its mirror has the same block in both halves, held once.  A and
E + O have the same singular values, so the rank, the residual and the
minimum-norm solution carry over, and ``solve`` maps the coefficients back
to state order.  Every system is held this way, so ``solve`` has one
path; ``DesignSystem`` rejects a block that lies across the two halves,
a half that holds no block, and a system of one column, whose odd half
would have none: the set of the state (0, 0) alone, which no case selects
(at k >= 20 the pairs (0, +-n) enter before it).

The matrix is never formed: ``assemble`` keeps only the blocks, each
scaled by sqrt(w_q), so storage grows with the number of nonzeros, not
with Q x N (at heterogeneous (k, delta) = (100, 4), 1.30M of 6.38M
entries).  Index sets are sorted by position, so the blocks of each half
form a staircase band: there a row touches at most 268 of 985 columns.
The solve factorizes each half itself (never the normal matrix) in two
steps.  A row-block streaming QR (TSQR; Demmel, Grigori, Hoemmen and
Langou, SIAM J. Sci. Comput. 34, 2012) stacks the carried triangle on each
block of [A | b], filled from the state blocks that overlap its rows and
restricted to the columns those rows can touch, and emits the rows of R
whose columns no later block touches.  Those column windows, the band
and the rows per block are read off the staircase of the blocks' row and
column bounds: a block of max(band, band * Q // (4 N)) rows reaches about
a quarter band of new columns, so each array handed to the QR stays near
5/4 band wide (``_row_step``).  The two triangles together have A's
singular values, and their truncated-SVD least-squares solves (LAPACK's
``gelsd``), all at one absolute cutoff, give the rank and the minimum-norm
solution of A.  Each ``gelsd`` is O((N/2)**3), so the two cost about a
quarter of one on all of A.  The residual comes from the same triangles:
for every c, ||A c - b||**2 = ||R c - Q^H b||**2 + rho**2, where rho is
the last diagonal entry of the triangle of [A | b] (Golub and Van Loan,
Matrix Computations, section 5.3), so no second pass over the blocks
forms A c.  Streamed as one staircase, the whole matrix gives a
triangle whose coupling block between the halves is exactly zero, but the
even half's part of b outside its range then runs through the odd half's
reflections: at homogeneous (50, 1) the residual left in the kept singular
directions read 1.3e-6 of ||b|| that way, and 2.7e-7 with each half
streamed on its own.

A state's window reaches the mirrors of its nodes only on rows within
8.58 sqrt(hbar) of x = 0, so on every row farther out the two halves hold
the same entries (73-83% of each half's rows on the benchmark's cells),
and ``assemble`` hands both halves one array for each state that does not
reach its mirror.  It holds each half from its outer end inward, so such
a block sits at the same rows and columns in both.  One stream factors
the shared rows once, with the two right-hand sides [b_E | b_O], which
differ wherever f(-x) != 0; the rows of R it emits go to the even
triangle and are copied into the odd one.  The halves can differ only on
the rows of the states nearest 0, the even half's last block, so the
fork (``_fork_row``) is its first row: with a state at m = 0 exactly the
first row whose entries differ (at heterogeneous (100, 4), 2581 of the
3240 rows of a half are shared), without one earlier.  At the fork
the even half keeps the carried triangle's A columns and b_E's, the odd
half the A columns and b_O's, and also the row on b_E's diagonal: the QR
rotated part of b_O's residual into that coupling row, and without it the
odd rho is wrong (``_split_carry``).  Each half then streams its own rows
near 0.  At heterogeneous (100, 4), 246 of the 493 even columns are done
at the fork; the ranks are those of the halves streamed apart, and the
triangles' singular values move by rounding.

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
_SQRT_HALF = math.sqrt(0.5)


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
    """Complex least-squares system A c ~ b, A held as blocks, with its quadrature rule.

    The rows and columns are the even, then the odd combinations of mirror
    pairs (``_fold``), as ``assemble`` builds them, so ``matrix`` is
    block-diagonal: each block lies in the first Q - Q//2 rows and N - N//2
    columns, or in the rest, and each half holds a block unless the matrix
    holds none.  Each half runs from its outer end inward,
    and the two agree bit for bit on the rows before the even half's last
    block.  ``solve`` maps the coefficients back to state order.
    """

    matrix: BlockMatrix
    rhs: np.ndarray
    rule: quad.QuadratureRule

    def __post_init__(self):
        q, n = self.matrix.shape
        if q < n:
            raise ValueError("system must have at least as many rows as columns")
        if n < 2:
            raise ValueError("system must have two columns or more: the odd half would have none")
        # whether each block's first and last row, then column, lie in the even half
        even = np.hstack([
            self.matrix.row_bounds - [0, 1] < q - q // 2, self.matrix.col_bounds - [0, 1] < n - n // 2,
        ])
        if np.any(even != even[:, :1]):
            raise ValueError("every block must lie in the even or in the odd half of the system")
        # a system of no blocks at all is left to solve, which finds it identically zero
        for half, held in (("even", even[:, 0]), ("odd", ~even[:, 0])):
            if self.matrix.blocks and not held.any():
                raise ValueError(f"the {half} half of the system holds no block")
        if not all(np.all(np.isfinite(block)) for _, _, block in self.matrix.blocks):
            raise ValueError("non-finite design matrix entries")
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError("non-finite right-hand side")


@dataclass(frozen=True)
class SolveReport:
    """Minimum-norm least-squares solution with rank and residual metadata.

    The coefficients are in state order, though the system is solved in
    its parity halves.  The singular values are those of the design matrix,
    over both halves: the largest, the smallest kept
    above ``truncation_cutoff * sigma_max``, and the largest dropped (0.0
    at full rank).
    """

    coefficients: np.ndarray
    numerical_rank: int
    truncation_cutoff: float
    residual_norm: float
    sigma_max: float
    sigma_kept_min: float
    sigma_dropped_max: float


def assemble(index_set, case, nodes_per_wavelength):
    """Sample P_k Psi_j and the source on a rule built for them, in their parity halves.

    The rule has ``nodes_per_wavelength`` nodes per wavelength 2*pi/k on the
    union of every state's window [x_j - r, x_j + r], r =
    ``gs.WINDOW_SIGMAS`` * sqrt(hbar), and the source support.  The set must
    be closed under (m, n) -> (-m, -n) and the coefficients (a, b, c) of P_k
    even, odd and even on the rule's mirrored nodes; otherwise ValueError.
    They are sampled there once, for this check and for the kernel.
    Only the states with m >= 0 are evaluated: each block's x < 0 rows fold
    onto their mirror rows into the even and odd halves of the system.
    """
    m, n = index_set.m, index_set.n
    if not (np.array_equal(m, -m[::-1]) and np.array_equal(n, -n[::-1])):
        raise ValueError("index set is not closed under (m, n) -> (-m, -n)")
    x0 = index_set.x_array()
    reach = gs.WINDOW_SIGMAS * math.sqrt(index_set.lattice.hbar)
    flo, fhi = case.rhs_support()
    window = (min(x0.min() - reach, flo), max(x0.max() + reach, fhi))
    rule = quad.build_rule(window, case.k, nodes_per_wavelength)
    x = rule.nodes
    if not np.array_equal(x[::-1], -x):
        raise ValueError(f"quadrature window {window!r} is not symmetric about 0")
    a, b, c = (np.broadcast_to(v, x.shape) for v in case.operator().coefficients(x))
    if not (np.array_equal(a[::-1], a) and np.array_equal(b[::-1], -b) and np.array_equal(c[::-1], c)):
        raise ValueError("operator coefficients (a, b, c) are not even, odd and even in x")

    q, size = len(rule), len(index_set)
    zero, pos = q // 2, (q + 1) // 2  # the first node x >= 0 and the first x > 0
    q_even = q - zero
    upper = size // 2  # the first state with m > 0, or m = 0 and n >= 0
    n_even, middle = size - upper, size % 2  # (0, 0) is in the set when size is odd
    root_w = np.sqrt(rule.weights)
    even, odd = [], []
    for rows, cols, block in _blocks(index_set, x, coefficients=(a, b, c), start=upper):
        block *= root_w[rows, None]
        lo, hi = rows.start, rows.stop
        if lo >= pos:  # no node of the window has its mirror in it
            plus = minus = block
        else:
            # node zero + i has its mirror pos - 1 - i in the block for i < t
            top = block[zero - lo :]
            t = min(hi - zero, pos - lo)
            mirror = block[pos - lo - t : pos - lo][::-1]
            plus, minus = top.copy(), top.copy()
            plus[:t] += mirror
            minus[:t] -= mirror
            if pos > zero:  # the node at 0 is its own mirror
                plus[0] *= _SQRT_HALF
                minus = minus[1:]
            lo = zero
        c0, c1 = cols.start, cols.stop
        if middle and c0 == 0:  # the state (0, 0) is its own mirror
            plus = plus * np.where(np.arange(c1) == 0, _SQRT_HALF, 1.0)
            minus = minus[:, 1:]
        # each half is held from its outer end inward, the order the solve streams it
        flipped = plus[::-1, ::-1]
        even.append((slice(q - hi, q - lo), slice(n_even - c1, n_even - c0), flipped))
        if minus.size:  # empty for the block of (0, 0) alone
            odd.append((
                slice(q_even + q - hi, q_even + q - max(lo, pos)),
                slice(2 * n_even - c1, 2 * n_even - max(c0, middle)),
                flipped if minus is plus else minus[::-1, ::-1],
            ))
    rhs = _fold(root_w * case.rhs(x))
    return DesignSystem(BlockMatrix((q, size), tuple(even[::-1] + odd[::-1])), rhs, rule)


def solve(system, cutoff_rel=DEFAULT_CUTOFF):
    """Rank-revealing least-squares solve of the rectangular design matrix.

    The even and the odd half each get a triangle from one streaming QR,
    which factors the rows both halves hold once (``_shared_qr``).  One
    ``lstsq`` runs on each triangle, both truncated at tau = ``cutoff_rel``
    * sigma_max of the whole matrix.  A half whose own relative cutoff
    keeps another set of singular values than tau does is solved again at
    tau.  The coefficients come back in state order.
    """
    if not 0.0 < cutoff_rel < 1.0:
        raise ValueError("cutoff_rel must lie in (0, 1)")
    if not any(block.any() for _, _, block in system.matrix.blocks):
        raise ValueError("design matrix is identically zero")
    triangles = _shared_qr(system.matrix, system.rhs)
    parts = [np.linalg.lstsq(r, qhb, rcond=cutoff_rel) for r, qhb, _ in triangles]
    sigma_max = max(float(sigma[0]) for *_, sigma in parts)
    tau = cutoff_rel * sigma_max
    for k, ((r, qhb, _), (_, _, rank, sigma)) in enumerate(zip(triangles, parts)):
        if np.count_nonzero(sigma > tau) != rank:
            parts[k] = np.linalg.lstsq(r, qhb, rcond=tau / sigma[0])
    # ||A c - b||**2 = ||R c - Q^H b||**2 + rho**2 for every c, summed over the halves
    residual = math.sqrt(sum(
        float(np.linalg.norm(r @ c - qhb)) ** 2 + rho**2
        for (r, qhb, rho), (c, *_) in zip(triangles, parts)
    ))
    coeff = np.concatenate([part[0] for part in parts])
    sigma = np.concatenate([part[3] for part in parts])
    kept = np.concatenate([np.arange(s.size) < rank for _, _, rank, s in parts])
    dropped = 0.0 if kept.all() else float(sigma[~kept].max())
    return SolveReport(
        _unfold(coeff), int(kept.sum()), float(cutoff_rel),
        residual, sigma_max, float(sigma[kept].min()), dropped,
    )


def _shared_qr(a, rhs):
    """The triangles (R, Q^H b, |rho|) of the even and the odd half of the system.

    Each half, and so its triangle and Q^H b, runs from its outer end.  Their
    rows before ``_fork_row`` are the same, and one stream factors them
    with the two right-hand sides [b_E | b_O]: the rows of R it emits go to
    the even triangle and are copied into the odd one.  From the fork each
    half streams its own rows (``_split_carry``).
    """
    even, odd = _halves(a)
    q_even, n_even = even.shape
    n_odd = odd.shape[1]
    b_even, b_odd = rhs[:q_even], rhs[q_even:]
    fork = _fork_row(even, odd)
    r_even = np.zeros((n_even, n_even), dtype=complex)
    qhb = np.zeros((n_even, 2), dtype=complex)
    both = np.stack([b_even[:fork], b_odd[:fork]], axis=1)
    lo, carry = _stream(even, both, 0, fork, 0, np.zeros((0, 2), dtype=complex), r_even, qhb)
    r_odd = np.zeros((n_odd, n_odd), dtype=complex)
    r_odd[:lo] = r_even[:lo, :n_odd]
    triangles = []
    for half, b, r, qhb_half, start in zip(
        (even, odd), (b_even, b_odd), (r_even, r_odd), (qhb[:, :1], qhb[:n_odd, 1:]),
        _split_carry(carry, n_odd - lo),
    ):
        _, end = _stream(half, b[:, None], fork, half.shape[0], lo, start, r, qhb_half)
        triangles.append((r, qhb_half[:, 0], _rho(end)))
    return triangles


def _halves(a):
    """The even and the odd half of the staircase, each as its own ``BlockMatrix``."""
    q, n = a.shape
    q_even, n_even = q - q // 2, n - n // 2
    split = np.searchsorted(a.row_bounds[:, 0], q_even)
    odd = tuple(
        (slice(r.start - q_even, r.stop - q_even), slice(c.start - n_even, c.stop - n_even), block)
        for r, c, block in a.blocks[split:]
    )
    return BlockMatrix((q_even, n_even), a.blocks[:split]), BlockMatrix((q - q_even, n - n_even), odd)


def _fork_row(even, odd):
    """The first row of the even half's last block, from which the halves may differ.

    That block holds the states nearest 0, and the state (0, 0) if it is in
    the set.  A state reaches the mirrors of its nodes only on rows that its window
    shares with theirs, all inside that block's rows.  The fork is at most
    one row short of the odd half, so each half streams its last rows
    itself.
    """
    return min(int(even.row_bounds[-1, 0]), odd.shape[0] - 1)


def _split_carry(carry, odd_width):
    """The carries of the even and the odd half at the fork, from that of [A | b_E | b_O].

    The even half keeps the A columns and b_E's.  The odd half keeps its
    first ``odd_width`` A columns (the even half's column of the state
    (0, 0) is its last, in its last block, so zero before the fork) and
    b_O's.  Both keep every
    row: b_E's row holds the part of b_O's residual that the QR rotated
    into it.
    """
    width = carry.shape[1] - 2
    return carry[:, :-1], np.delete(carry, np.s_[min(odd_width, width) : width + 1], axis=1)


def _rho(carry):
    # after the last rows, every column is done: the carry is [rho] or empty
    return float(abs(carry[0, 0])) if carry.size else 0.0


def _stream(a, b, start, stop, lo, carry, r, qhb):
    """Stream rows [start, stop) of [a | b] into R and Q^H b, from the state (lo, carry).

    ``b`` holds one column per right-hand side, indexed by the rows of a.
    The rows of R and of Q^H b for the columns below ``lo`` are final in
    ``r`` and ``qhb``; ``carry`` is the triangle of the rows streamed so far
    on the columns from ``lo`` on, then b's.  Each block of ``_row_step``
    rows is stacked under the carry and factored, and the rows of R whose
    columns no later row touches are written out.  Returns the new (lo,
    carry).
    """
    q, n = a.shape
    m = b.shape[1]
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
    for r0 in range(start, stop, step):
        r1 = min(r0 + step, stop)
        # rows of R for columns below `done` are final: no later row touches
        # them (the first block that stops past r1 starts at `done`); rows
        # < r1 touch columns up to the end of the last block that starts there
        begun = np.searchsorted(starts, r1)
        done = first_col[np.searchsorted(stops, r1, side="right")]
        hi = max(end_col[begun], done)
        held, width = carry.shape[0], carry.shape[1] - m
        stacked = np.zeros((held + r1 - r0, hi - lo + m), dtype=complex)
        stacked[:held, :width] = carry[:, :width]
        stacked[:held, -m:] = carry[:, width:]
        # the blocks that overlap rows [r0, r1): stops > r0 and starts < r1
        overlap = slice(np.searchsorted(stops, r0, side="right"), begun)
        for rows, cols, block in a.blocks[overlap]:
            i0, i1 = max(rows.start, r0), min(rows.stop, r1)
            stacked[held + i0 - r0 : held + i1 - r0, cols.start - lo : cols.stop - lo] = (
                block[i0 - rows.start : i1 - rows.start]
            )
        stacked[held:, -m:] = b[r0:r1]
        tri = np.linalg.qr(stacked, mode="r")
        emit = min(done - lo, tri.shape[0])
        r[lo : lo + emit, lo:hi] = tri[:emit, :-m]
        qhb[lo : lo + emit] = tri[:emit, -m:]
        carry = tri[done - lo :, done - lo :]
        lo = done
    return lo, carry


def _row_step(band, q, n):
    """Rows of A per block of ``_stream``, read off the staircase.

    A block of s rows reaches about s*n/q columns past the last, so its QR
    factors about band + s rows (the carried triangle and the block) over
    band + s*n/q columns.  Per row of A that costs (band + s*n/q)**2, plus
    the carried triangle spread over the s rows; the sum is smallest near
    s*n/q = band/4, where each array handed to the QR holds about
    (band + s) x 5/4 band entries.  A block has at least band rows, as many
    as the carried triangle, which every step factors again.
    """
    return max(band, band * q // (4 * n))


def _fold(values):
    """The even, then the odd parts of values at mirrored positions, along the first axis.

    Positions i and L-1-i are mirrors.  The ceil(L/2) even parts are
    (v[L-1-i] + v[i])/sqrt(2), i = 0, ..., L//2 - 1, then the middle value
    (L odd); the L//2 odd parts (v[L-1-i] - v[i])/sqrt(2) of the same i.  So
    each half runs from its outer end inward.  An orthogonal change of
    basis, undone by ``_unfold``.
    """
    size = len(values)
    half = size // 2
    head, mirror = values[:half], values[size - half :][::-1]
    return np.concatenate([(mirror + head) * _SQRT_HALF, values[half : size - half], (mirror - head) * _SQRT_HALF])


def _unfold(parts):
    """Values in position order from the even and odd parts of ``_fold``, along the first axis."""
    size = len(parts)
    half = size // 2
    even, middle, odd = parts[:half], parts[half : size - half], parts[size - half :]
    return np.concatenate([(even - odd) * _SQRT_HALF, middle, ((even + odd) * _SQRT_HALF)[::-1]])


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


def _blocks(index_set, nodes, coefficients=None, start=0):
    """``gs.state_blocks`` of the states ``start``, ``start`` + 1, ... of an index set."""
    x0, n = index_set.x_array()[start:], index_set.n[start:]
    return gs.state_blocks(index_set.lattice.hbar, x0, n, nodes, coefficients)
