"""Phase-space lattice and the finite index sets defining the trial space.

The lattice places position and frequency points at integer multiples of
sqrt(pi*hbar).  Index sets are selected either by thresholding the modulus
of an operator's principal symbol, on each position row inside the interval
of |n| its two roots in xi**2 bound, or by the band of pairs adapted to
plane-wave right-hand sides.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeSpec",
    "IndexSet",
    "build_symbol_set",
    "build_planewave_rhs_set",
    "search_bounds_from_symbol",
    "principal_symbol",
]


@dataclass(frozen=True)
class LatticeSpec:
    """Semiclassical lattice parameters; spacing**2 == pi*hbar exactly."""

    hbar: float

    def __post_init__(self):
        if not self.hbar > 0.0:
            raise ValueError("hbar must be positive")

    @property
    def spacing(self):
        return math.sqrt(math.pi * self.hbar)


@dataclass(frozen=True, eq=False)
class IndexSet:
    """Finite set of lattice indices [m, n], m for position and n for frequency.

    Held as two integer arrays, sorted lexicographically by (m, n).
    """

    m: np.ndarray
    n: np.ndarray
    lattice: LatticeSpec

    def __post_init__(self):
        m = np.asarray(self.m, dtype=int)
        n = np.asarray(self.n, dtype=int)
        if m.ndim != 1 or m.shape != n.shape:
            raise ValueError("m and n must be 1-D arrays of equal length")
        dm, dn = np.diff(m), np.diff(n)
        same_m = dm == 0
        if np.any(same_m & (dn == 0)):
            raise ValueError("duplicate index pairs")
        if np.any(dm < 0) or np.any(same_m & (dn < 0)):
            raise ValueError("index pairs must be sorted lexicographically")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def __len__(self):
        return self.m.size

    def x_array(self):
        return self.m * self.lattice.spacing

    def xi_array(self):
        return self.n * self.lattice.spacing


def principal_symbol(a, c, xi):
    """The principal symbol -a*xi**2 + c of an operator with coefficients (a, _, c)."""
    return -a * xi**2 + c


# rows are evaluated on |x| <= ROW_REACH; the PML's min |p| passes 240 there
ROW_REACH = 8.0


def search_bounds_from_symbol(op, delta, spec):
    """Rows m and the bracket [lo, hi] of |n| that holds each row's {|p| < delta}.

    On row x_m, |p|**2 = |a|**2 s**2 - 2 Re(a c*) s + |c|**2 - delta**2 < 0
    with s = xi**2 holds between two roots: one interval of |n|, widened by
    one lattice step each way.  The rows end before the first row past
    |x| = 1 on each side with min over xi of |p| >= delta; the rows beyond
    it, out to ROW_REACH, must stay so.
    """
    reach = math.floor(ROW_REACH / spec.spacing)
    m = np.arange(-reach, reach + 1)
    x = m * spec.spacing
    a, _, c = op.coefficients(x)
    abs_a, ac = np.abs(a), a * np.conj(c)
    if np.any((abs_a == 0.0) & (np.abs(c) < delta)):
        raise ValueError("a row with a = 0 has |p| = |c| < delta at every frequency")
    # min over s >= 0 of |p|: at the vertex s = Re(a c*)/|a|**2 if positive, else at 0
    with np.errstate(divide="ignore", invalid="ignore"):
        open_rows = np.where(ac.real > 0.0, np.abs(ac.imag) / abs_a, np.abs(c)) < delta
    right = np.flatnonzero(~open_rows & (x > 1.0))
    left = np.flatnonzero(~open_rows & (x < -1.0))
    if not (left.size and right.size):
        raise ValueError(f"rows never close on |x| <= {ROW_REACH} at delta = {delta}")
    first, last = left[-1], right[0]
    if open_rows[:first].any() or open_rows[last:].any():
        raise ValueError("min |p| falls below delta again past the closing row")
    rows = slice(first + 1, last)
    aa, r = np.maximum(abs_a[rows] ** 2, np.finfo(float).tiny), ac.real[rows]
    root = np.sqrt(np.maximum(r**2 - aa * (np.abs(c[rows]) ** 2 - delta**2), 0.0))
    lo = np.ceil(np.sqrt(np.maximum(r - root, 0.0) / aa) / spec.spacing) - 1
    hi = np.floor(np.sqrt(np.maximum(r + root, 0.0) / aa) / spec.spacing) + 1
    return m[rows], np.maximum(lo, 0).astype(int), hi.astype(int)


def build_symbol_set(spec, op, delta, bounds=None):
    """Pairs with |p(x_m, xi_n)| < delta, strictly, p the principal symbol of ``op``.

    The test runs only on each row's bracket of |n|, ``bounds`` = (m, lo, hi)
    as :func:`search_bounds_from_symbol` returns it.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if bounds is None:
        bounds = search_bounds_from_symbol(op, delta, spec)
    m, lo, hi = bounds
    a, _, c = op.coefficients(m * spec.spacing)
    # row r holds n = -hi..-lo, then lo..hi with 0 once: lexicographic as built
    count = np.maximum(hi - lo + 1, 0)
    zero = (lo == 0) & (count > 0)
    width = 2 * count - zero
    row = np.repeat(np.arange(m.size), width)
    j = np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)
    n = np.where(j < count[row], j - hi[row], j - count[row] + lo[row] + zero[row])
    sel = np.abs(principal_symbol(a[row], c[row], n * spec.spacing)) < delta
    return IndexSet(m[row][sel], n[sel], spec)


def build_planewave_rhs_set(spec, support, epsilon):
    """Band of pairs adapted to a plane-wave source over ``support``.

    Keeps pairs with dist(x_m, support) <= hbar**(1/2-epsilon) and
    ||xi_n| - 1| <= hbar**(1/2-epsilon) (non-strict).
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    lo, hi = float(support[0]), float(support[1])
    if not hi > lo:
        raise ValueError("degenerate support interval")
    tol = spec.hbar ** (0.5 - epsilon)
    h = spec.spacing
    m_lo = math.ceil((lo - tol) / h - 1e-12)
    m_hi = math.floor((hi + tol) / h + 1e-12)
    n_abs_hi = math.floor((1.0 + tol) / h + 1e-12)
    n_abs_lo = math.ceil(max(1.0 - tol, 0.0) / h - 1e-12)
    m = np.arange(m_lo, m_hi + 1)
    n_abs = np.arange(n_abs_lo, n_abs_hi + 1)
    n_abs = n_abs[np.abs(n_abs * h - 1.0) <= tol + 1e-15]
    # -n_abs then +n_abs, ascending, with n = 0 kept once
    n = np.concatenate((-n_abs[::-1], n_abs[n_abs > 0]))
    return IndexSet(np.repeat(m, n.size), np.tile(n, m.size), spec)
