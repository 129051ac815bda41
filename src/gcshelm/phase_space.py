"""Phase-space lattice and the finite index sets defining the trial space.

The lattice places position and frequency points at integer multiples of
sqrt(pi*hbar).  Index sets are selected either by thresholding the modulus
of a symbol or by the band of pairs adapted to plane-wave right-hand sides.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeSpec",
    "IndexPair",
    "IndexSet",
    "lattice_point",
    "build_symbol_set",
    "build_planewave_rhs_set",
    "search_bounds_from_symbol",
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


@dataclass(frozen=True, order=True)
class IndexPair:
    """One lattice index [m, n]: m indexes position, n indexes frequency."""

    m: int
    n: int


@dataclass(frozen=True)
class IndexSet:
    """Finite, lexicographically ordered collection of lattice index pairs."""

    members: tuple
    lattice: LatticeSpec

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate index pairs")
        if list(self.members) != sorted(self.members):
            raise ValueError("members must be sorted lexicographically")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def m_array(self):
        return np.array([p.m for p in self.members], dtype=int)

    def n_array(self):
        return np.array([p.n for p in self.members], dtype=int)

    def x_array(self):
        return self.m_array() * self.lattice.spacing

    def xi_array(self):
        return self.n_array() * self.lattice.spacing


def lattice_point(m, spec):
    """Coordinate of lattice index m: sqrt(pi*hbar)*m (same map for m and n)."""
    return spec.spacing * m


def _ordered(pairs):
    return tuple(sorted(IndexPair(int(m), int(n)) for m, n in pairs))


def _symbol_modulus_grid(symbol, spec, m_max, n_max):
    ms = np.arange(-m_max, m_max + 1)
    ns = np.arange(-n_max, n_max + 1)
    x = ms * spec.spacing
    xi = ns * spec.spacing
    vals = symbol(x[:, None], xi[None, :])
    return ms, ns, np.abs(np.asarray(vals, dtype=complex))


def build_symbol_set(spec, symbol, delta, bounds=None):
    """Pairs with |symbol(x_m, xi_n)| < delta, strictly.

    ``bounds`` is the (m_max, n_max) search box; when omitted it is found by
    :func:`search_bounds_from_symbol`.  A selected pair on the box boundary
    means the box was too small and raises.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if bounds is None:
        bounds = search_bounds_from_symbol(symbol, delta, spec)
    m_max, n_max = int(bounds[0]), int(bounds[1])
    ms, ns, mod = _symbol_modulus_grid(symbol, spec, m_max, n_max)
    sel = mod < delta
    mi, ni = np.nonzero(sel)
    m_sel = ms[mi]
    n_sel = ns[ni]
    if m_sel.size:
        if np.abs(m_sel).max() >= m_max or np.abs(n_sel).max() >= n_max:
            raise ValueError(
                f"selected pairs touch the search box boundary {bounds}; enlarge bounds"
            )
    order = np.lexsort((n_sel, m_sel))
    pairs = tuple(IndexPair(int(m_sel[i]), int(n_sel[i])) for i in order)
    return IndexSet(pairs, spec)


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
    pairs = []
    for m in range(m_lo, m_hi + 1):
        for n_abs in range(n_abs_lo, n_abs_hi + 1):
            if abs(abs(n_abs * h) - 1.0) <= tol + 1e-15:
                if n_abs == 0:
                    pairs.append((m, 0))
                else:
                    pairs.append((m, n_abs))
                    pairs.append((m, -n_abs))
    return IndexSet(_ordered(pairs), spec)


def search_bounds_from_symbol(symbol, delta, spec, max_doublings=16):
    """Box half-widths enclosing the sublevel set {|p| < delta}.

    Doubles the box outward until every lattice point on the box shell has
    |p| >= 1.1 * delta.  Requires the symbol to be coercive in xi for each
    x in a bounded window (true for PML Helmholtz symbols); the initial box
    is sized to straddle the order-one characteristic set so the doubling
    cannot settle inside a hole of the energy layer.
    """
    # not 1.1 * delta: the two differ in the last bit for about half of all deltas
    threshold = delta + 0.1 * delta
    scale = 1.5 * max(2.0, math.sqrt(1.0 + delta))
    m_max = n_max = max(8, math.ceil(scale / spec.spacing) + 2)
    for _ in range(max_doublings):
        ms = np.arange(-m_max, m_max + 1)
        ns = np.arange(-n_max, n_max + 1)
        x_edge = np.array([-m_max, m_max]) * spec.spacing
        xi_edge = np.array([-n_max, n_max]) * spec.spacing
        x_all = ms * spec.spacing
        xi_all = ns * spec.spacing
        shell_vals = [
            symbol(x_edge[:, None], xi_all[None, :]),
            symbol(x_all[:, None], xi_edge[None, :]),
        ]
        clean = all(np.all(np.abs(np.asarray(v, dtype=complex)) >= threshold) for v in shell_vals)
        if clean:
            return (m_max, n_max)
        m_max *= 2
        n_max *= 2
    raise RuntimeError(
        f"no clean shell after {max_doublings} doublings; symbol looks non-coercive"
    )
