"""Exact calculus of one-dimensional Gaussian coherent states.

A state with parameters (hbar, x0, xi0) is

    Psi(x) = (pi*hbar)**(-1/4) * exp(-(x-x0)**2 / (2*hbar))
                               * exp(+1j * xi0 * (x-x0) / hbar),

which has unit L2 norm.  Derivatives are exact through the Hermite-type
polynomials q_a in the scaled displacement z = (x - x0 - 1j*xi0)/sqrt(hbar):

    d^a Psi = hbar**(-a/2) * q_a(z) * Psi,    q_0 = 1,
    q_{a+1}(z) = q_a'(z) - z * q_a(z).

Second-order operators P = hbar**2 a(x) d2 + 1j*hbar b(x) d1 + c(x) act as a
multiplier g(x) = hbar*a*q_2(z) + 1j*sqrt(hbar)*b*q_1(z) + c times the state,
so residual factors g - p(x0, xi0) never divide by Psi numerically.

``state_blocks`` evaluates whole index sets, one block of equal x0 at a
time, on the rows with |x - x0| <= 12*sqrt(hbar); ``assembly_solver.assemble``
places its rule on the union of these windows.  Beyond them a state is below
exp(-72) of its peak and its tail would underflow into subnormal numbers,
which slow dense factorizations several-fold, so those entries are exactly
zero.  Within a block the states separate into a real envelope of the row,
amp*exp(-u**2/(2*hbar)) with u = x - x0, times the pure phase
exp(1j*xi0*u/hbar).  The envelope is evaluated once per row and the phase
filled in place.  An operator adds a multiplier quadratic in xi0,

    g = G0(x) + G1(x)*xi0 + G2(x)*xi0**2,
    G0 = a*(u**2 - hbar) - 1j*b*u + c,  G1 = -2j*a*u - b,  G2 = -a.

The per-state ``eval_state``, ``eval_derivative`` (through q_a) and
``apply_operator`` are the reference it is tested against.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .quadrature import DEFAULT_TAIL_TOL

__all__ = [
    "CoherentState",
    "SecondOrderOperator",
    "constant_operator",
    "MAX_DERIVATIVE_ORDER",
    "eval_state",
    "eval_derivative",
    "apply_operator",
    "state_blocks",
]

MAX_DERIVATIVE_ORDER = 4
# half width of a state's window in units of sqrt(hbar): exp(-WINDOW_SIGMAS**2/2) = DEFAULT_TAIL_TOL
WINDOW_SIGMAS = math.sqrt(2.0 * math.log(1.0 / DEFAULT_TAIL_TOL))


def _q_polynomials(max_order):
    # q_{a+1} = q_a' - z q_a, stored lowest-degree-first.
    polys = [np.array([1.0])]
    for _ in range(max_order):
        q = polys[-1]
        dq = npoly.polyder(q)
        zq = np.concatenate(([0.0], q))
        size = max(dq.size, zq.size)
        nxt = np.zeros(size)
        nxt[: dq.size] += dq
        nxt[: zq.size] -= zq
        polys.append(nxt)
    return polys


_Q_POLYS = _q_polynomials(MAX_DERIVATIVE_ORDER)


@dataclass(frozen=True)
class CoherentState:
    """Parameters of one unit-norm Gaussian coherent state."""

    hbar: float
    x0: float
    xi0: float

    def __post_init__(self):
        if not self.hbar > 0.0:
            raise ValueError("hbar must be positive")


@dataclass(frozen=True)
class SecondOrderOperator:
    """Semiclassical operator P = hbar**2 a d2 + 1j*hbar b d1 + c.

    ``a``, ``b`` and ``c`` are vectorized callables of x.  ``constant`` is
    the (a, b, c) triple of a frozen-coefficient operator, or None; the
    closed form of ``analysis.quasi_orthogonality_probe`` needs it.
    """

    a: object
    b: object
    c: object
    constant: tuple = None


def constant_operator(a, b, c):
    """Frozen-coefficient operator P = hbar**2 a d2 + 1j*hbar b d1 + c."""
    a, b, c = complex(a), complex(b), complex(c)
    return SecondOrderOperator(
        a=lambda x: np.full_like(np.asarray(x, dtype=float), a, dtype=complex),
        b=lambda x: np.full_like(np.asarray(x, dtype=float), b, dtype=complex),
        c=lambda x: np.full_like(np.asarray(x, dtype=float), c, dtype=complex),
        constant=(a, b, c),
    )


def _z(state, x):
    u = np.asarray(x, dtype=float) - state.x0
    return (u - 1j * state.xi0) / math.sqrt(state.hbar)


def eval_state(state, x):
    """Value of the state at x (scalar or array)."""
    u = np.asarray(x, dtype=float) - state.x0
    amp = (math.pi * state.hbar) ** (-0.25)
    return amp * np.exp(-(u**2) / (2.0 * state.hbar) + 1j * state.xi0 * u / state.hbar)


def eval_derivative(state, order, x):
    """Exact order-th derivative of the state at x."""
    if not 0 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must lie in [0, {MAX_DERIVATIVE_ORDER}]")
    psi = eval_state(state, x)
    if order == 0:
        return psi
    q = npoly.polyval(_z(state, x), _Q_POLYS[order])
    return state.hbar ** (-order / 2.0) * q * psi


def apply_operator(state, op, x):
    """(P Psi)(x) = hbar**2 a(x) Psi'' + 1j*hbar b(x) Psi' + c(x) Psi.

    Evaluated as the multiplier g(x) with P Psi = g Psi, times Psi.
    """
    xv = np.asarray(x, dtype=float)
    psi = eval_state(state, xv)
    z = _z(state, xv)
    hbar = state.hbar
    g = (
        hbar * np.asarray(op.a(xv)) * npoly.polyval(z, _Q_POLYS[2])
        + 1j * math.sqrt(hbar) * np.asarray(op.b(xv)) * npoly.polyval(z, _Q_POLYS[1])
        + np.asarray(op.c(xv))
    )
    return g * psi


def state_blocks(hbar, x0, xi0, x, op=None):
    """Columns of the states (hbar, x0[j], xi0[j]) on nondecreasing nodes x.

    Yields ``(rows, cols, block)``, ``block`` holding Psi_j, or P Psi_j for
    an operator ``op`` (coefficients sampled once on x), at ``x[rows]`` for
    the run ``cols`` of equal x0 (index sets are sorted by position).  Rows
    farther than WINDOW_SIGMAS*sqrt(hbar) from x0 are left out: zero.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    xi0 = np.asarray(xi0, dtype=float)
    if np.any(np.diff(x) < 0.0):
        raise ValueError("state_blocks needs nondecreasing nodes")
    root = math.sqrt(hbar)
    amp = (math.pi * hbar) ** (-0.25)
    if op is not None:
        a, b, c = (np.asarray(f(x)) for f in (op.a, op.b, op.c))
    starts = np.flatnonzero(np.diff(x0, prepend=np.nan) != 0.0)
    for start, stop in zip(starts, np.append(starts[1:], x0.size)):
        centre = x0[start]
        lo = np.searchsorted(x, centre - WINDOW_SIGMAS * root, side="left")
        hi = np.searchsorted(x, centre + WINDOW_SIGMAS * root, side="right")
        if lo == hi:
            continue
        rows, cols = slice(lo, hi), slice(start, stop)
        u = x[rows] - centre
        xi = xi0[cols]
        block = np.empty((u.size, xi.size), dtype=complex)
        np.multiply.outer(u / hbar, xi, out=block.real)
        np.sin(block.real, out=block.imag)
        np.cos(block.real, out=block.real)
        block *= (amp * np.exp(-(u**2) / (2.0 * hbar)))[:, None]
        if op is not None:
            ar, br, cr = a[rows], b[rows], c[rows]
            g = np.empty_like(block)
            np.multiply.outer(-ar, xi, out=g)
            g += (-2j * ar * u - br)[:, None]
            g *= xi
            g += (ar * (u**2 - hbar) - 1j * br * u + cr)[:, None]
            block *= g
        yield rows, cols, block
