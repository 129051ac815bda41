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
time, on the rows with |x - x0| <= 12*sqrt(hbar) that
``quadrature.support_window`` assumes; beyond them a state is below exp(-72)
of its peak and its tail would underflow into subnormal numbers, which slow
dense factorizations several-fold, so those entries are exactly zero.  The
per-state ``eval_state``, ``eval_derivative`` and ``apply_operator`` are the
reference it is tested against.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial import Polynomial

from .quadrature import DEFAULT_TAIL_TOL

__all__ = [
    "CoherentState",
    "SecondOrderOperator",
    "constant_operator",
    "MAX_DERIVATIVE_ORDER",
    "eval_state",
    "eval_derivative",
    "overlap",
    "pair_moments",
    "polynomial_pair_inner",
    "operator_pair_inner",
    "apply_operator",
    "state_blocks",
    "residual_polynomial",
    "iterated_residual_norm",
]

MAX_DERIVATIVE_ORDER = 4
# half width of a state's window in units of sqrt(hbar), as in support_window
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

    ``a``, ``b`` and ``c`` are vectorized callables of x.  ``symbol`` maps
    (x, xi) to the phase-space symbol used when subtracting p(x0, xi0); for
    the plain substitution d -> 1j*xi/hbar this is -a*xi**2 - b*xi + c, but a
    problem model may supply only the principal part.  ``taylor`` optionally
    returns local polynomial coefficients (a, b, c) about a point, enabling
    exact iterated-residual algebra.
    """

    a: object
    b: object
    c: object
    symbol: object
    taylor: object = None


def constant_operator(a, b, c):
    """Frozen-coefficient operator with the full substitution symbol."""
    a, b, c = complex(a), complex(b), complex(c)

    def symbol(x, xi):
        return -a * xi**2 - b * xi + c

    def taylor(x0, degree):
        return (np.array([a]), np.array([b]), np.array([c]))

    return SecondOrderOperator(
        a=lambda x: np.full_like(np.asarray(x, dtype=float), a, dtype=complex),
        b=lambda x: np.full_like(np.asarray(x, dtype=float), b, dtype=complex),
        c=lambda x: np.full_like(np.asarray(x, dtype=float), c, dtype=complex),
        symbol=symbol,
        taylor=taylor,
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


def overlap(s1, s2):
    """Closed-form L2 inner product (s1, s2) of two states with equal hbar.

    The modulus is exp(-((x1-x2)**2 + (xi1-xi2)**2) / (4*hbar)); the phase,
    obtained by completing the square, is (xi1+xi2)*(x2-x1)/(2*hbar).
    """
    if s1.hbar != s2.hbar:
        raise ValueError("overlap requires matching hbar")
    hbar = s1.hbar
    dx = s1.x0 - s2.x0
    dxi = s1.xi0 - s2.xi0
    mag = math.exp(-(dx * dx + dxi * dxi) / (4.0 * hbar))
    phase = (s1.xi0 + s2.xi0) * (s2.x0 - s1.x0) / (2.0 * hbar)
    return mag * complex(math.cos(phase), math.sin(phase))


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def pair_moments(s1, s2, jmax):
    """Exact moments I_j = int (x - xbar)**j Psi1 conj(Psi2) dx, j = 0..jmax.

    ``xbar`` is the midpoint of the two centers.  Obtained by completing the
    square; the envelope factor is the plain overlap.
    """
    if s1.hbar != s2.hbar:
        raise ValueError("pair_moments requires matching hbar")
    hbar = s1.hbar
    dxi = s1.xi0 - s2.xi0
    base = overlap(s1, s2)
    out = np.zeros(jmax + 1, dtype=complex)
    for j in range(jmax + 1):
        acc = 0.0 + 0.0j
        for ell in range(0, j + 1, 2):
            acc += (
                math.comb(j, ell)
                * (0.5j * dxi) ** (j - ell)
                * (0.5 * hbar) ** (ell // 2)
                * _double_factorial(ell - 1)
            )
        out[j] = base * acc
    return out


def polynomial_pair_inner(coeffs, center, s1, s2):
    """Closed form of (g * Psi1, Psi2) for g polynomial about ``center``.

    ``coeffs`` are lowest-degree-first coefficients of g in (x - center).
    """
    xbar = 0.5 * (s1.x0 + s2.x0)
    shifted = Polynomial(np.asarray(coeffs, dtype=complex))(
        Polynomial([xbar - center, 1.0])
    ).coef
    moments = pair_moments(s1, s2, len(shifted) - 1)
    return complex(np.dot(shifted, moments[: len(shifted)]))


def operator_pair_inner(op, s1, s2):
    """Closed form of (P Psi1, Psi2) for an operator with polynomial Taylor data.

    Exact for frozen (constant or polynomial) coefficients; the main use is
    probing quasi-orthogonality at separations where quadrature would drown
    in roundoff.
    """
    if op.taylor is None:
        raise ValueError("operator_pair_inner needs taylor coefficient data")
    g = _multiplier_poly(s1, op, degree_hint=6)
    return polynomial_pair_inner(g, s1.x0, s1, s2)


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


def state_blocks(hbar, x0, xi0, x, order=0, op=None):
    """Columns of the states (hbar, x0[j], xi0[j]) on nondecreasing nodes x.

    Yields ``(rows, cols, block)``, ``block`` holding d^order Psi_j, or P Psi_j
    for an operator ``op`` (coefficients sampled once on x), at ``x[rows]``
    for the run ``cols`` of equal x0 (index sets are sorted by position).
    Rows farther than WINDOW_SIGMAS*sqrt(hbar) from x0 are left out: zero.
    """
    if not 0 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order must lie in [0, {MAX_DERIVATIVE_ORDER}]")
    if op is not None and order:
        raise ValueError("state_blocks applies an operator or a derivative, not both")
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
        u = (x[rows] - centre)[:, None]
        xi = xi0[cols][None, :]
        block = amp * np.exp(-(u**2) / (2.0 * hbar) + 1j * xi * u / hbar)
        if op is not None or order:
            z = (u - 1j * xi) / root
        if op is not None:
            block *= (
                hbar * a[rows, None] * npoly.polyval(z, _Q_POLYS[2])
                + 1j * root * b[rows, None] * npoly.polyval(z, _Q_POLYS[1])
                + c[rows, None]
            )
        elif order:
            block *= hbar ** (-order / 2.0) * npoly.polyval(z, _Q_POLYS[order])
        yield rows, cols, block


def _poly_from_taylor(coeffs):
    return Polynomial(np.asarray(coeffs, dtype=complex))


def _multiplier_poly(state, op, degree_hint=None):
    """g as polynomial coefficients in u = x - x0 (requires taylor data)."""
    hbar = state.hbar
    a, b, c = op.taylor(state.x0, degree_hint)
    a, b, c = map(_poly_from_taylor, (a, b, c))
    # q_k(z) with z = (u - 1j*xi0)/sqrt(hbar) as polynomials in u
    z = Polynomial([-1j * state.xi0, 1.0]) / math.sqrt(hbar)
    q1 = -z
    q2 = z * z - 1.0
    g = hbar * a * q2 + 1j * math.sqrt(hbar) * b * q1 + c
    return g.coef


def residual_polynomial(state, op, L=1):
    """Coefficients in u = x - x0 of r_L with (P - p(x0,xi0))**L Psi = r_L Psi.

    Requires polynomial Taylor data on the operator.  The recursion uses

        (P - p)(g Psi) = [hbar**2 a g'' + 2 hbar a g' (1j*xi0 - u)
                          + 1j hbar b g' + g r_1] Psi,

    which follows from Psi'/Psi = (1j*xi0 - u)/hbar.
    """
    if op.taylor is None:
        raise ValueError("residual_polynomial needs taylor coefficient data")
    if L < 0:
        raise ValueError("L must be nonnegative")
    hbar = state.hbar
    a, b, _ = op.taylor(state.x0, None)
    a, b = map(_poly_from_taylor, (a, b))
    p0 = complex(op.symbol(state.x0, state.xi0))
    r1 = Polynomial(_multiplier_poly(state, op)) - p0
    lin = Polynomial([1j * state.xi0, -1.0])  # 1j*xi0 - u
    g = Polynomial([1.0 + 0.0j])
    for _ in range(L):
        dg = g.deriv()
        g = hbar**2 * a * g.deriv(2) + 2.0 * hbar * a * dg * lin + 1j * hbar * b * dg + g * r1
    return g.coef


def _gaussian_sq_moments(hbar, pmax):
    # M_p = int u**p |Psi|**2 du = (hbar/2)**(p/2) (p-1)!! for even p, else 0
    out = np.zeros(pmax + 1)
    for p in range(0, pmax + 1, 2):
        out[p] = (0.5 * hbar) ** (p // 2) * _double_factorial(p - 1)
    return out


def iterated_residual_norm(state, op, L):
    """Exact L2 norm of (P - p(x0, xi0))**L Psi for L in {1, 2, 3}.

    The operator must carry polynomial Taylor data (frozen coefficients are
    the intended use); the norm is then a finite Gaussian-moment sum.
    """
    if L not in (1, 2, 3):
        raise ValueError("L must be 1, 2 or 3")
    coeffs = residual_polynomial(state, op, L)
    sq = npoly.polymul(coeffs, np.conj(coeffs))
    moments = _gaussian_sq_moments(state.hbar, len(sq) - 1)
    val = float(np.real(np.dot(sq, moments[: len(sq)])))
    return math.sqrt(max(val, 0.0))
