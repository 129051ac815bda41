"""Exact calculus of one-dimensional Gaussian coherent states.

A state with parameters (hbar, x0, xi0) is

    Psi(x) = (pi*hbar)**(-1/4) * exp(-(x-x0)**2 / (2*hbar))
                               * exp(+1j * xi0 * (x-x0) / hbar),

which has unit L2 norm.  Derivatives are exact through the Hermite-type
polynomials q_a in the scaled displacement z = (x - x0 - 1j*xi0)/sqrt(hbar):

    d^a Psi = hbar**(-a/2) * q_a(z) * Psi,    q_0 = 1,
    q_{a+1}(z) = q_a'(z) - z * q_a(z),

held as ``numpy.polynomial.Polynomial`` objects.

Second-order operators P = hbar**2 a(x) d2 + 1j*hbar b(x) d1 + c(x), given
by one function of x that returns (a, b, c), act as a multiplier
g(x) = hbar*a*q_2(z) + 1j*sqrt(hbar)*b*q_1(z) + c times the state, so
residual factors g - p(x0, xi0) never divide by Psi numerically.

``state_blocks`` evaluates whole index sets, one block of equal x0 at a
time, on the rows with |x - x0| <= WINDOW_SIGMAS*sqrt(hbar) ~ 8.58*sqrt(hbar);
``assembly_solver.assemble`` places its rule on the union of these
windows.  Beyond them a state is below 1e-16 of its peak, under the
rounding of the entries kept, and exactly zero; no kept entry comes near
the subnormal numbers, which slow dense factorizations several-fold.  The
states sit on the lattice (x_m, xi_n) = (m, n)*h, h = sqrt(pi*hbar), and
within a block they are the real envelope amp*exp(-u**2/(2*hbar)) of the
row, u = x - x0, times the phase exp(1j*xi_n*u/hbar) = omega**n with one
root omega = exp(1j*h*u/hbar) per row.  Each run of consecutive n starts
from an exact ``exp`` of envelope and phase, as does every eighth column;
every other column is the one before it times omega, one complex multiply
per entry.  An operator adds a multiplier quadratic in xi0,

    g = G0(x) + G1(x)*xi0 + G2(x)*xi0**2,
    G0 = a*(u**2 - hbar) - 1j*b*u + c,  G1 = -2j*a*u - b,  G2 = -a.

``box_coefficients`` pairs one sampled function with every state of a
lattice box without forming the states: conj(Psi_mn(x)) is the envelope
of row m times a phase exp(-1j*n*h*x/hbar) shared by all rows, times the
sign (-1)**(m*n).

The per-state ``eval_state``, ``eval_derivative`` (through q_a) and
``apply_operator`` are the reference these are tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoherentState",
    "SecondOrderOperator",
    "constant_operator",
    "MAX_DERIVATIVE_ORDER",
    "eval_state",
    "eval_derivative",
    "apply_operator",
    "state_blocks",
    "box_coefficients",
]

MAX_DERIVATIVE_ORDER = 4
# a state is cut where it falls below this fraction of its peak: double rounding
WINDOW_TOL = 1e-16
# half width of a state's window in units of sqrt(hbar): exp(-WINDOW_SIGMAS**2/2) = WINDOW_TOL
WINDOW_SIGMAS = math.sqrt(2.0 * math.log(1.0 / WINDOW_TOL))
# every _RESEED-th column of a block starts from an exact exp too, which
# bounds the rounding the phase recurrence carries
_RESEED = 8


# q_{a+1} = q_a' - z q_a
_Q_POLYS = [np.polynomial.Polynomial([1.0])]
for _ in range(MAX_DERIVATIVE_ORDER):
    _Q_POLYS.append(_Q_POLYS[-1].deriv() - np.polynomial.Polynomial([0.0, 1.0]) * _Q_POLYS[-1])


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

    ``coefficients(x)`` returns the triple (a, b, c) at x, vectorized.
    ``constant`` is the (a, b, c) triple of a frozen-coefficient operator,
    or None; the closed form of ``analysis.quasi_orthogonality_probe``
    needs it.
    """

    coefficients: object
    constant: tuple = None


def constant_operator(a, b, c):
    """Frozen-coefficient operator P = hbar**2 a d2 + 1j*hbar b d1 + c."""
    constant = (complex(a), complex(b), complex(c))
    return SecondOrderOperator(lambda x: tuple(np.full(np.shape(x), v) for v in constant), constant)


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
    q = _Q_POLYS[order](_z(state, x))
    return state.hbar ** (-order / 2.0) * q * psi


def apply_operator(state, op, x):
    """(P Psi)(x) = hbar**2 a(x) Psi'' + 1j*hbar b(x) Psi' + c(x) Psi.

    Evaluated as the multiplier g(x) with P Psi = g Psi, times Psi.
    """
    xv = np.asarray(x, dtype=float)
    psi = eval_state(state, xv)
    z = _z(state, xv)
    hbar = state.hbar
    a, b, c = (np.asarray(v) for v in op.coefficients(xv))
    g = hbar * a * _Q_POLYS[2](z) + 1j * math.sqrt(hbar) * b * _Q_POLYS[1](z) + c
    return g * psi


def state_blocks(hbar, x0, n, x, op=None):
    """Columns of the states (hbar, x0[j], n[j]*sqrt(pi*hbar)) on nondecreasing nodes x.

    ``n`` holds the integer frequency indices of the lattice, xi0 = n * h
    with h = sqrt(pi*hbar); the positions ``x0`` are any floats.  Yields
    ``(rows, cols, block)``, ``block`` holding Psi_j, or P Psi_j for an
    operator ``op`` (coefficients sampled once on x), at ``x[rows]`` for the
    run ``cols`` of equal x0 (index sets are sorted by position).  Rows
    farther than WINDOW_SIGMAS*sqrt(hbar) from x0 are left out: zero.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = np.asarray(n)
    if n.dtype.kind not in "iu":
        raise TypeError("state_blocks takes integer frequency indices n")
    if np.any(np.diff(x) < 0.0):
        raise ValueError("state_blocks needs nondecreasing nodes")
    root = math.sqrt(hbar)
    h = math.sqrt(math.pi * hbar)
    step = h / hbar
    amp = (math.pi * hbar) ** (-0.25)
    if op is not None:
        a, b, c = (np.asarray(v) for v in op.coefficients(x))
    starts = np.flatnonzero(np.diff(x0, prepend=np.nan) != 0.0)
    for start, stop in zip(starts, np.append(starts[1:], x0.size)):
        centre = x0[start]
        lo = np.searchsorted(x, centre - WINDOW_SIGMAS * root, side="left")
        hi = np.searchsorted(x, centre + WINDOW_SIGMAS * root, side="right")
        if lo == hi:
            continue
        rows, cols = slice(lo, hi), slice(start, stop)
        u = x[rows] - centre
        theta = step * u
        nj = n[cols]
        # exact exp where a run of consecutive n starts and every _RESEED-th
        # column; in between, column j is column j-1 times omega = exp(1j*theta),
        # along contiguous columns (column-major block)
        seed = np.ones(nj.size, dtype=bool)
        seed[1:] = np.diff(nj) != 1
        seed[::_RESEED] = True
        block = np.empty((u.size, nj.size), dtype=complex, order="F")
        block[:, seed] = amp * np.exp(
            (-(u**2) / (2.0 * hbar))[:, None] + 1j * np.multiply.outer(theta, nj[seed])
        )
        omega = np.exp(1j * theta)
        for j in np.flatnonzero(~seed):
            np.multiply(block[:, j - 1], omega, out=block[:, j])
        if op is not None:
            xi = nj * h
            ar, br, cr = a[rows], b[rows], c[rows]
            g = np.empty_like(block)
            np.multiply.outer(-ar, xi, out=g)
            g += (-2j * ar * u - br)[:, None]
            g *= xi
            g += (ar * (u**2 - hbar) - 1j * br * u + cr)[:, None]
            block *= g
        yield rows, cols, block


def _conj_phase_powers(theta, p_max):
    """exp(-1j*p*theta) for p = 0..p_max, one row per p.

    Every _RESEED-th row is an exact ``exp``; each row between is the row
    before it times exp(-1j*theta), one complex multiply per entry.
    """
    table = np.empty((p_max + 1, theta.size), dtype=complex)
    table[::_RESEED] = np.exp(-1j * np.multiply.outer(np.arange(0, p_max + 1, _RESEED), theta))
    omega = np.exp(-1j * theta)
    for p in range(1, p_max + 1):
        if p % _RESEED:
            np.multiply(table[p - 1], omega, out=table[p])
    return table


def box_coefficients(hbar, m, n_max, x, gw):
    """(g, Psi_mn) = sum_q gw[q] conj(Psi_mn(x[q])) over a lattice box.

    The states sit at (x_m, xi_n) = (m, n)*h, h = sqrt(pi*hbar), for the
    integer rows ``m`` and every n = -n_max..n_max; ``x`` are nondecreasing
    nodes and ``gw`` a sampled function times the rule's weights.  Returns
    a complex (m.size, 2*n_max + 1) array, column j for n = j - n_max.

    conj(Psi_mn(x)) = amp*exp(-(x - x_m)**2/(2*hbar)) * exp(-1j*n*h*x/hbar)
    * exp(1j*xi_n*x_m/hbar), and xi_n*x_m/hbar = pi*m*n, so the last
    factor is the sign (-1)**(m*n).  One table T holds the phases
    exp(-1j*p*h*x/hbar), p = 0..n_max, for all rows.  Per row m, one real
    product of [Re T; Im T] on the state's window, the nodes within
    WINDOW_SIGMAS*sqrt(hbar) of x_m, with the real and imaginary parts of
    envelope*gw gives T w for n = p and conj(T) w for n = -p.

    Accuracy: the phases are referenced to x, not to x - x_m, so the
    rounding of an entry grows with the angle |p*h*x/hbar|, about 1e-16
    times that angle in radians; ``state_blocks`` turns angles only up to
    the window's half width in |x - x_m|.  On the plane-wave probe's
    |x| <= 0.75 the moduli of the two agree within 1e-14 of the largest up
    to hbar = 1/400.
    """
    m = np.asarray(m)
    if m.dtype.kind not in "iu":
        raise TypeError("box_coefficients takes integer lattice rows m")
    x = np.asarray(x, dtype=float)
    if np.any(np.diff(x) < 0.0):
        raise ValueError("box_coefficients needs nondecreasing nodes")
    gw = np.asarray(gw, dtype=complex)
    h = math.sqrt(math.pi * hbar)
    amp = (math.pi * hbar) ** (-0.25)
    # h/hbar = sqrt(pi/hbar), here with one rounding less
    table = _conj_phase_powers(math.sqrt(math.pi / hbar) * x, n_max)
    parts = np.concatenate((table.real, table.imag))
    g = amp * np.stack((gw.real, gw.imag), axis=1)
    centres = m * h
    reach = WINDOW_SIGMAS * math.sqrt(hbar)
    lo = np.searchsorted(x, centres - reach, side="left")
    hi = np.searchsorted(x, centres + reach, side="right")
    sums = np.empty((m.size, 2 * (n_max + 1), 2))
    for i, centre in enumerate(centres):
        rows = slice(lo[i], hi[i])
        envelope = np.exp(-((x[rows] - centre) ** 2) / (2.0 * hbar))
        np.matmul(parts[:, rows], envelope[:, None] * g[rows], out=sums[i])
    re, im = sums[:, : n_max + 1], sums[:, n_max + 1 :]
    out = np.empty((m.size, 2 * n_max + 1), dtype=complex)
    out[:, n_max:] = re[..., 0] - im[..., 1] + 1j * (re[..., 1] + im[..., 0])
    out[:, n_max::-1] = re[..., 0] + im[..., 1] + 1j * (re[..., 1] - im[..., 0])
    out[(np.multiply.outer(m, np.arange(-n_max, n_max + 1)) & 1).astype(bool)] *= -1.0
    return out
