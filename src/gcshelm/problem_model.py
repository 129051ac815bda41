"""Physical and PML coefficients of the 1D model problems.

Both experiment cases share the semiclassical operator

    P_k u = -mu*nu*u - k**(-2) * (nu**(-1) * u')',

with nu = 1 + 1j*sigma and sigma a quartic stretching supported outside
[-1, 1].  The paper writes the operator with a second coefficient alpha in
front of nu**(-1); both of its 1D experiments take alpha = 1, so it is left
out here.  ``ProblemCase.operator()`` is the one place that writes the
coefficients of P_k: the principal symbol and the FEM weak form read its
(a, c) pair.  Each case is one row of ``_CASES``: the homogeneous case
(mu = 1) carries the closed-form solution phi(x)*exp(1j*k*x) built from a
degree-7 C3 bridge; the heterogeneous case raises mu to 2 on [-0.7, 0.7]
and has no closed form.
"""

from dataclasses import dataclass

import numpy as np

from .gaussian_states import SecondOrderOperator

__all__ = [
    "BRIDGE_COEFFS",
    "bridge_eval",
    "pml_sigma",
    "cutoff_phi",
    "mu_heterogeneous",
    "ProblemCase",
    "PML_AMPLITUDE",
    "PML_EXPONENT",
]

PML_AMPLITUDE = 0.1
PML_EXPONENT = 4

# Unique degree-7 polynomial with S(0)=0, S(1)=1 and triple-flat ends,
# lowest degree first.  Re-derived against the two-point Hermite system in
# the test suite.
BRIDGE_COEFFS = np.array([0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0])


def bridge_eval(t, order=0):
    """Value or derivative (order <= 2) of the C3 bridge S on [0, 1]."""
    if not 0 <= order <= 2:
        raise ValueError("bridge derivative order must lie in [0, 2]")
    tv = np.asarray(t, dtype=float)
    if np.any(tv < -1e-14) or np.any(tv > 1.0 + 1e-14):
        raise ValueError("bridge argument outside [0, 1]")
    coeffs = np.polynomial.polynomial.polyder(BRIDGE_COEFFS, order) if order else BRIDGE_COEFFS
    out = np.polynomial.polynomial.polyval(np.clip(tv, 0.0, 1.0), coeffs)
    return out if out.ndim else float(out)


def pml_sigma(x, order=0):
    """Quartic PML stretching a*(|x|-1)**4 outside [-1, 1], a = 1/10."""
    if not 0 <= order <= 1:
        raise ValueError("sigma derivative order must lie in [0, 1]")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xv)
    right = xv > 1.0
    left = xv < -1.0
    fall = [1.0, 4.0][order]
    p = PML_EXPONENT - order
    out[right] = PML_AMPLITUDE * fall * (xv[right] - 1.0) ** p
    # chain rule for the mirrored branch: d/dx (-1-x) = -1
    out[left] = PML_AMPLITUDE * fall * (-1.0 - xv[left]) ** p * (-1.0) ** order
    return out if np.ndim(x) else float(out[0])


def _even_bridge(x, order, lo, hi):
    """Even C3 plateau: 1 for |x| <= lo, bridge down to 0 for |x| >= hi."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.abs(xv)
    scale = 1.0 / (hi - lo)
    out = np.zeros_like(xv)
    if order == 0:
        out[r <= lo] = 1.0
    mid = (r > lo) & (r < hi)
    if np.any(mid):
        t = (hi - r[mid]) * scale
        val = bridge_eval(t, order)
        # d/dx t = -scale * sign(x)
        out[mid] = val * (-scale * np.sign(xv[mid])) ** order
    return out if np.ndim(x) else float(out[0])


def cutoff_phi(x, order=0):
    """Even C3 plateau: 1 on [-1/2, 1/2], degree-7 bridge down to 0 at 3/4.

    ``order`` <= 2 selects a derivative; the source needs no higher one.
    """
    if not 0 <= order <= 2:
        raise ValueError("phi derivative order must lie in [0, 2]")
    return _even_bridge(x, order, 0.5, 0.75)


def mu_heterogeneous(x):
    """Even C3 coefficient: 2 on [-0.7, 0.7], bridge down to 1 beyond 0.8."""
    return _even_bridge(x, 0, 0.7, 0.8) + 1.0


def _unit_mu(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _cutoff_wave_source(x, k):
    # P_k (phi e^{ikx}) for mu = 1, where the PML is inactive
    return -(cutoff_phi(x, 2) + 2j * k * cutoff_phi(x, 1)) * np.exp(1j * k * x) / k**2


def _cutoff_wave(x, k):
    # (u, u') of u = phi e^{ikx}
    wave = np.exp(1j * k * x)
    phi = cutoff_phi(x, 0)
    return phi * wave, (cutoff_phi(x, 1) + 1j * k * phi) * wave


def _contrast_wave_source(x, k):
    return (mu_heterogeneous(x) - 1.0) * np.exp(1j * k * x)


# name -> (mu, source, closed-form solution or None, breakpoints).  The
# breakpoints are the PML onset (|x| = 1) and the joints of the source's phi
# (|x| = 0.5, 0.75), or of mu and the source (mu - 1) e^{ikx} (|x| = 0.7, 0.8).
_CASES = {
    "homogeneous": (_unit_mu, _cutoff_wave_source, _cutoff_wave, (-1.0, -0.75, -0.5, 0.5, 0.75, 1.0)),
    "heterogeneous": (mu_heterogeneous, _contrast_wave_source, None, (-1.0, -0.8, -0.7, 0.7, 0.8, 1.0)),
}


@dataclass(frozen=True)
class ProblemCase:
    """One model problem: coefficients, wavenumber, source and exact solution.

    ``mu(x)`` is the coefficient mu, ``source(x, k)`` the right-hand side
    and ``solution(x, k)`` the closed-form (u, u'), or None where the case
    has none.  ``breakpoints`` are the sorted points where a coefficient or
    the source is only C3: the joints of phi or mu and the PML onset.
    """

    name: str
    k: float
    mu: object
    source: object
    solution: object
    breakpoints: tuple

    @staticmethod
    def from_name(name, k):
        """The case of ``_CASES`` called ``name``, at wavenumber k >= 1."""
        if name not in _CASES:
            raise ValueError(f"unknown case {name!r}")
        if k < 1.0:
            raise ValueError("wavenumber must satisfy k >= 1")
        return ProblemCase(name, float(k), *_CASES[name])

    @staticmethod
    def homogeneous(k):
        return ProblemCase.from_name("homogeneous", k)

    @staticmethod
    def heterogeneous(k):
        return ProblemCase.from_name("heterogeneous", k)

    def operator(self):
        """P_k as the coefficient triple of the state calculus.

        P = hbar**2 a d2 + 1j*hbar b d1 + c with hbar = 1/k, a = -nu**(-1),
        b = 1j*hbar*(nu**(-1))' and c = -mu*nu.  P_k is in divergence form,
        1j*hbar*b = hbar**2 a', so P = hbar**2 (a u')' + c u.  Its
        coefficients vary, so it has no ``constant`` triple: the closed
        forms run on ``constant_operator``.
        """
        hbar = 1.0 / self.k

        def stretch(x):
            # nu = 1 + 1j*sigma
            return 1.0 + 1j * np.asarray(pml_sigma(x))

        def a(x):
            return -(1.0 / stretch(x))

        def b(x):
            # (nu**(-1))' = -nu'/nu**2 with nu' = 1j*sigma'
            return 1j * hbar * (-(1j * np.asarray(pml_sigma(x, 1))) * (1.0 / stretch(x)) ** 2)

        def c(x):
            return -np.asarray(self.mu(x)) * stretch(x)

        return SecondOrderOperator(a=a, b=b, c=c)

    def symbol(self, x, xi):
        """Principal symbol -a*xi**2 + c = nu**(-1)*xi**2 - mu*nu of ``operator()``.

        The order-(1/k) first-derivative term b is excluded.
        """
        op = self.operator()
        xi = np.asarray(xi, dtype=float)
        return -op.a(x) * xi**2 + op.c(x)

    def rhs(self, x):
        """Source term, normalized so that P_k u = rhs for the stated solution."""
        val = self.source(np.asarray(x, dtype=float), self.k)
        return val if val.ndim else complex(val)

    def exact_solution(self, x):
        """The closed-form solution and its derivative (u, u') at x."""
        if self.solution is None:
            raise ValueError(f"case {self.name!r} has no closed-form solution")
        return self.solution(np.asarray(x, dtype=float), self.k)

    def rhs_support(self):
        return (-1.0, 1.0)
