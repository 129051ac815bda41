"""Physical and PML coefficients of the 1D model problems.

Both experiment cases share the semiclassical operator

    P_k u = -mu*nu*u - k**(-2) * (nu**(-1) * u')',

with nu = 1 + 1j*sigma and sigma a quartic stretching supported outside
[-1, 1].  The paper writes the operator with a second coefficient alpha in
front of nu**(-1); both of its 1D experiments take alpha = 1, so it is left
out here.  The homogeneous case (mu = 1) carries the closed-form solution
phi(x)*exp(1j*k*x) built from a degree-7 C3 bridge; the heterogeneous case
raises mu to 2 on [-0.7, 0.7] and has no closed form.
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
    """Value or derivative (order <= 3) of the C3 bridge S on [0, 1]."""
    if not 0 <= order <= 3:
        raise ValueError("bridge derivative order must lie in [0, 3]")
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
    """Even C3 plateau: 1 on [-1/2, 1/2], degree-7 bridge down to 0 at 3/4."""
    if not 0 <= order <= 3:
        raise ValueError("phi derivative order must lie in [0, 3]")
    return _even_bridge(x, order, 0.5, 0.75)


def mu_heterogeneous(x, order=0):
    """Even C3 coefficient: 2 on [-0.7, 0.7], bridge down to 1 beyond 0.8."""
    if not 0 <= order <= 3:
        raise ValueError("mu derivative order must lie in [0, 3]")
    out = _even_bridge(x, order, 0.7, 0.8)
    if order == 0:
        out = out + 1.0
    return out


def _unit_mu(x):
    return np.ones_like(np.asarray(x, dtype=float))


# the PML onset (|x| = 1) and the joints of the source's phi (|x| = 0.5,
# 0.75), or of mu and the source (mu - 1) e^{ikx} (|x| = 0.7, 0.8)
_HOMOGENEOUS_BREAKPOINTS = (-1.0, -0.75, -0.5, 0.5, 0.75, 1.0)
_HETEROGENEOUS_BREAKPOINTS = (-1.0, -0.8, -0.7, 0.7, 0.8, 1.0)


def _cutoff_wave_source(x, k):
    # P_k (phi e^{ikx}) for mu = 1, where the PML is inactive
    return -(cutoff_phi(x, 2) + 2j * k * cutoff_phi(x, 1)) * np.exp(1j * k * x) / k**2


def _contrast_wave_source(x, k):
    return (np.asarray(mu_heterogeneous(x, 0)) - 1.0) * np.exp(1j * k * x)


@dataclass(frozen=True)
class ProblemCase:
    """One model problem: coefficients, wavenumber, source and exact solution.

    ``mu(x)`` is the coefficient mu and ``source(x, k)`` the right-hand side.
    ``breakpoints`` are the sorted points where a coefficient or the source
    is only C3: the joints of phi or mu and the PML onset.
    """

    name: str
    k: float
    mu: object
    has_exact_solution: bool
    source: object
    breakpoints: tuple

    @staticmethod
    def homogeneous(k):
        if k < 1.0:
            raise ValueError("wavenumber must satisfy k >= 1")
        return ProblemCase(
            "homogeneous",
            float(k),
            _unit_mu,
            True,
            _cutoff_wave_source,
            _HOMOGENEOUS_BREAKPOINTS,
        )

    @staticmethod
    def heterogeneous(k):
        if k < 1.0:
            raise ValueError("wavenumber must satisfy k >= 1")
        return ProblemCase(
            "heterogeneous",
            float(k),
            mu_heterogeneous,
            False,
            _contrast_wave_source,
            _HETEROGENEOUS_BREAKPOINTS,
        )

    @staticmethod
    def from_name(name, k):
        try:
            factory = {
                "homogeneous": ProblemCase.homogeneous,
                "heterogeneous": ProblemCase.heterogeneous,
            }[name]
        except KeyError:
            raise ValueError(f"unknown case {name!r}") from None
        return factory(k)

    # -- PML scaling and derived coefficient algebra ------------------------

    def nu(self, x, order=0):
        """nu = 1 + 1j*sigma (order 0) or its derivative (order 1)."""
        s = pml_sigma(x, order)
        if order == 0:
            return 1.0 + 1j * np.asarray(s)
        return 1j * np.asarray(s)

    def nu_inv(self, x, order=0):
        """nu**(-1) (order 0) or its derivative -nu'/nu**2 (order 1)."""
        if not 0 <= order <= 1:
            raise ValueError("nu_inv derivative order must lie in [0, 1]")
        g0 = 1.0 / self.nu(x, 0)
        if order == 0:
            return g0
        return -self.nu(x, 1) * g0**2

    # -- operator, symbol, source, solution ---------------------------------

    def symbol(self, x, xi):
        """Principal symbol nu**(-1)*xi**2 - mu*nu.

        The order-(1/k) first-derivative term of the operator is excluded.
        """
        xi = np.asarray(xi, dtype=float)
        return self.nu_inv(x, 0) * xi**2 - np.asarray(self.mu(x)) * self.nu(x, 0)

    def rhs(self, x):
        """Source term, normalized so that P_k u = rhs for the stated solution."""
        val = self.source(np.asarray(x, dtype=float), self.k)
        return val if val.ndim else complex(val)

    def exact_solution(self, x, order=0):
        """phi(x)*exp(1j*k*x) and its first derivative (homogeneous case only)."""
        if not self.has_exact_solution:
            raise ValueError(f"case {self.name!r} has no closed-form solution")
        if not 0 <= order <= 1:
            raise ValueError("solution derivative order must lie in [0, 1]")
        xv = np.asarray(x, dtype=float)
        wave = np.exp(1j * self.k * xv)
        if order == 0:
            val = cutoff_phi(xv, 0) * wave
        else:
            val = (cutoff_phi(xv, 1) + 1j * self.k * cutoff_phi(xv, 0)) * wave
        return val if val.ndim else complex(val)

    def operator(self):
        """The coefficient triple form of P_k for the state calculus.

        a = -nu**(-1), 1j*hbar*b = -hbar**2*(nu**(-1))', and
        c = -mu*nu, with hbar = 1/k.  Its coefficients vary, so it has no
        ``constant`` triple: the closed forms run on ``constant_operator``.
        """
        hbar = 1.0 / self.k

        def a(x):
            return -self.nu_inv(x, 0)

        def b(x):
            return 1j * hbar * self.nu_inv(x, 1)

        def c(x):
            return -np.asarray(self.mu(x)) * self.nu(x, 0)

        return SecondOrderOperator(a=a, b=b, c=c)

    def rhs_support(self):
        return (-1.0, 1.0)
