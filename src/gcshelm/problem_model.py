"""Physical and PML coefficients of the 1D model problems.

Both experiment cases share the semiclassical operator

    P_k u = -mu*nu*u - k**(-2) * (nu**(-1) * u')',

with nu = 1 + 1j*sigma and sigma a quartic stretching supported outside
[-1, 1].  The paper writes the operator with a second coefficient alpha in
front of nu**(-1); both of its 1D experiments take alpha = 1, so it is left
out here.  The pieces are polynomial data: the cutoff phi and the contrast
mu are even C3 plateaus built from one degree-7 bridge S, a
``numpy.polynomial.Polynomial`` evaluated at a clipped argument, and
``pml_sigma`` returns the pair (sigma, sigma').  ``ProblemCase.operator()``
is the one place that writes the coefficients of P_k, as one function of x
returning (a, b, c): the principal symbol and the FEM weak form read its
(a, c) pair.  Each case is one row of ``_CASES``: the homogeneous case
(mu = 1) carries the closed-form solution phi(x)*exp(1j*k*x); the
heterogeneous case raises mu to 2 on [-0.7, 0.7] and has no closed form.
"""

from dataclasses import dataclass

import numpy as np

from .gaussian_states import SecondOrderOperator

__all__ = [
    "BRIDGE_COEFFS",
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


_BRIDGE = np.polynomial.Polynomial(BRIDGE_COEFFS)
_BRIDGE_DERIVS = (_BRIDGE, _BRIDGE.deriv(), _BRIDGE.deriv(2))


def _plateau(x, lo, hi, order):
    """d^order/dx^order of the even C3 plateau: 1 on |x| <= lo, S down to 0 at |x| = hi.

    S and its first three derivatives are flat at both ends, so clipping its
    argument to [0, 1] gives exactly 1 and 0 off the bridge, and exactly 0
    for the derivatives.
    """
    scale = 1.0 / (hi - lo)
    t = np.clip((hi - np.abs(x)) * scale, 0.0, 1.0)
    # d/dx t = -scale * sign(x)
    return _BRIDGE_DERIVS[order](t) * (-scale * np.sign(x)) ** order


def pml_sigma(x):
    """(sigma, sigma') of the quartic PML stretching a*(|x|-1)**4 outside [-1, 1], a = 1/10."""
    d = np.maximum(np.abs(x) - 1.0, 0.0)
    sigma = PML_AMPLITUDE * d**PML_EXPONENT
    return sigma, PML_AMPLITUDE * PML_EXPONENT * d ** (PML_EXPONENT - 1) * np.sign(x)


def cutoff_phi(x, order=0):
    """Even C3 plateau: 1 on [-1/2, 1/2], degree-7 bridge down to 0 at 3/4.

    ``order`` <= 2 selects a derivative; the source needs no higher one.
    """
    if not 0 <= order <= 2:
        raise ValueError("phi derivative order must lie in [0, 2]")
    return _plateau(x, 0.5, 0.75, order)


def mu_heterogeneous(x):
    """Even C3 coefficient: 2 on [-0.7, 0.7], bridge down to 1 beyond 0.8."""
    return _plateau(x, 0.7, 0.8, 0) + 1.0


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
        b = 1j*hbar*(nu**(-1))' and c = -mu*nu, all from one evaluation of
        (sigma, sigma').  P_k is in divergence form, 1j*hbar*b = hbar**2 a',
        so P = hbar**2 (a u')' + c u.  Its coefficients vary, so it has no
        ``constant`` triple: the closed forms run on ``constant_operator``.
        """
        hbar = 1.0 / self.k

        def coefficients(x):
            sigma, dsigma = pml_sigma(x)
            nu = 1.0 + 1j * sigma
            inv = 1.0 / nu
            # (nu**(-1))' = -nu'/nu**2 with nu' = 1j*sigma'
            return -inv, 1j * hbar * (-(1j * dsigma) * inv**2), -np.asarray(self.mu(x)) * nu

        return SecondOrderOperator(coefficients)

    def symbol(self, x, xi):
        """Principal symbol -a*xi**2 + c = nu**(-1)*xi**2 - mu*nu of ``operator()``.

        The order-(1/k) first-derivative term b is excluded.
        """
        a, _, c = self.operator().coefficients(x)
        return -a * np.asarray(xi, dtype=float) ** 2 + c

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
