"""Order-4 Lagrange finite element reference solver on a truncated PML domain.

Solves the sesquilinear weak form of the model operator,

    int k**-2 nu**-1 u' conj(v') - int mu nu u conj(v) = int f conj(v),

with homogeneous Dirichlet ends at +-X_end.  The default mesh size
0.02 * k**(-9/8) suppresses the pollution effect at the wavenumbers used in
the experiments.  The complex system is assembled banded (half bandwidth 4)
and solved directly.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

__all__ = ["FemMesh", "FemSolution", "fem_solve", "fem_eval", "DEFAULT_X_END"]

DEFAULT_X_END = 3.5
_DEGREE = 4
_QUAD_POINTS = 6


@dataclass(frozen=True)
class FemMesh:
    """Uniform degree-4 mesh on [-x_end, x_end]."""

    x_end: float
    h_target: float
    elements: int

    @property
    def h(self):
        return 2.0 * self.x_end / self.elements

    @property
    def dofs(self):
        return _DEGREE * self.elements + 1


@dataclass(frozen=True)
class FemSolution:
    """Nodal values plus local interpolation on the mesh."""

    mesh: FemMesh
    nodes: np.ndarray
    values: np.ndarray

    def __call__(self, x, derivative_order=0):
        return fem_eval(self, x, derivative_order)


def _reference_basis():
    # Lagrange basis on [-1, 1] through 5 equispaced points, plus derivative,
    # tabulated at the Gauss points and kept as polynomial coefficients.
    ref_pts = np.linspace(-1.0, 1.0, _DEGREE + 1)
    coeffs = []
    for i in range(_DEGREE + 1):
        roots = np.delete(ref_pts, i)
        poly = np.polynomial.Polynomial.fromroots(roots)
        coeffs.append((poly / poly(ref_pts[i])).coef)
    return ref_pts, coeffs


_REF_PTS, _BASIS_COEFFS = _reference_basis()
_BASIS_DERIV_COEFFS = [np.polynomial.polynomial.polyder(c) for c in _BASIS_COEFFS]


def _mesh_for(case, x_end, h=None):
    h_target = 0.02 * case.k ** (-9.0 / 8.0) if h is None else float(h)
    elements = max(2, math.ceil(2.0 * x_end / h_target))
    return FemMesh(float(x_end), h_target, elements)


def fem_solve(case, x_end=DEFAULT_X_END, h=None):
    """Solve the truncated weak problem for ``case``.

    Parameters
    ----------
    case : ProblemCase
    x_end : float
        Truncation point; the PML damps reflections long before it.
    h : float, optional
        Mesh size override, used by convergence studies.  Default is the
        pollution-safe 0.02 * k**(-9/8).
    """
    if x_end <= 1.0:
        raise ValueError("x_end must exceed the physical region (> 1)")
    mesh = _mesh_for(case, x_end, h)
    n_el, n_dof = mesh.elements, mesh.dofs
    h_el = mesh.h
    jac = 0.5 * h_el

    gl_x, gl_w = np.polynomial.legendre.leggauss(_QUAD_POINTS)
    phi = np.array([np.polynomial.polynomial.polyval(gl_x, c) for c in _BASIS_COEFFS]).T
    dphi = np.array([np.polynomial.polynomial.polyval(gl_x, c) for c in _BASIS_DERIV_COEFFS]).T

    left = -x_end + h_el * np.arange(n_el)
    xq = left[:, None] + jac * (gl_x[None, :] + 1.0)  # (E, Q)

    k2inv = 1.0 / case.k**2
    stiff_coef = k2inv * np.asarray(case.nu_inv(xq, 0))
    mass_coef = np.asarray(case.mu(xq)) * case.nu(xq, 0)
    f_vals = case.rhs(xq)

    # element matrices: (E, 5, 5)
    wq = gl_w[None, :]
    ke = np.einsum("eq,qi,qj->eij", wq * stiff_coef / jac, dphi, dphi)
    ke -= np.einsum("eq,qi,qj->eij", wq * mass_coef * jac, phi, phi)
    fe = np.einsum("eq,qi->ei", wq * f_vals * jac, phi)

    # banded assembly: row 4*e+i, col 4*e+j lands in band 4+i-j
    bw = _DEGREE
    ab = np.zeros((2 * bw + 1, n_dof), dtype=complex)
    rhs = np.zeros(n_dof, dtype=complex)
    base = _DEGREE * np.arange(n_el)
    for i in range(_DEGREE + 1):
        np.add.at(rhs, base + i, fe[:, i])
        for j in range(_DEGREE + 1):
            np.add.at(ab[bw + i - j], base + j, ke[:, i, j])

    # homogeneous Dirichlet ends: decouple the end dofs entirely
    for dof in (0, n_dof - 1):
        for col in range(max(0, dof - bw), min(n_dof, dof + bw + 1)):
            ab[bw + dof - col, col] = 0.0  # row
        ab[:, dof] = 0.0  # column
        ab[bw, dof] = 1.0
        rhs[dof] = 0.0

    values = solve_banded((bw, bw), ab, rhs)
    if not np.all(np.isfinite(values)):
        raise RuntimeError("banded solve produced non-finite values (singular system)")
    nodes = np.linspace(-x_end, x_end, n_dof)
    return FemSolution(mesh, nodes, values)


def fem_eval(solution, x, derivative_order=0):
    """Local degree-4 interpolation of the solution or its derivative."""
    if not 0 <= derivative_order <= 1:
        raise ValueError("derivative order must lie in [0, 1]")
    mesh = solution.mesh
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xv < -mesh.x_end - 1e-12) or np.any(xv > mesh.x_end + 1e-12):
        raise ValueError("evaluation point outside the mesh domain")
    h_el = mesh.h
    el = np.clip(((xv + mesh.x_end) / h_el).astype(int), 0, mesh.elements - 1)
    t = 2.0 * (xv - (-mesh.x_end + el * h_el)) / h_el - 1.0
    coeffs = _BASIS_COEFFS if derivative_order == 0 else _BASIS_DERIV_COEFFS
    out = np.zeros(xv.shape, dtype=complex)
    base = _DEGREE * el
    for i in range(_DEGREE + 1):
        out += solution.values[base + i] * np.polynomial.polynomial.polyval(t, coeffs[i])
    if derivative_order == 1:
        out *= 2.0 / h_el
    return out if np.ndim(x) else complex(out[0])
