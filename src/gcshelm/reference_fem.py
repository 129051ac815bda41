"""Order-4 Lagrange finite element reference solver on a truncated PML domain.

Solves the sesquilinear weak form of the model operator,

    int k**-2 nu**-1 u' conj(v') - int mu nu u conj(v) = int f conj(v),

with its coefficients read off one call of
``case.operator().coefficients``: -a/k**2 = nu**-1/k**2
for the stiffness and -c = mu*nu for the mass.  That weak form holds
because P_k is in divergence form, 1j*hbar*b = hbar**2 a', so
P_k u = k**-2 (a u')' + c u.  It is posed on [-DEFAULT_X_END,
DEFAULT_X_END] = [-3.5, 3.5], where the PML has long damped every
reflection, with homogeneous Dirichlet ends.  The coefficients and the
source are only C3 at the case's breakpoints, so the default mesh puts
element edges on them: every breakpoint and the end are multiples of
MESH_UNIT = 0.05, and the elements are MESH_UNIT/j wide with
j = ceil(MESH_RESOLUTION * k**(9/8)).  Convergence studies pass an
element count instead.  An aligned mesh converges at the full order 4, and
the k**(9/8) growth keeps the pollution effect in check.
MESH_RESOLUTION = 0.5 is chosen for a relative H1_k error on [-1, 1] of at
most 2e-8, which tests/test_reference_fem.py holds it to.  The Lagrange
basis and its derivative are ``numpy.polynomial.Polynomial`` objects, and
the element matrices are two products with their products tabulated at
the Gauss points.  The complex
system is assembled banded (half bandwidth 4), and the Dirichlet ends are
imposed by solving it on the interior dofs alone.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FemMesh",
    "FemSolution",
    "fem_solve",
    "DEFAULT_X_END",
    "MESH_UNIT",
    "MESH_RESOLUTION",
]

DEFAULT_X_END = 3.5
MESH_UNIT = 0.05
MESH_RESOLUTION = 0.5
_DEGREE = 4
_QUAD_POINTS = 6


@dataclass(frozen=True)
class FemMesh:
    """Uniform degree-4 mesh on [-x_end, x_end]."""

    x_end: float
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

    def __call__(self, x):
        """(u, u') at x by local degree-4 interpolation, one element lookup for both."""
        mesh = self.mesh
        xv = np.asarray(x, dtype=float)
        if np.any(xv < -mesh.x_end - 1e-12) or np.any(xv > mesh.x_end + 1e-12):
            raise ValueError("evaluation point outside the mesh domain")
        el = np.clip(((xv + mesh.x_end) / mesh.h).astype(int), 0, mesh.elements - 1)
        t = 2.0 * (xv - (-mesh.x_end + el * mesh.h)) / mesh.h - 1.0
        u = np.zeros(xv.shape, dtype=complex)
        du = np.zeros(xv.shape, dtype=complex)
        base = _DEGREE * el
        for i in range(_DEGREE + 1):
            u += self.values[base + i] * _BASIS[i](t)
            du += self.values[base + i] * _DBASIS[i](t)
        return u, du * (2.0 / mesh.h)


# Lagrange basis on [-1, 1] through 5 equispaced points, and its derivative
_REF_PTS = np.linspace(-1.0, 1.0, _DEGREE + 1)
_BASIS = [
    (p := np.polynomial.Polynomial.fromroots(np.delete(_REF_PTS, i))) / p(_REF_PTS[i])
    for i in range(_DEGREE + 1)
]
_DBASIS = [p.deriv() for p in _BASIS]

# the basis and its derivative at the Gauss points, (6, 5), and their
# products phi_i*phi_j and dphi_i*dphi_j flattened to (6, 25)
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_QUAD_POINTS)
_PHI = np.array([p(_GAUSS_X) for p in _BASIS]).T
_DPHI = np.array([p(_GAUSS_X) for p in _DBASIS]).T
_MASS = (_PHI[:, :, None] * _PHI[:, None, :]).reshape(_QUAD_POINTS, -1)
_STIFF = (_DPHI[:, :, None] * _DPHI[:, None, :]).reshape(_QUAD_POINTS, -1)


def _mesh_for(case):
    units = [p / MESH_UNIT for p in (*case.breakpoints, DEFAULT_X_END)]
    if any(abs(u - round(u)) > 1e-9 for u in units):
        raise ValueError(f"breakpoints and x_end must be multiples of {MESH_UNIT}")
    j = math.ceil(MESH_RESOLUTION * case.k ** (9.0 / 8.0))
    return FemMesh(DEFAULT_X_END, 2 * round(units[-1]) * j)


def _element_system(case, mesh):
    """Element matrices (E, 5, 5) and load vectors (E, 5) of the weak form."""
    jac = 0.5 * mesh.h
    left = -mesh.x_end + mesh.h * np.arange(mesh.elements)
    xq = left[:, None] + jac * (_GAUSS_X + 1.0)  # (E, 6)
    a, _, c = case.operator().coefficients(xq)
    stiff = _GAUSS_W / (jac * case.k**2) * -a
    mass = _GAUSS_W * jac * -c
    ke = stiff @ _STIFF - mass @ _MASS
    fe = (_GAUSS_W * jac * case.rhs(xq)) @ _PHI
    return ke.reshape(-1, _DEGREE + 1, _DEGREE + 1), fe


def _banded_system(ke, fe):
    """Banded global matrix (9, dofs) and load vector of the element system.

    Row 4e+i, column 4e+j lands in band 4+i-j.  For fixed (i, j) the columns
    4e+j of different elements are distinct, so one strided ``+=`` per pair
    scatters all elements.
    """
    bw = _DEGREE
    n_dof = _DEGREE * len(fe) + 1
    ab = np.zeros((2 * bw + 1, n_dof), dtype=complex)
    rhs = np.zeros(n_dof, dtype=complex)
    for i in range(_DEGREE + 1):
        rhs[i : n_dof - bw + i : bw] += fe[:, i]
        for j in range(_DEGREE + 1):
            ab[bw + i - j, j : n_dof - bw + j : bw] += ke[:, i, j]
    return ab, rhs


def fem_solve(case, elements=None):
    """Solve the truncated weak problem for ``case`` on [-DEFAULT_X_END, DEFAULT_X_END].

    By default the elements are MESH_UNIT/j wide, j = ceil(MESH_RESOLUTION *
    k**(9/8)), which puts an element edge on every ``case.breakpoints``
    entry; ``elements`` sets their number instead, for convergence studies.
    """
    mesh = _mesh_for(case) if elements is None else FemMesh(DEFAULT_X_END, elements)
    ab, rhs = _banded_system(*_element_system(case, mesh))

    # scipy.linalg takes most of the time of ``import gcshelm``; only this solve needs it
    from scipy.linalg import solve_banded

    # homogeneous Dirichlet ends: solve for the interior dofs; band storage
    # leaves out the entries coupling them to the ends
    values = np.zeros(mesh.dofs, dtype=complex)
    values[1:-1] = solve_banded((_DEGREE, _DEGREE), ab[:, 1:-1], rhs[1:-1])
    if not np.all(np.isfinite(values)):
        raise RuntimeError("banded solve produced non-finite values (singular system)")
    nodes = np.linspace(-mesh.x_end, mesh.x_end, mesh.dofs)
    return FemSolution(mesh, nodes, values)
