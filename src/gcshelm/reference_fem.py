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
the Gauss points.

The complex system is solved with numpy alone, in four steps.  Static
condensation (Guyan, AIAA J. 3, 1965) eliminates each element's three
interior dofs, batched over the elements; each interior block is a
Dirichlet problem on one element, far below its first resonance
(kh <= 0.07 on the default mesh).  That leaves a tridiagonal system on
the vertices.  Runs of G elements then have their inner vertices
eliminated the same way, batched over the runs, with G bounded so that
each run's Dirichlet problem stays clear of its first resonance
(``_run_length``).  The tridiagonal system of the run ends, about E/G
unknowns, is solved by Gaussian elimination with partial pivoting, the
scheme of LAPACK's ``gtsv`` (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 9).  Back substitution then gives the run vertices and
the element interiors.  The homogeneous Dirichlet ends are the two end
vertices, held at 0.  An exactly zero pivot raises, as ``gbsv`` reports
info > 0.  The nodal values agree with LAPACK's banded solve of the same
system to 2e-9 relative (tests/test_reference_fem.py).
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
# interior dofs first, then the two vertices
_INTERIOR_FIRST = [1, 2, 3, 0, 4]
# a run of elements spans at most this phase k * G * h * sqrt(max mu)
_RUN_PHASE = 0.5 * math.pi
_SINGULAR = "exactly zero pivot: the FEM system is singular"


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
    ke = stiff @ _STIFF
    ke -= mass @ _MASS
    fe = (_GAUSS_W * jac * case.rhs(xq)) @ _PHI
    return ke.reshape(-1, _DEGREE + 1, _DEGREE + 1), fe


def _nonzero(pivots):
    """The pivots, after checking that none is exactly zero (``gbsv``'s info > 0)."""
    if not np.all(pivots):
        raise RuntimeError(_SINGULAR)
    return pivots


def _condense(ke, fe):
    """Eliminate each element's three interior dofs, batched over the elements.

    The dofs are taken interior first, (1, 2, 3, 0, 4), and the element
    matrix with its load as a last column is stored as ``a`` (5, 6, E).
    Unpivoted elimination of the three interior pivots leaves the rows of
    the upper triangle for ``_interior_values``, the Schur complement on the
    two vertices in ``a[3:, 3:5]`` and its load in ``a[3:, 5]``.
    """
    a = np.empty((_DEGREE + 1, _DEGREE + 2, len(fe)), dtype=complex)
    a[:, :-1] = ke.transpose(1, 2, 0)[np.ix_(_INTERIOR_FIRST, _INTERIOR_FIRST)]
    a[:, -1] = fe.T[_INTERIOR_FIRST]
    for p in range(_DEGREE - 1):
        a[p + 1 :, p + 1 :] -= (a[p + 1 :, p] / _nonzero(a[p, p]))[:, None] * a[p, p + 1 :]
    return a


def _interior_values(a, left, right):
    """Interior dofs (3, E) of the elements from their vertex values, by back substitution."""
    x = [None, None, None, left, right]
    for p in (2, 1, 0):
        x[p] = (a[p, -1] - sum(a[p, j] * x[j] for j in range(p + 1, _DEGREE + 1))) / a[p, p]
    return np.array(x[:3])


def _run_length(case, mesh):
    """Elements per run G: the largest divisor of the element count with
    k * G * h * sqrt(max mu) <= pi/2, so that a run spans at most a quarter
    wavelength.

    A run's Dirichlet problem, both end vertices held, turns singular at
    its first resonance k * G * h * sqrt(mu) = pi; the unpivoted
    elimination of its inner vertices stays a factor 2 below it.  The PML
    only damps: it makes the run's stretched length complex and moves no
    resonance onto the real axis.  On the default mesh kh <= 0.07 for every
    k >= 20 and max mu <= 2, so G >= 14, which divides E = 140 j.  On a mesh
    too coarse for any run G = 1, and every vertex goes to the pivoted sweep.
    """
    mu_max = float(np.max(case.mu(np.linspace(-mesh.x_end, mesh.x_end, mesh.elements + 1))))
    longest = max(1, int(_RUN_PHASE / (case.k * mesh.h * math.sqrt(mu_max))))
    return max(g for g in range(1, longest + 1) if mesh.elements % g == 0)


def _merge_runs(s, g, run):
    """Eliminate the inner vertices of each run of ``run`` elements, batched over the runs.

    ``s`` (2, 2, E) and ``g`` (2, E) are the vertex matrices and loads of
    the condensed elements.  Merging the run's element so far, on
    (left, v), with the next one, on (v, w), eliminates v with the pivot
    p = s_11 + s'_00.  Returns the runs' matrices (2, 2, R) and loads
    (2, R), and the eliminated rows (pivot, coupling to left, load) for
    ``_run_values``.
    """
    s = s.reshape(2, 2, -1, run)
    g = g.reshape(2, -1, run)
    (a00, a01), (a10, a11) = s[:, :, :, 0]
    g0, g1 = g[:, :, 0]
    rows = []
    for j in range(1, run):
        (b00, b01), (b10, b11) = s[:, :, :, j]
        pivot = _nonzero(a11 + b00)
        load = g1 + g[0, :, j]
        rows.append((pivot, a10, load))
        left, right = a01 / pivot, b10 / pivot
        a00, a01, a10, a11 = a00 - left * a10, -left * b01, -right * a10, b11 - right * b01
        g0, g1 = g0 - left * load, g[1, :, j] - right * load
    return np.array([[a00, a01], [a10, a11]]), np.array([g0, g1]), rows


def _run_values(s, rows, ends):
    """Vertex values (E + 1) from the values ``ends`` (R + 1) at the ends of the runs."""
    run = len(rows) + 1
    w = np.empty((len(ends) - 1, run + 1), dtype=complex)
    w[:, 0], w[:, run] = ends[:-1], ends[1:]
    couple = s[0, 1].reshape(-1, run)
    for j in reversed(range(1, run)):
        pivot, left, load = rows[j - 1]
        w[:, j] = (load - left * w[:, 0] - couple[:, j] * w[:, j + 1]) / pivot
    return np.append(w[:, :run].ravel(), ends[-1])


def _tridiagonal_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system by Gaussian elimination with partial pivoting.

    Row i reads lower[i-1] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i].
    Each step keeps the larger of the pivot and the entry below it, as
    LAPACK's ``gtsv`` does; a swap fills a second superdiagonal.  Raises
    ``RuntimeError`` on an exactly zero pivot.
    """
    dl, d, du, b = (np.asarray(v, dtype=complex).tolist() for v in (lower, diag, upper, rhs))
    n = len(d)
    # zero past the last row, so every row has two entries right of the pivot
    du.append(0j)
    du2 = [0j] * (n + 1)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0:
                raise RuntimeError(_SINGULAR)
            f = dl[i] / d[i]
            d[i + 1] -= f * du[i]
            b[i + 1] -= f * b[i]
        else:
            f = d[i] / dl[i]
            d[i], d[i + 1], du[i] = dl[i], du[i] - f * d[i + 1], d[i + 1]
            du2[i], du[i + 1] = du[i + 1], -f * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - f * b[i + 1]
    if d[-1] == 0:
        raise RuntimeError(_SINGULAR)
    x = [0j] * (n + 2)
    for i in reversed(range(n)):
        x[i] = (b[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return np.array(x[:n])


def fem_solve(case, elements=None):
    """Solve the truncated weak problem for ``case`` on [-DEFAULT_X_END, DEFAULT_X_END].

    By default the elements are MESH_UNIT/j wide, j = ceil(MESH_RESOLUTION *
    k**(9/8)), which puts an element edge on every ``case.breakpoints``
    entry; ``elements`` sets their number instead, for convergence studies.
    """
    mesh = _mesh_for(case) if elements is None else FemMesh(DEFAULT_X_END, elements)
    a = _condense(*_element_system(case, mesh))
    s = a[3:, 3:5]
    runs, loads, rows = _merge_runs(s, a[3:, 5], _run_length(case, mesh))
    # the vertex system of the runs, tridiagonal; its two ends are the
    # homogeneous Dirichlet ends
    ends = np.zeros(runs.shape[-1] + 1, dtype=complex)
    ends[1:-1] = _tridiagonal_solve(
        runs[1, 0, 1:-1], runs[1, 1, :-1] + runs[0, 0, 1:], runs[0, 1, 1:-1], loads[1, :-1] + loads[0, 1:]
    )
    vertices = _run_values(s, rows, ends)
    values = np.empty(mesh.dofs, dtype=complex)
    values[::_DEGREE] = vertices
    values[:-1].reshape(-1, _DEGREE)[:, 1:] = _interior_values(a, vertices[:-1], vertices[1:]).T
    if not np.all(np.isfinite(values)):
        raise RuntimeError("FEM solve produced non-finite values")
    nodes = np.linspace(-mesh.x_end, mesh.x_end, mesh.dofs)
    return FemSolution(mesh, nodes, values)
