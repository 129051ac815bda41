"""Oracles the tests share: the search-box selection of symbol sets,
per-state lists, dense views of block matrices and of the design matrix in
state order, a system of two parity halves from dense arrays, a recorder of
the arrays the streaming QR factors, derivative blocks, quadrature inner
products, the closed-form overlap and operator pairing of two states, the
operator on function values, the closed-form iterated residual, the complex
solve of the dual frame, the Zak frame function, the masked forms of the C3
plateaus, the PML and P_k's coefficients, the nu formulas of P_k's symbol,
coefficients and FEM element matrices, the banded assembly and banded
LAPACK solve of the FEM reference, and a CSV reader for the table output."""

import csv
import io
import math

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import solve_banded

from gcshelm import analysis
from gcshelm import assembly_solver as asm
from gcshelm import gaussian_states as gs
from gcshelm import phase_space as ps
from gcshelm import problem_model as pm
from gcshelm import quadrature as quad
from gcshelm import reference_fem as fem
from gcshelm.experiments import ExperimentRecord


def pairs_of(index_set):
    """The index pairs (m, n) of an index set, as a Python set."""
    return set(zip(index_set.m.tolist(), index_set.n.tolist()))


def box_symbol_set(spec, symbol, delta):
    """Pairs with |symbol(x_m, xi_n)| < delta, thresholded on a square box.

    The box starts at half-width max(8, ceil(1.5 max(2, sqrt(1 + delta))/h) + 2)
    and doubles (at most 16 times) until every lattice point on its shell has
    |p| >= 1.1 delta; a selected pair on the box boundary raises.  The
    selection before ``phase_space`` read each row's interval of |n| off the
    roots of |p|**2 = delta**2; its oracle.
    """
    # not 1.1 * delta: the two differ in the last bit for about half of all deltas
    threshold = delta + 0.1 * delta
    half = max(8, math.ceil(1.5 * max(2.0, math.sqrt(1.0 + delta)) / spec.spacing) + 2)
    for _ in range(16):
        ks = np.arange(-half, half + 1)
        all_ = ks * spec.spacing
        edge = np.array([-half, half]) * spec.spacing
        shell = (symbol(edge[:, None], all_[None, :]), symbol(all_[:, None], edge[None, :]))
        if all(np.all(np.abs(np.asarray(v, dtype=complex)) >= threshold) for v in shell):
            break
        half *= 2
    else:
        raise RuntimeError("no clean shell after 16 doublings; symbol looks non-coercive")
    mod = np.abs(np.asarray(symbol(all_[:, None], all_[None, :]), dtype=complex))
    # the row-major scan of the (m, n) grid is already lexicographic
    mi, ni = np.nonzero(mod < delta)
    m, n = ks[mi], ks[ni]
    if m.size and max(np.abs(m).max(), np.abs(n).max()) >= half:
        raise ValueError(f"selected pairs touch the search box boundary {half}")
    return ps.IndexSet(m, n, spec)


def states_from_index_set(index_set):
    """Coherent states sitting at the lattice points of an index set."""
    spec = index_set.lattice
    return [
        gs.CoherentState(spec.hbar, m * spec.spacing, n * spec.spacing)
        for m, n in zip(index_set.m, index_set.n)
    ]


def dense(matrix):
    """The Q x N array of an ``asm.BlockMatrix``, zero outside its blocks."""
    out = np.zeros(matrix.shape, dtype=complex)
    for rows, cols, block in matrix.blocks:
        out[rows, cols] = block
    return out


def state_matrix(system):
    """The Q x N design matrix A of a system in state order, on the rule's nodes.

    Undoes the parity fold of ``asm.assemble``, rows then columns.
    """
    return asm._unfold(asm._unfold(dense(system.matrix)).T).T


def state_rhs(system):
    """The right-hand side of a system in node order: the parity fold undone."""
    return asm._unfold(system.rhs)


def halves_system(a_even, b_even, a_odd, b_odd):
    """An ``asm.DesignSystem`` of one block per parity half, each a dense array.

    The even half must have as many rows and columns as the odd one, or
    one more of each.
    """
    (q_even, n_even), (q_odd, n_odd) = np.shape(a_even), np.shape(a_odd)
    blocks = (
        (slice(0, q_even), slice(0, n_even), np.asarray(a_even, dtype=complex)),
        (slice(q_even, q_even + q_odd), slice(n_even, n_even + n_odd), np.asarray(a_odd, dtype=complex)),
    )
    matrix = asm.BlockMatrix((q_even + q_odd, n_even + n_odd), blocks)
    return asm.DesignSystem(matrix, np.concatenate([b_even, b_odd]), quad.build_rule((0.0, 1.0), 20, 20))


def one_block(a):
    """A dense array as an ``asm.BlockMatrix`` of one block: no parity halves."""
    q, n = a.shape
    return asm.BlockMatrix((q, n), ((slice(0, q), slice(0, n), np.asarray(a, dtype=complex)),))


def qr_recorder(shapes):
    """``np.linalg.qr`` that first appends the shape of the array it factors to ``shapes``."""
    qr = np.linalg.qr

    def recording(a, mode="reduced"):
        shapes.append(a.shape)
        return qr(a, mode=mode)

    return recording


def derivative_blocks(hbar, x0, n, x, order):
    """``gs.state_blocks`` for d^order Psi_j: each block times hbar**(-order/2) q_order(z).

    z = (x - x0 - 1j*xi0)/sqrt(hbar) with xi0 = n*sqrt(pi*hbar), and q_a the
    polynomials of ``gs.eval_derivative``.
    """
    x0, x = (np.asarray(v, dtype=float) for v in (x0, x))
    xi0 = np.asarray(n) * math.sqrt(math.pi * hbar)
    for rows, cols, block in gs.state_blocks(hbar, x0, n, x):
        if order:
            z = np.subtract.outer(x[rows] - x0[cols.start], 1j * xi0[cols]) / math.sqrt(hbar)
            block *= hbar ** (-order / 2.0) * gs._Q_POLYS[order](z)
        yield rows, cols, block


def inner_product(f, g, rule):
    """L2 inner product (f, g) = int f conj(g) over the rule's window.

    ``f`` and ``g`` are vectorized callables.
    """
    fv = np.asarray(f(rule.nodes))
    gv = np.asarray(g(rule.nodes))
    return complex(np.sum(rule.weights * fv * np.conj(gv)))


def norm(f, rule):
    """L2 norm of a vectorized callable over the rule's window."""
    fv = np.asarray(f(rule.nodes))
    return float(np.sqrt(np.sum(rule.weights * np.abs(fv) ** 2)))


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


def operator_pair_inner(op, s1, s2):
    """Closed form of (P Psi1, Psi2) for a constant-coefficient operator.

    P multiplies the hbar-Fourier transform by p(xi) = -a*xi**2 - b*xi + c,
    and the transform of Psi1 * conj(Psi2) is the plain overlap times a
    Gaussian of variance hbar/2 about mu = (xi1 + xi2)/2 + 1j*(x2 - x1)/2,
    so the pairing is overlap * (p(mu) - a*hbar/2).  The per-pair oracle of
    ``analysis.quasi_orthogonality_probe``.
    """
    if op.constant is None:
        raise ValueError("operator_pair_inner needs a constant-coefficient operator")
    a, b, c = op.constant
    mu = complex(0.5 * (s1.xi0 + s2.xi0), 0.5 * (s2.x0 - s1.x0))
    return overlap(s1, s2) * (-a * mu * mu - b * mu + c - 0.5 * a * s1.hbar)


def constant_symbol(op):
    """The substitution symbol (x, xi) -> -a*xi**2 - b*xi + c of a constant operator."""
    a, b, c = op.constant
    return lambda x, xi: -a * xi**2 - b * xi + c


def bridge_eval(t, order=0):
    """Value or derivative (order <= 2) of the C3 bridge S on [0, 1], by ``polyval``.

    With ``even_bridge``, ``pml_sigma_by_order`` and ``closure_coefficients``
    below, the masked forms of the model problem that ``problem_model``
    replaced by clipped polynomial plateaus, the (sigma, sigma') pair and
    one coefficient function; the oracle they are held to bit for bit.
    """
    if not 0 <= order <= 2:
        raise ValueError("bridge derivative order must lie in [0, 2]")
    tv = np.asarray(t, dtype=float)
    if np.any(tv < -1e-14) or np.any(tv > 1.0 + 1e-14):
        raise ValueError("bridge argument outside [0, 1]")
    coeffs = npoly.polyder(pm.BRIDGE_COEFFS, order) if order else pm.BRIDGE_COEFFS
    out = npoly.polyval(np.clip(tv, 0.0, 1.0), coeffs)
    return out if out.ndim else float(out)


def even_bridge(x, order, lo, hi):
    """Even C3 plateau: 1 for |x| <= lo, bridge down to 0 for |x| >= hi, by masks."""
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


def pml_sigma_by_order(x, order=0):
    """sigma (order 0) or sigma' (order 1) of the quartic PML, by left/right masks."""
    if not 0 <= order <= 1:
        raise ValueError("sigma derivative order must lie in [0, 1]")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xv)
    right = xv > 1.0
    left = xv < -1.0
    fall = [1.0, 4.0][order]
    p = pm.PML_EXPONENT - order
    out[right] = pm.PML_AMPLITUDE * fall * (xv[right] - 1.0) ** p
    # chain rule for the mirrored branch: d/dx (-1-x) = -1
    out[left] = pm.PML_AMPLITUDE * fall * (-1.0 - xv[left]) ** p * (-1.0) ** order
    return out if np.ndim(x) else float(out[0])


def closure_coefficients(case):
    """(a, b, c) of ``case.operator()`` as three closures, each evaluating sigma itself."""
    hbar = 1.0 / case.k

    def stretch(x):
        # nu = 1 + 1j*sigma
        return 1.0 + 1j * np.asarray(pml_sigma_by_order(x))

    def a(x):
        return -(1.0 / stretch(x))

    def b(x):
        # (nu**(-1))' = -nu'/nu**2 with nu' = 1j*sigma'
        return 1j * hbar * (-(1j * np.asarray(pml_sigma_by_order(x, 1))) * (1.0 / stretch(x)) ** 2)

    def c(x):
        return -np.asarray(case.mu(x)) * stretch(x)

    return a, b, c


def nu_coefficients(x):
    """(nu, nu**(-1), (nu**(-1))') at x, with nu = 1 + 1j*sigma and nu' = 1j*sigma'.

    The formulas of P_k through nu before ``ProblemCase.operator()`` became
    the one place that writes its coefficients; the oracle of that triple,
    of the symbol and of the FEM coefficient products.
    """
    nu = 1.0 + 1j * np.asarray(pml_sigma_by_order(x))
    nu_inv = 1.0 / nu
    return nu, nu_inv, -(1j * np.asarray(pml_sigma_by_order(x, 1))) * nu_inv**2


def nu_symbol(case, x, xi):
    """The principal symbol nu**(-1)*xi**2 - mu*nu of ``case``."""
    nu, nu_inv, _ = nu_coefficients(x)
    return nu_inv * np.asarray(xi, dtype=float) ** 2 - np.asarray(case.mu(x)) * nu


def nu_triple(case, x):
    """(a, b, c) = (-nu**(-1), 1j*hbar*(nu**(-1))', -mu*nu) of ``case`` at x, hbar = 1/k."""
    nu, nu_inv, d_nu_inv = nu_coefficients(x)
    return -nu_inv, 1j * (1.0 / case.k) * d_nu_inv, -np.asarray(case.mu(x)) * nu


def nu_element_matrices(case, mesh):
    """The element matrices (E, 5, 5) of ``fem._element_system`` from nu**(-1)/k**2 and mu*nu."""
    jac = 0.5 * mesh.h
    left = -mesh.x_end + mesh.h * np.arange(mesh.elements)
    xq = left[:, None] + jac * (fem._GAUSS_X + 1.0)
    nu, nu_inv, _ = nu_coefficients(xq)
    stiff = fem._GAUSS_W / (jac * case.k**2) * nu_inv
    mass = fem._GAUSS_W * jac * case.mu(xq) * nu
    return (stiff @ fem._STIFF - mass @ fem._MASS).reshape(-1, 5, 5)


def apply_P(case, u, du, d2u, x):
    """P_k of ``case`` acting on function values (u, u', u'') at x."""
    nu, nu_inv, d_nu_inv = nu_coefficients(x)
    return -np.asarray(case.mu(x)) * nu * u - (d_nu_inv * du + nu_inv * d2u) / case.k**2


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gaussian_sq_moments(hbar, pmax):
    # M_p = int u**p |Psi|**2 du = (hbar/2)**(p/2) (p-1)!! for even p, else 0
    out = np.zeros(pmax + 1)
    for p in range(0, pmax + 1, 2):
        out[p] = (0.5 * hbar) ** (p // 2) * _double_factorial(p - 1)
    return out


def iterated_residual_norm(state, op, L):
    """Exact L2 norm of (P - p(xi0))**L Psi for L in {1, 2, 3}, criterion 4's measure.

    For a constant-coefficient operator the residual multiplies the
    hbar-Fourier transform by r(v)**L, r(v) = p(xi0 + v) - p(xi0) =
    -a*v**2 - (2*a*xi0 + b)*v, and |transform|**2 is a Gaussian of variance
    hbar/2 about xi0, so the squared norm is a finite Gaussian-moment sum.
    """
    if L not in (1, 2, 3):
        raise ValueError("L must be 1, 2 or 3")
    if op.constant is None:
        raise ValueError("iterated_residual_norm needs a constant-coefficient operator")
    a, b, _ = op.constant
    coeffs = npoly.polypow([0.0, -(2.0 * a * state.xi0 + b), -a], L)
    sq = npoly.polymul(coeffs, np.conj(coeffs))
    moments = _gaussian_sq_moments(state.hbar, len(sq) - 1)
    val = float(np.real(np.dot(sq, moments)))
    return math.sqrt(max(val, 0.0))


def support_window(states):
    """Smallest interval holding every state center plus its Gaussian tail.

    The half width per state is c*sqrt(hbar), c = ``gs.WINDOW_SIGMAS``, the
    window of ``gs.state_blocks``.
    """
    states = list(states)
    if not states:
        raise ValueError("support_window needs at least one state")
    c = gs.WINDOW_SIGMAS
    lo = min(s.x0 - c * math.sqrt(s.hbar) for s in states)
    hi = max(s.x0 + c * math.sqrt(s.hbar) for s in states)
    return (lo, hi)


def box_indices(half_width):
    """Lattice indices (m, n) of the box |m|, |n| <= half_width, sorted by (m, n)."""
    offsets = np.arange(-half_width, half_width + 1)
    return np.repeat(offsets, offsets.size), np.tile(offsets, offsets.size)


def gram_band_solve(gram, rhs):
    """G+ rhs on the frame band of a Hermitian Gram, by a complex ``eigh``.

    The solve ``analysis.dual_frame_coefficients`` made before it used a
    real form: eigen-directions above ``analysis.DUAL_GAP_CUT`` times the
    upper frame bound beta are inverted, the rest dropped.  beta is read
    from ``zak_frame_function`` at (0, 0), not from ``analysis``; no
    eigenvalue of a box Gram exceeds it.  ``rhs`` is a vector or a matrix
    of columns.  Returns (solution, kept count).
    """
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > analysis.DUAL_GAP_CUT * zak_frame_function(0.0, 0.0)
    kept = evecs[:, keep]
    # divide each row of the projection by its eigenvalue, vector or columns
    projected = (kept.conj().T @ rhs).T / evals[keep]
    return kept @ projected.T, int(keep.sum())


def dual_frame_oracle(target, box_half_width):
    """``analysis.dual_frame_coefficients`` through ``gram_band_solve``.

    Returns (m, n, coefficients, residual, kept count), with the box
    indices and the residual ||G (G c - e)|| as the production path defines
    them.
    """
    tm, tn = target
    dm, dn = box_indices(box_half_width)
    m, n = tm + dm, tn + dn
    gram = analysis.lattice_gram(m, n)
    e = np.zeros(m.size, dtype=complex)
    e[(m == tm) & (n == tn)] = 1.0
    c, kept = gram_band_solve(gram, e)
    return m, n, c, float(np.linalg.norm(gram @ (gram @ c - e))), kept


def dual_decay_fit_oracle(index_set, coefficients, target):
    """``analysis.dual_decay_fit`` as one Python loop over the pairs.

    The fit before it was vectorised: ``math.hypot`` distances and
    ``abs(complex)`` moduli, and per unit distance annulus the first pair of
    largest modulus in index-set order.
    """
    tm, tn = target
    annuli = {}
    for m, n, c in zip(index_set.m.tolist(), index_set.n.tolist(), coefficients):
        d = math.hypot(m - tm, n - tn)
        if d == 0.0 or abs(c) < analysis.DUAL_FLOOR:
            continue
        b = int(d)
        if b not in annuli or abs(c) > annuli[b][1]:
            annuli[b] = (d, abs(c))
    if len(annuli) < 3:
        raise ValueError("not enough decay annuli above the floor to fit")
    pts = [annuli[b] for b in sorted(annuli)]
    distances = np.array([p[0] for p in pts])
    sqrt_dist = np.sqrt(distances)
    vals = np.log(np.array([p[1] for p in pts]))
    slope, intercept = np.polyfit(sqrt_dist, vals, 1)
    fitted = slope * sqrt_dist + intercept
    ss_res = float(np.sum((vals - fitted) ** 2))
    ss_tot = float(np.sum((vals - vals.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    return -float(slope), float(r_squared), (distances, np.exp(vals), np.exp(fitted))


def zak_frame_function(x, w):
    """2 (|Zg(x, w)|**2 + |Zg(x + 1, w)|**2), whose extrema are the frame bounds.

    The Zak transform at step 2 in lattice units, Zg(x, w) = sum_j g(x + 2j)
    exp(-2 pi i j w) with g(x) = exp(-pi x**2 / 2), summed over 17 terms
    without a tail cut (Groechenig, Foundations of Time-Frequency Analysis,
    ch. 8); kept apart from ``analysis`` as an independent oracle.
    """

    def zak(x):
        return sum(np.exp(-0.5 * math.pi * (x + 2 * j) ** 2 - 2j * math.pi * j * w) for j in range(-8, 9))

    return 2.0 * (np.abs(zak(x)) ** 2 + np.abs(zak(x + 1.0)) ** 2)


def banded_fem_system(ke, fe):
    """Banded global matrix (9, dofs) and load vector of the FEM element system.

    Row 4e+i, column 4e+j lands in band 4+i-j.  For fixed (i, j) the columns
    4e+j of different elements are distinct, so one strided ``+=`` per pair
    scatters all elements.  ``reference_fem`` assembled this before it
    solved by static condensation.
    """
    bw = 4
    n_dof = bw * len(fe) + 1
    ab = np.zeros((2 * bw + 1, n_dof), dtype=complex)
    rhs = np.zeros(n_dof, dtype=complex)
    for i in range(bw + 1):
        rhs[i : n_dof - bw + i : bw] += fe[:, i]
        for j in range(bw + 1):
            ab[bw + i - j, j : n_dof - bw + j : bw] += ke[:, i, j]
    return ab, rhs


def banded_fem_values(case, elements=None):
    """Nodal values of ``fem.fem_solve`` by LAPACK's banded solve (``gbsv``).

    The homogeneous Dirichlet ends are imposed by solving on the interior
    dofs alone: band storage of the interior block leaves out the entries
    coupling it to the ends.
    """
    mesh = fem._mesh_for(case) if elements is None else fem.FemMesh(fem.DEFAULT_X_END, elements)
    ab, rhs = banded_fem_system(*fem._element_system(case, mesh))
    values = np.zeros(mesh.dofs, dtype=complex)
    values[1:-1] = solve_banded((4, 4), ab[:, 1:-1], rhs[1:-1])
    return values


def parse_records_csv(text):
    """Inverse of experiments.emit(..., 'csv'), used by round-trip checks."""
    reader = csv.DictReader(io.StringIO(text))
    out = []
    for row in reader:
        out.append(
            ExperimentRecord(
                float(row["k"]),
                float(row["delta"]),
                int(row["ndofs"]),
                float(row["rel_h1k_error"]),
                int(row["rank"]),
            )
        )
    return out
