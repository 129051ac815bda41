"""Error norms, frame diagnostics and phase-space decay probes.

The weighted error norm is ||v||_H1k**2 = ||v||**2 + k**-2 ||v'||**2 on a
bounded window.  The frame bounds are exact: in lattice units the states
are the Gabor system of g(t) = exp(-pi t**2 / 2) on Z x (1/2)Z, a frame of
density 2 whose bounds are the extrema of its Zak transform (Zibulski and
Zeevi, ACHA 4, 1997; Groechenig, Foundations of Time-Frequency Analysis,
ch. 8).  The dual frame works on a truncated lattice box whose Gram matrix
is available in closed form; a sign covariance, a real gauge, the point
reflection and the quarter turn of phase space reduce its solve to one
real ``eigh`` of a quarter of the box.  In lattice units the bounds and
the Gram are exactly independent of hbar, which is what makes the frame
diagnostics hbar-stable.  The Zak series and the Gram are cut at the
tail tolerance ``_TAIL_TOL`` = exp(-72): Gram entries at lattice distance
beyond sqrt(288/pi) ~ 9.6 steps are exactly 0, so the Gram holds no
subnormal numbers, and its phases are exact quarter turns.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian_states as gs
from . import quadrature as quad
from .assembly_solver import _SQRT_HALF, _even_parts, _odd_parts, _unfold
from .phase_space import IndexSet, LatticeSpec, build_planewave_rhs_set

__all__ = [
    "ErrorReport",
    "FrameDiagnostics",
    "h1k_error",
    "lattice_gram",
    "frame_bounds",
    "dual_frame_coefficients",
    "dual_decay_fit",
    "quasi_orthogonality_probe",
    "planewave_coefficient_probe",
]


@dataclass(frozen=True)
class ErrorReport:
    absolute: float
    relative: float


@dataclass(frozen=True)
class FrameDiagnostics:
    alpha_est: float
    beta_est: float


def h1k_error(u_approx, u_ref, window, k, nodes_per_wavelength=40):
    """Relative and absolute H1_k distance between two functions.

    ``u_approx`` and ``u_ref`` are vectorized callables returning the pair
    (v, v') at an array of nodes; each is called once.
    """
    rule = quad.build_rule(window, k, nodes_per_wavelength)
    va, da = (np.asarray(f) for f in u_approx(rule.nodes))
    ref_v, ref_d = (np.asarray(f) for f in u_ref(rule.nodes))
    dv = va - ref_v
    dd = da - ref_d
    k2inv = 1.0 / float(k) ** 2
    abs_sq = np.sum(rule.weights * (np.abs(dv) ** 2 + k2inv * np.abs(dd) ** 2))
    ref_sq = np.sum(rule.weights * (np.abs(ref_v) ** 2 + k2inv * np.abs(ref_d) ** 2))
    if ref_sq <= 0.0:
        raise ValueError("reference function has zero H1_k norm on the window")
    absolute = math.sqrt(float(abs_sq))
    return ErrorReport(absolute, absolute / math.sqrt(float(ref_sq)))


# dual frame: Gram eigen-directions kept above this fraction of the largest
DUAL_GAP_CUT = 0.3
# dual frame: half width of the lattice box, in lattice steps
DUAL_BOX_HALF_WIDTH = 12
# dual decay fit: coefficients below this modulus are left out
DUAL_FLOOR = 1e-13
# plane-wave probe: band exponent, position pad beyond the source support,
# and the largest frequency of the probed box
PLANEWAVE_EPSILON = 0.25
PLANEWAVE_X_PAD = 0.5
PLANEWAVE_XI_MAX = 2.5

# tail tolerance of the Zak series and the lattice Gram: exp(-12**2/2)
_TAIL_TOL = math.exp(-72.0)
# lattice distances squared past which exp(-pi*d2/4) < _TAIL_TOL
_GRAM_TAIL_D2 = 4.0 * math.log(1.0 / _TAIL_TOL) / math.pi
# exp(-pi*d2/4) for each integer d2 up to the tail, then one 0 for all beyond
_GRAM_MODULUS = np.append(np.exp(-0.25 * math.pi * np.arange(math.floor(_GRAM_TAIL_D2) + 1)), 0.0)
# offsets past this reach have d2 past the table's last index, so its 0
_GRAM_REACH = math.isqrt(_GRAM_MODULUS.size - 1) + 1
# the Gram entry exp(-pi*d2/4) * 1j**j at index 4*d2 + j, for j mod 4: the
# phases are whole quarter turns 1, 1j, -1, -1j
_GRAM_ENTRIES = (_GRAM_MODULUS[:, None] * np.array([1.0, 1.0j, -1.0, -1.0j])).ravel()
# lattice distance past which g(t) = exp(-pi t**2 / 2) < _TAIL_TOL
_ZAK_REACH = math.sqrt(2.0 * math.log(1.0 / _TAIL_TOL) / math.pi)


def lattice_gram(m, n):
    """Closed-form Gram matrix G[i, j] = (Psi_i, Psi_j) = int Psi_i conj(Psi_j) dx.

    ``m`` and ``n`` are integer arrays of lattice indices, each spanning at
    most 32767 steps.  The entries are exp(-pi*d2/4) * 1j**((n1+n2)*(m2-m1))
    with d2 = (m1-m2)**2 + (n1-n2)**2, independent of hbar.  Each is read
    from one table over integer d2 and the exact quarter turns 1, 1j, -1,
    -1j.  The offsets are held in int16, clipped to the table's reach, and
    the quarter-turn exponent in int8, from the indices mod 4.  Entries
    with pi*d2/4 > log(1/_TAIL_TOL), of modulus below exp(-72), are
    exactly 0.
    """
    if m.size and max(np.ptp(m), np.ptp(n)) > np.iinfo(np.int16).max:
        raise ValueError("lattice indices must span at most 32767 steps in m and in n")
    # int16 differences wrap modulo 2**16, so within that span they are exact
    m16, n16 = m.astype(np.int16), n.astype(np.int16)
    dm = np.clip(m16[None, :] - m16[:, None], -_GRAM_REACH, _GRAM_REACH)
    dn = np.clip(n16[:, None] - n16[None, :], -_GRAM_REACH, _GRAM_REACH)
    m4, n4 = (m & 3).astype(np.int8), (n & 3).astype(np.int8)
    turns = ((n4[:, None] + n4[None, :]) * (m4[None, :] - m4[:, None])) & 3
    return np.take(_GRAM_ENTRIES, np.minimum(dm * dm + dn * dn, _GRAM_MODULUS.size - 1) * 4 + turns)


def _zak_frame_function(x, w):
    """2 (|Zg(x, w)|**2 + |Zg(x + 1, w)|**2), whose extrema are the frame bounds.

    Zg(x, w) = sum_j g(x + 2j) exp(-2 pi i j w) is the Zak transform at
    step 2 of g(t) = exp(-pi t**2 / 2), the states in lattice units; terms
    with g below ``_TAIL_TOL`` are left out.  The function has period 1 in
    x and in w.
    """
    terms = math.ceil(_ZAK_REACH / 2.0) + 1
    j = np.arange(-terms, terms + 1)
    total = 0.0
    for shift in (x, x + 1.0):
        t = shift + 2.0 * j
        kept = np.abs(t) <= _ZAK_REACH
        zak = np.sum(np.exp(-0.5 * math.pi * t[kept] ** 2 - 2j * math.pi * j[kept] * w))
        total += abs(zak) ** 2
    return 2.0 * float(total)


def frame_bounds(spec, box_half_width=None, interior_margin=None):
    """Exact bounds alpha, beta of the lattice frame of ``spec``.

    alpha ||v||**2 <= sum_mn |(v, Psi_mn)|**2 <= beta ||v||**2 holds for every
    v in L2 with these optimal constants, the extrema over the unit cell of
    ``_zak_frame_function``.  For the Gaussian the minimum sits at
    (x, w) = (1/2, 1/2) and the maximum at (0, 0): alpha = 1.6692536833,
    beta = 2.3606811980, beta/alpha = sqrt(2).  ``LatticeSpec`` fixes
    spacing**2 = pi*hbar, so the bounds do not depend on ``spec``: they are
    the same bits at every hbar and use no BLAS.

    ``box_half_width`` and ``interior_margin`` are ignored.  They are
    accepted only because ``perfbench/workloads.py`` passes them
    (``box_half_width=20`` in its timed diagnose operation, 8 and
    ``interior_margin=3`` in its warm-up).
    """
    return FrameDiagnostics(_zak_frame_function(0.5, 0.5), _zak_frame_function(0.0, 0.0))


def _signed_blocks(matrix, sigma, sign):
    """Blocks of a symmetric matrix on the two spaces of a signed involution.

    The involution takes e_i to sign[i] e_sigma[i] and commutes with
    ``matrix``.  The basis of its even (then odd) space is, per pair
    i < sigma[i], (e_i + t e_sigma[i])/sqrt(2) with t = sign[i] (-sign[i]),
    and e_i per fixed point i of sign +1 (-1).  Returns [(block, i,
    sigma[i], t)] for the two spaces; the coupling block is exactly 0.
    """
    index = np.arange(sigma.size)
    blocks = []
    for parity in (1.0, -1.0):
        rows = np.flatnonzero((sigma > index) | ((sigma == index) & (sign == parity)))
        cols, t = sigma[rows], parity * sign[rows]
        scale = np.where(cols == rows, 0.5, _SQRT_HALF)
        half = (matrix[rows] + t[:, None] * matrix[cols]) * scale[:, None]
        blocks.append(((half[:, rows] + t * half[:, cols]) * scale, rows, cols, t))
    return blocks


def dual_frame_coefficients(spec, target, box_half_width=DUAL_BOX_HALF_WIDTH):
    """Coefficients of the (truncated) dual state at ``target`` = (m, n) in the primal family.

    The Gram G of the (2 box_half_width + 1)**2 pairs about the target is
    singular (the frame is redundant), so G c = e_target is solved on its
    frame band: eigen-directions above ``DUAL_GAP_CUT`` times the largest
    eigenvalue are inverted, the rest dropped.  The cut sits in no gap: the
    nearest eigenvalues are 0.2684 and 0.3310 of the largest at half-width
    4 (42 kept), 0.2869 and 0.3196 at 8 (147), 0.2942 and 0.3164 at 12
    (316), but within 1% of it at 6, 16 and 20.

    Exact symmetries shrink the solve; (dm, dn) are the offsets:
    - the target's Gram is D G_0 D, D = diag((-1)**(tn dm)), with G_0 the
      Gram about (0, 0), so c = D c_0;
    - J: dn -> -dn gives J G_0 J = conj(G_0), so with U = ((1 - i)I +
      (1 + i)J)/2, W = U^H G_0 U = Re G_0 - Im G_0 J is real with G's
      eigenvalues, and c_0 = U y for W y = e;
    - P: (dm, dn) -> (-dm, -dn) commutes with W, which splits into the
      even and odd parts of ``assembly_solver._fold``;
    - the Gaussian is its own Fourier transform, so the quarter turn S:
      e_(dm, dn) -> (-1)**(dm dn) e_(-dn, dm) has S G_0 S^T = G_0; S**2 = P,
      so S splits the even block and S J, the signed swap of dm and dn,
      the odd one (``_signed_blocks``).
    The target lies in the block even under P and S: one ``eigh`` there
    (157 wide at box 12) and one ``eigvalsh`` of each other block (156)
    for the cut, relative to the largest eigenvalue of all four.  The
    residual ||G (G c - e)|| is ||B (B z - e)|| on that block B.

    Returns (box, coefficients, consistency_residual), the box an
    ``IndexSet`` of the pairs (tm + dm, tn + dn).
    """
    tm, tn = target
    width = 2 * box_half_width + 1
    offsets = np.arange(-box_half_width, box_half_width + 1)
    dm, dn = np.repeat(offsets, width), np.tile(offsets, width)
    size, half = width * width, width * width // 2
    # J reverses the inner (dn) axis of the box, and J Im G_0 = -Im G_0 J;
    # the complex Gram is freed before the folds, which reuse its memory
    gram = lattice_gram(dm, dn).reshape(width, width, width, width)
    w = (gram.real - gram.imag[..., ::-1]).reshape(size, size)
    del gram
    # S and S J on the even and odd parts of _fold: part i stands for the
    # position i < half (or the centre) and its mirror size - 1 - i, and
    # the odd part of a position past half is the negative of its mirror's
    sign = 1.0 - 2.0 * (dm * dn & 1)
    turn = (box_half_width - dn) * width + box_half_width + dm
    swap = (box_half_width + dn) * width + box_half_width + dm
    even, odd = slice(size - half), slice(half)
    blocks = _signed_blocks(_even_parts(_even_parts(w).T), np.minimum(turn, size - 1 - turn)[even], sign[even])
    swap_sign = np.where(swap < half, sign, -sign)
    blocks += _signed_blocks(_odd_parts(_odd_parts(w).T), np.minimum(swap, size - 1 - swap)[odd], swap_sign[odd])
    (block, rows, cols, t), *others = blocks
    evals, evecs = np.linalg.eigh(block)
    largest = max([evals.max()] + [np.linalg.eigvalsh(other[0]).max(initial=-np.inf) for other in others])
    keep = evals > DUAL_GAP_CUT * largest
    if not np.any(keep):
        raise RuntimeError("spectral cut removed every Gram eigen-direction that reaches the target")
    kept = evecs[:, keep]
    # the target, the centre, is the block's last basis vector
    z = kept @ (kept[-1] / evals[keep])
    gap = block @ z
    gap[-1] -= 1.0
    residual = float(np.linalg.norm(block @ gap))
    # back through the S fold, then the P fold, whose odd parts are 0
    part = z * np.where(cols == rows, 1.0, _SQRT_HALF)
    y_even = np.zeros(size - half)
    y_even[cols], y_even[rows] = t * part, part
    y = _unfold(np.concatenate([y_even, np.zeros(half)]))
    y_mirror = y.reshape(width, width)[:, ::-1].ravel()
    c = 0.5 * ((y + y_mirror) + 1j * (y_mirror - y))
    c[tn * dm & 1 == 1] *= -1.0
    return IndexSet(tm + dm, tn + dn, spec), c, residual


def dual_decay_fit(index_set, coefficients, target):
    """Fit the decay envelope log|c| ~ log C - rate * sqrt(dist).

    The bound being probed is an upper envelope, and coefficients at equal
    distance vary strongly with direction, so the fit uses the maximum
    modulus per unit distance ring [b, b + 1), over coefficients above
    ``DUAL_FLOOR``; on ties the first in ``index_set`` order is kept.
    Returns (rate, r_squared, (distances, values, fitted)).  Raises
    ``ValueError`` when fewer than 3 rings are left, or when every ring
    maximum has the same modulus, where r_squared is undefined.
    """
    dm = index_set.m - target[0]
    dn = index_set.n - target[1]
    dist = np.sqrt(dm * dm + dn * dn)
    modulus = np.abs(coefficients)
    used = (dist > 0.0) & (modulus >= DUAL_FLOOR)
    dist, modulus = dist[used], modulus[used]
    ring = dist.astype(int)
    # by ring, then by falling modulus; the sort is stable, so ties keep their order
    order = np.lexsort((-modulus, ring))
    first = order[np.diff(ring[order], prepend=-1) != 0]
    if first.size < 3:
        raise ValueError("fewer than 3 distance rings above the decay floor to fit")
    distances = dist[first]
    sqrt_dist = np.sqrt(distances)
    vals = np.log(modulus[first])
    if np.ptp(vals) == 0.0:
        raise ValueError("every ring maximum has the same modulus: no decay to fit")
    slope, intercept = np.polyfit(sqrt_dist, vals, 1)
    fitted = slope * sqrt_dist + intercept
    ss_res = float(np.sum((vals - fitted) ** 2))
    ss_tot = float(np.sum((vals - vals.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    return -float(slope), float(r_squared), (distances, np.exp(vals), np.exp(fitted))


def quasi_orthogonality_probe(spec, op, distances=(2, 4, 8, 16)):
    """max |(P Psi_00, Psi_mn)| over lattice offsets with m**2 + n**2 = d**2, per d.

    For a constant-coefficient operator (a, b, c) = ``op.constant``, P
    multiplies the hbar-Fourier transform by -a*xi**2 - b*xi + c.  With
    (x, xi) = (m, n)*spacing and mu = (xi + 1j*x)/2 the pairing then has
    modulus exp(-(x**2 + xi**2)/(4*hbar)) * |-a*mu**2 - b*mu + c - a*hbar/2|,
    a closed form that stays accurate at separations where quadrature would
    hit the roundoff floor.
    """
    if op.constant is None:
        raise ValueError("quasi_orthogonality_probe needs a constant-coefficient operator")
    a, b, c = op.constant
    out = {}
    for d in distances:
        m, n = np.mgrid[-d : d + 1, -d : d + 1]
        on_circle = m * m + n * n == d * d
        x, xi = spec.spacing * m[on_circle], spec.spacing * n[on_circle]
        mu = 0.5 * (xi + 1j * x)
        factor = np.abs(-a * mu * mu - b * mu + c - 0.5 * a * spec.hbar)
        out[int(d)] = float(np.max(np.exp(-(x * x + xi * xi) / (4.0 * spec.hbar)) * factor))
    return out


def _box_mask(pairs, m_max, n_max):
    """Membership of ``pairs`` in the box |m| <= m_max, |n| <= n_max.

    Returns a boolean (2*m_max + 1, 2*n_max + 1) array, row m + m_max and
    column n + n_max, the layout of ``gaussian_states.box_coefficients``.
    Raises ``ValueError`` when a pair lies outside the box.
    """
    if np.any(np.abs(pairs.m) > m_max) or np.any(np.abs(pairs.n) > n_max):
        raise ValueError(f"plane-wave band reaches past the probed box |m| <= {m_max}, |n| <= {n_max}")
    mask = np.zeros((2 * m_max + 1, 2 * n_max + 1), dtype=bool)
    mask[pairs.m + m_max, pairs.n + n_max] = True
    return mask


def planewave_coefficient_probe(case):
    """Micro-localization of the plane-wave source in the lattice frame.

    Computes |(f, Psi_mn)| by quadrature for every pair with |x_m| <= 0.75 +
    ``PLANEWAVE_X_PAD`` and |xi_n| <= ``PLANEWAVE_XI_MAX``, in one call of
    ``gaussian_states.box_coefficients``, with f = phi(x) * exp(1j*k*x) the
    case's closed-form solution.  The band is ``build_planewave_rhs_set`` at
    ``PLANEWAVE_EPSILON``; raises ``ValueError`` when it reaches past the
    box, as at k in [1.25, 2] and [6.75, 8], where its half width
    hbar**(1/2 - epsilon) carries it past the pad or past
    ``PLANEWAVE_XI_MAX``.  Returns (max outside band) / (max inside band)
    together with both maxima.
    """
    k = case.k
    spec = LatticeSpec(1.0 / k)
    support = (-0.75, 0.75)
    h = spec.spacing
    m_max = math.floor((support[1] + PLANEWAVE_X_PAD) / h)
    n_max = math.floor(PLANEWAVE_XI_MAX / h)
    in_band = _box_mask(build_planewave_rhs_set(spec, support, PLANEWAVE_EPSILON), m_max, n_max)

    # f conj(Psi_mn) oscillates at most at k * (1 + xi_max)
    rule = quad.build_rule(support, k, quad.nodes_per_wavelength(1.0 + PLANEWAVE_XI_MAX))
    fw = case.exact_solution(rule.nodes)[0] * rule.weights
    vals = np.abs(gs.box_coefficients(spec.hbar, np.arange(-m_max, m_max + 1), n_max, rule.nodes, fw))
    inside = vals[in_band].max(initial=0.0)
    outside = vals[~in_band].max(initial=0.0)
    if inside == 0.0:
        raise RuntimeError("plane-wave band produced no interior coefficients")
    return outside / inside, outside, inside
