"""Error norms, frame diagnostics and phase-space decay probes.

The weighted error norm is ||v||_H1k**2 = ||v||**2 + k**-2 ||v'||**2 on a
bounded window.  Frame diagnostics work on a truncated lattice box whose
Gram matrix is available in closed form; in lattice units it is exactly
independent of hbar, which is what makes the frame bounds hbar-stable.
The Gram is cut at the tail tolerance of the state kernel: entries below
``quad.DEFAULT_TAIL_TOL`` = exp(-72), the tolerance of the 12-sigma window
of ``gaussian_states.state_blocks`` (lattice distance beyond
sqrt(288/pi) ~ 9.6 steps), are exactly 0, so it holds no subnormal
numbers, and its phases are exact quarter turns.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian_states as gs
from . import quadrature as quad
from .phase_space import LatticeSpec, build_planewave_rhs_set, lattice_point
from .problem_model import cutoff_phi

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
    """Relative and absolute H1_k distance between two (value, derivative) pairs.

    ``u_approx`` and ``u_ref`` are pairs of vectorized callables (v, v').
    """
    rule = quad.build_rule(window, k, nodes_per_wavelength)
    va, da = u_approx
    vr, dr = u_ref
    dv = np.asarray(va(rule.nodes)) - np.asarray(vr(rule.nodes))
    dd = np.asarray(da(rule.nodes)) - np.asarray(dr(rule.nodes))
    k2inv = 1.0 / float(k) ** 2
    abs_sq = np.sum(rule.weights * (np.abs(dv) ** 2 + k2inv * np.abs(dd) ** 2))
    ref_sq = np.sum(
        rule.weights
        * (np.abs(vr(rule.nodes)) ** 2 + k2inv * np.abs(dr(rule.nodes)) ** 2)
    )
    if ref_sq <= 0.0:
        raise ValueError("reference function has zero H1_k norm on the window")
    absolute = math.sqrt(float(abs_sq))
    return ErrorReport(absolute, absolute / math.sqrt(float(ref_sq)))


def _box_pairs(half_width):
    rng = range(-half_width, half_width + 1)
    return [(m, n) for m in rng for n in rng]


# 1j**j for j mod 4: lattice Gram phases are whole quarter turns
_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])
# lattice distances squared past which exp(-pi*d2/4) < quad.DEFAULT_TAIL_TOL
_GRAM_TAIL_D2 = 4.0 * math.log(1.0 / quad.DEFAULT_TAIL_TOL) / math.pi


def lattice_gram(pairs):
    """Closed-form Gram matrix G[i, j] = (Psi_i, Psi_j) = int Psi_i conj(Psi_j) dx.

    In lattice indices the entries are exp(-pi*d2/4) * 1j**((n1+n2)*(m2-m1))
    with d2 = (m1-m2)**2 + (n1-n2)**2, independent of hbar.  The phase is
    taken exactly from the quarter turns 1, 1j, -1, -1j.  Entries with
    pi*d2/4 > log(1/quad.DEFAULT_TAIL_TOL), of modulus below exp(-72), are
    exactly 0.
    """
    m = np.array([p[0] for p in pairs])
    n = np.array([p[1] for p in pairs])
    dm = m[None, :] - m[:, None]
    d2 = dm**2 + (n[:, None] - n[None, :]) ** 2
    mag = np.where(d2 <= _GRAM_TAIL_D2, np.exp(-0.25 * math.pi * d2), 0.0)
    return mag * _QUARTER_TURNS[((n[:, None] + n[None, :]) * dm) % 4]


def frame_bounds(spec, box_half_width=25, interior_margin=5):
    """Extremal frame Rayleigh quotients on a truncated lattice box.

    Test functions live in the span of the interior states (margin away from
    the box edge); the frame sum runs over the whole box.  The quotient
    (d* (G^2)_II d) / (d* G_II d) is extremized over the numerically
    nondegenerate directions of G_II.
    """
    pairs = _box_pairs(box_half_width)
    gram = lattice_gram(pairs)
    inner = [
        i
        for i, (m, n) in enumerate(pairs)
        if max(abs(m), abs(n)) <= box_half_width - interior_margin
    ]
    a = gram[inner] @ gram[:, inner]
    b = gram[np.ix_(inner, inner)]
    evals, evecs = np.linalg.eigh(b)
    keep = evals > 1e-10 * evals.max()
    w = evecs[:, keep] / np.sqrt(evals[keep])
    m = w.conj().T @ a @ w
    rq = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    diag = FrameDiagnostics(float(rq.min()), float(rq.max()))
    if not 0.0 < diag.alpha_est <= diag.beta_est:
        raise RuntimeError("frame bound estimation produced an invalid ordering")
    return diag


def dual_frame_coefficients(spec, target, box_half_width=12, gap_cut=0.3):
    """Coefficients of the (truncated) dual state at ``target`` = (m, n) in the primal family.

    The lattice is a redundant frame, so the box Gram G has an essential
    kernel (the synthesis null space) and G c = e_target is solvable only up
    to that kernel.  The well-posed realization inverts G on its frame band:
    eigen-directions with eigenvalue above ``gap_cut`` times the largest are
    kept, the rest (kernel plus box-edge artifacts below the spectral gap)
    are discarded.  The returned residual is ||G (G c - e)||, which vanishes
    exactly when G c - e lies in the kernel, i.e. when the synthesized
    function reproduces the dual state on the box.

    Returns (pairs, coefficients, consistency_residual).
    """
    tm, tn = target
    pairs = [
        (tm + dm, tn + dn)
        for dm in range(-box_half_width, box_half_width + 1)
        for dn in range(-box_half_width, box_half_width + 1)
    ]
    gram = lattice_gram(pairs)
    e = np.zeros(len(pairs), dtype=complex)
    e[pairs.index((tm, tn))] = 1.0
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > gap_cut * evals.max()
    if not np.any(keep):
        raise RuntimeError("spectral cut removed every Gram eigen-direction")
    c = evecs[:, keep] @ ((evecs[:, keep].conj().T @ e) / evals[keep])
    residual = float(np.linalg.norm(gram @ (gram @ c - e)))
    return pairs, c, residual


def dual_decay_fit(pairs, coefficients, target, floor=1e-13):
    """Fit the decay envelope log|c| ~ log C - rate * sqrt(dist).

    The bound being probed is an upper envelope, and coefficients at equal
    distance vary strongly with direction, so the fit uses the maximum
    modulus per unit distance annulus.  Returns (rate, r_squared,
    (distances, values, fitted)).
    """
    tm, tn = target
    annuli = {}
    for (m, n), c in zip(pairs, coefficients):
        d = math.hypot(m - tm, n - tn)
        if d == 0.0 or abs(c) < floor:
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


def quasi_orthogonality_probe(spec, op, base=(0, 0), distances=(2, 4, 8, 16)):
    """max |(P Psi_base, Psi_shifted)| over lattice offsets at each distance.

    Uses the closed-form constant-coefficient pairing, which stays accurate
    at separations where quadrature would hit the roundoff floor.
    """
    bm, bn = base
    s1 = gs.CoherentState(spec.hbar, lattice_point(bm, spec), lattice_point(bn, spec))
    out = {}
    for d in distances:
        best = 0.0
        for dm in range(-d, d + 1):
            rem = d * d - dm * dm
            dn = int(round(math.sqrt(rem)))
            if dn * dn != rem:
                continue
            for sn in {dn, -dn}:
                s2 = gs.CoherentState(
                    spec.hbar,
                    lattice_point(bm + dm, spec),
                    lattice_point(bn + sn, spec),
                )
                best = max(best, abs(gs.operator_pair_inner(op, s1, s2)))
        out[int(d)] = best
    return out


def planewave_coefficient_probe(case, epsilon=0.25, x_pad=0.5, xi_max=2.5):
    """Micro-localization of the plane-wave source in the lattice frame.

    Computes |(f, Psi_mn)| by quadrature for every pair in a box around the
    source support, one block of equal x_m at a time, with
    f = phi(x) * exp(1j*k*x) built from the C3 cutoff.
    Returns (max outside band) / (max inside band) together with both maxima.
    """
    k = case.k
    spec = LatticeSpec(1.0 / k)
    support = (-0.75, 0.75)
    band = build_planewave_rhs_set(spec, support, epsilon)
    band_set = {(p.m, p.n) for p in band.members}
    h = spec.spacing
    m_max = math.floor((support[1] + x_pad) / h)
    n_max = math.floor(xi_max / h)

    density = max(quad.DEFAULT_NODES_PER_WAVELENGTH, math.ceil(40 * (1.0 + xi_max)))
    rule = quad.build_rule((support[0], support[1]), k, density)
    fw = cutoff_phi(rule.nodes, 0) * np.exp(1j * k * rule.nodes) * rule.weights

    m = np.repeat(np.arange(-m_max, m_max + 1), 2 * n_max + 1)
    n = np.tile(np.arange(-n_max, n_max + 1), 2 * m_max + 1)
    vals = np.zeros(m.size)
    for rows, cols, block in gs.state_blocks(spec.hbar, m * h, n * h, rule.nodes):
        vals[cols] = np.abs(fw[rows] @ np.conj(block))
    in_band = np.array([pair in band_set for pair in zip(m.tolist(), n.tolist())])
    inside = vals[in_band].max(initial=0.0)
    outside = vals[~in_band].max(initial=0.0)
    if inside == 0.0:
        raise RuntimeError("plane-wave band produced no interior coefficients")
    return outside / inside, outside, inside
