import functools
import math

import numpy as np
import pytest

from gcshelm import analysis, assembly_solver as asm, gaussian_states as gs, quadrature as quad
from gcshelm.phase_space import IndexSet, LatticeSpec
from gcshelm.problem_model import ProblemCase

from helpers import (
    box_frame_bounds,
    box_indices,
    dual_decay_fit_oracle,
    dual_frame_oracle,
    gram_band_solve,
    inner_product,
    operator_pair_inner,
    overlap,
    pairs_of,
    zak_frame_function,
)


def pair(fn, dfn):
    return lambda x: (fn(x), dfn(x))


def test_h1k_error_identical_and_scaled():
    k = 20.0
    u = pair(lambda x: np.exp(1j * k * x), lambda x: 1j * k * np.exp(1j * k * x))
    zero = analysis.h1k_error(u, u, (-1, 1), k)
    assert zero.absolute == 0.0 and zero.relative == 0.0
    twice = pair(lambda x: 2 * np.exp(1j * k * x), lambda x: 2j * k * np.exp(1j * k * x))
    rep = analysis.h1k_error(twice, u, (-1, 1), k)
    assert abs(rep.relative - 1.0) < 1e-12


def test_h1k_norm_of_plane_wave():
    # ||e^{ikx}||_{H1k}^2 = 2 + 2 = 4 on [-1, 1]
    k = 37.0
    u = pair(lambda x: np.exp(1j * k * x), lambda x: 1j * k * np.exp(1j * k * x))
    zero = pair(lambda x: np.zeros_like(x, dtype=complex), lambda x: np.zeros_like(x, dtype=complex))
    rep = analysis.h1k_error(zero, u, (-1, 1), k)
    assert abs(rep.absolute - 2.0) < 1e-12
    assert abs(rep.relative - 1.0) < 1e-14


def test_h1k_error_symmetry_and_triangle():
    k = 25.0
    rng = np.random.default_rng(5)

    def bump(x0, xi, w):
        return pair(
            lambda x: np.exp(-((x - x0) ** 2) / w + 1j * xi * k * x),
            lambda x: (-2 * (x - x0) / w + 1j * xi * k)
            * np.exp(-((x - x0) ** 2) / w + 1j * xi * k * x),
        )

    fs = [bump(*rng.uniform(0.1, 0.5, size=3)) for _ in range(3)]
    e_ab = analysis.h1k_error(fs[0], fs[1], (-1, 1), k).absolute
    e_ba = analysis.h1k_error(fs[1], fs[0], (-1, 1), k).absolute
    assert abs(e_ab - e_ba) < 1e-12
    e_ac = analysis.h1k_error(fs[0], fs[2], (-1, 1), k).absolute
    e_cb = analysis.h1k_error(fs[2], fs[1], (-1, 1), k).absolute
    assert e_ab <= e_ac + e_cb + 1e-12


def test_h1k_error_zero_reference():
    zero = pair(lambda x: np.zeros_like(x), lambda x: np.zeros_like(x))
    with pytest.raises(ValueError):
        analysis.h1k_error(zero, zero, (-1, 1), 20.0)


def test_h1k_error_evaluates_each_callable_once():
    # the reference may be a FEM solution and the approximation a kernel
    # pass; each is sampled once, and the result equals the former
    # expression that sampled every function twice
    k = 30.0
    calls = {}

    def counted(name, fn):
        def wrapped(x):
            calls[name] = calls.get(name, 0) + 1
            return fn(x)

        return wrapped

    funcs = {
        "va": lambda x: np.exp(1j * k * x) * np.cos(x),
        "da": lambda x: 1j * k * np.exp(1j * k * x) * np.cos(x) - np.exp(1j * k * x) * np.sin(x),
        "vr": lambda x: np.exp(1j * k * x),
        "dr": lambda x: 1j * k * np.exp(1j * k * x),
    }
    approx = counted("approx", pair(funcs["va"], funcs["da"]))
    ref = counted("ref", pair(funcs["vr"], funcs["dr"]))
    rep = analysis.h1k_error(approx, ref, (-1, 1), k)
    assert calls == {"approx": 1, "ref": 1}

    rule = quad.build_rule((-1, 1), k, 40)
    x, w = rule.nodes, rule.weights
    dv = funcs["va"](x) - funcs["vr"](x)
    dd = funcs["da"](x) - funcs["dr"](x)
    k2inv = 1.0 / k**2
    abs_sq = np.sum(w * (np.abs(dv) ** 2 + k2inv * np.abs(dd) ** 2))
    ref_sq = np.sum(w * (np.abs(funcs["vr"](x)) ** 2 + k2inv * np.abs(funcs["dr"](x)) ** 2))
    assert rep.absolute == math.sqrt(abs_sq)
    assert rep.relative == math.sqrt(abs_sq) / math.sqrt(ref_sq)


def test_lattice_gram_matches_overlap():
    spec = LatticeSpec(1.0 / 20.0)
    m = np.array([0, 1, 0, 2, -1])
    n = np.array([0, 0, 1, -1, 2])
    gram = analysis.lattice_gram(m, n)
    for i, (m1, n1) in enumerate(zip(m, n)):
        for j, (m2, n2) in enumerate(zip(m, n)):
            s1 = gs.CoherentState(spec.hbar, m1 * spec.spacing, n1 * spec.spacing)
            s2 = gs.CoherentState(spec.hbar, m2 * spec.spacing, n2 * spec.spacing)
            assert abs(gram[i, j] - overlap(s1, s2)) < 1e-14


def test_frame_bounds_single_state():
    diag = box_frame_bounds(0, 0)
    assert abs(diag.alpha_est - 1.0) < 1e-12
    assert abs(diag.beta_est - 1.0) < 1e-12


def test_frame_bounds_ordering_and_hbar_stability():
    a = box_frame_bounds(12, 5)
    assert 0.0 < a.alpha_est <= a.beta_est
    # the hbar-free Gram behind the bounds is the Gram of the states placed
    # on the lattice at each hbar
    m, n = box_indices(3)
    gram = analysis.lattice_gram(m, n)
    for hbar in (1.0 / 20.0, 1.0 / 100.0):
        spec = LatticeSpec(hbar)
        states = [
            gs.CoherentState(hbar, mi * spec.spacing, ni * spec.spacing)
            for mi, ni in zip(m, n)
        ]
        exact = np.array([[overlap(s1, s2) for s2 in states] for s1 in states])
        assert np.abs(gram - exact).max() < 1e-14


def _old_lattice_gram(m, n):
    # the Gram before the tail cut and the quarter-turn phase table
    dm = m[:, None] - m[None, :]
    dn = n[:, None] - n[None, :]
    mag = np.exp(-0.25 * math.pi * (dm.astype(float) ** 2 + dn.astype(float) ** 2))
    phase = 0.5 * math.pi * ((n[:, None] + n[None, :]) * (-dm)).astype(float)
    return mag * np.exp(1j * phase)


def _old_frame_bounds(gram, inner):
    # the full box product gram @ gram, cut to the inner block afterwards
    a = (gram @ gram)[np.ix_(inner, inner)]
    b = gram[np.ix_(inner, inner)]
    evals, evecs = np.linalg.eigh(b)
    keep = evals > 1e-10 * evals.max()
    w = evecs[:, keep] / np.sqrt(evals[keep])
    m = w.conj().T @ a @ w
    rq = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return rq.min(), rq.max()


@pytest.mark.parametrize("box", [12, 16])
def test_frame_bounds_match_unwindowed_full_product(box):
    margin = 5
    diag = box_frame_bounds(box, margin)
    got = (diag.alpha_est, diag.beta_est)
    m, n = box_indices(box)
    inner = np.flatnonzero(np.maximum(np.abs(m), np.abs(n)) <= box - margin)
    # The inner-block product alone reproduces the old product on one Gram.
    for g, want in zip(got, _old_frame_bounds(analysis.lattice_gram(m, n), inner)):
        assert abs(g - want) <= 1e-12 * want
    # Against the old Gram the estimate is only as determined as its
    # conditioning allows: the directions kept down to 1e-10 of the largest
    # Gram eigenvalue turn the 2.7e-15 rounding of exp(1j*phase) into about
    # 8e-10 of beta at box 12, as large as the old path's own change from one
    # to two BLAS threads (7.9e-10); 1e-8 leaves room for other BLAS builds.
    for g, want in zip(got, _old_frame_bounds(_old_lattice_gram(m, n), inner)):
        assert abs(g - want) <= 1e-8 * want


def test_lattice_gram_tail_is_exact_zero_and_no_subnormals():
    m, n = box_indices(20)
    gram = analysis.lattice_gram(m, n)
    tiny = np.finfo(float).tiny
    for part in (gram.real, gram.imag):
        assert not np.any((np.abs(part) > 0.0) & (np.abs(part) < tiny))
    d2 = (m[:, None] - m[None, :]) ** 2 + (n[:, None] - n[None, :]) ** 2
    past_tail = 0.25 * math.pi * d2 > -math.log(analysis._TAIL_TOL)
    assert np.all(gram[past_tail] == 0.0)
    closed_form = _old_lattice_gram(m, n)
    assert np.abs(gram - closed_form)[~past_tail].max() <= 1e-14


def _masked_exp_lattice_gram(m, n):
    # the Gram before its modulus table: exp on every entry, then the tail masked
    dm = m[None, :] - m[:, None]
    d2 = dm**2 + (n[:, None] - n[None, :]) ** 2
    tail = 4.0 * math.log(1.0 / analysis._TAIL_TOL) / math.pi
    mag = np.where(d2 <= tail, np.exp(-0.25 * math.pi * d2), 0.0)
    return mag * np.array([1.0, 1.0j, -1.0, -1.0j])[((n[:, None] + n[None, :]) * dm) % 4]


def test_lattice_gram_modulus_table_matches_masked_exp():
    m, n = box_indices(20)
    assert np.array_equal(analysis.lattice_gram(m, n), _masked_exp_lattice_gram(m, n))
    # off-centre indices reach every entry of the table and its zero; far
    # targets, and offsets up to 3000 steps, past the int16 clip of the
    # offsets and with every residue mod 4 of the indices
    for dm, dn in ((m + 7, 3 - n), (m + 97, n - 1234), (150 * m, -150 * n), (150 * m - 3, 7 - 149 * n)):
        assert np.array_equal(analysis.lattice_gram(dm, dn), _masked_exp_lattice_gram(dm, dn))
    # int16 offsets are exact over a span of 32767 steps, and no wider span is taken
    wide = np.array([-16384, -16383, 16383])
    assert np.array_equal(analysis.lattice_gram(wide, wide[::-1]), _masked_exp_lattice_gram(wide, wide[::-1]))
    with pytest.raises(ValueError, match="32767"):
        analysis.lattice_gram(np.array([0, 32768]), np.array([0, 0]))


def test_frame_bounds_are_zak_grid_extrema():
    # the unit cell [0, 1]**2 on a 401 x 401 grid, which holds (0, 0) and
    # (1/2, 1/2): no point lies below alpha (1 - 1e-12) or above
    # beta (1 + 1e-12), and both are attained
    diag = analysis.frame_bounds(LatticeSpec(1.0 / 20.0))
    grid = np.linspace(0.0, 1.0, 401)
    bound = zak_frame_function(grid[:, None], grid[None, :])
    assert abs(bound.min() - diag.alpha_est) <= 1e-12 * diag.alpha_est
    assert abs(bound.max() - diag.beta_est) <= 1e-12 * diag.beta_est


def test_frame_bounds_closed_form_values_and_hbar_free():
    diag = analysis.frame_bounds(LatticeSpec(1.0 / 20.0))
    assert abs(diag.alpha_est - 1.6692536833) < 1e-10
    assert abs(diag.beta_est - 2.3606811980) < 1e-10
    assert abs(diag.beta_est / diag.alpha_est - math.sqrt(2.0)) <= 1e-14 * math.sqrt(2.0)
    # the same bits at every hbar, whatever box the ignored keywords name
    assert analysis.frame_bounds(LatticeSpec(1.0 / 100.0)) == diag
    assert analysis.frame_bounds(LatticeSpec(1.0 / 20.0), box_half_width=20, interior_margin=3) == diag


def test_box_frame_bounds_widen_toward_zak_bounds():
    # the box estimate nests strictly inside the exact bounds and widens
    # toward them; a Zak transform at the wrong step or without its factor 2
    # lands outside the nest
    zak = analysis.frame_bounds(LatticeSpec(1.0 / 20.0))
    diags = [box_frame_bounds(box, 5) for box in (12, 16, 20)]
    alphas = [d.alpha_est for d in diags]
    betas = [d.beta_est for d in diags]
    assert zak.alpha_est < alphas[2] < alphas[1] < alphas[0]
    assert betas[0] < betas[1] < betas[2] < zak.beta_est
    assert alphas[2] <= zak.alpha_est * 1.005
    assert betas[2] >= zak.beta_est * 0.995


def test_frame_sandwich_random_bumps():
    # alpha ||v||^2 <= sum |(v, Psi_j)|^2 <= beta ||v||^2 for coherent-state
    # bumps centered well inside the box (all inner products closed-form)
    spec = LatticeSpec(1.0 / 20.0)
    bw, margin = 12, 5
    diag = box_frame_bounds(bw, margin)
    exact = analysis.frame_bounds(spec)
    rng = np.random.default_rng(2)
    m, n = box_indices(bw)
    states = [
        gs.CoherentState(spec.hbar, mi * spec.spacing, ni * spec.spacing)
        for mi, ni in zip(m, n)
    ]
    span = (bw - margin) * spec.spacing
    for _ in range(50):
        x0, xi0 = rng.uniform(-span / 2, span / 2, size=2)
        v = gs.CoherentState(spec.hbar, x0, xi0)
        energy = sum(abs(overlap(v, s)) ** 2 for s in states)
        assert diag.alpha_est * (1 - 1e-9) <= energy <= diag.beta_est * (1 + 1e-9)
        # the exact bounds hold for every v, and are looser than the box's
        assert exact.alpha_est * (1 - 1e-9) <= energy <= exact.beta_est * (1 + 1e-9)


def test_dual_frame_consistency_and_decay():
    spec = LatticeSpec(1.0 / 20.0)
    box, coeffs, residual = analysis.dual_frame_coefficients(spec, (0, 0))
    # the synthesized function reproduces the dual state: G(Gc - e) ~ 0
    assert residual <= 1e-6
    rate, r_squared, (dist, vals, fitted) = analysis.dual_decay_fit(box, coeffs, (0, 0))
    assert rate > 0.0
    assert r_squared >= 0.9
    assert len(dist) == len(vals) == len(fitted)
    # redundancy-2 kernel share: at most half of e_t is reachable, so the
    # plain row sum at the target sits near 1/2, not 1
    gram = analysis.lattice_gram(box.m, box.n)
    [target] = np.flatnonzero((box.m == 0) & (box.n == 0))
    row = (gram @ coeffs)[target]
    assert abs(row - 0.5) < 0.05


@pytest.mark.parametrize("box", [4, 8, 12, 16, 20])
def test_dual_decay_fit_matches_per_pair_loop(box):
    spec = LatticeSpec(1.0 / 20.0)
    index_set, coeffs, _ = analysis.dual_frame_coefficients(spec, (0, 0), box)
    rate, r_squared, (dist, vals, fitted) = analysis.dual_decay_fit(index_set, coeffs, (0, 0))
    want_rate, want_r2, (want_dist, want_vals, _) = dual_decay_fit_oracle(index_set, coeffs, (0, 0))
    # np.sqrt of the integer d2 is math.hypot's distance; np.abs and
    # abs(complex) may differ by an ulp, which can round log|c| to the
    # neighbouring double, up to 3.6e-15 for |log|c|| < 30 above DUAL_FLOOR,
    # and the values are exp(log|c|)
    assert np.array_equal(dist, want_dist)
    assert np.all(np.abs(vals - want_vals) <= 4e-15 * want_vals)
    assert abs(rate - want_rate) <= 1e-13 * want_rate
    assert abs(r_squared - want_r2) <= 1e-13 * want_r2
    assert len(fitted) == len(dist)


def test_dual_decay_fit_needs_three_rings():
    # box 2 reaches distances below 3: two rings, too few to fit a slope
    box, coeffs, _ = analysis.dual_frame_coefficients(LatticeSpec(1.0 / 20.0), (0, 0), 2)
    for fit in (analysis.dual_decay_fit, dual_decay_fit_oracle):
        with pytest.raises(ValueError):
            fit(box, coeffs, (0, 0))


def test_dual_decay_fit_rejects_equal_ring_maxima():
    # equal moduli leave no spread about the mean, so R^2 has no value
    box, _, _ = analysis.dual_frame_coefficients(LatticeSpec(1.0 / 20.0), (0, 0), 4)
    with pytest.raises(ValueError, match="same modulus"):
        analysis.dual_decay_fit(box, np.full(len(box), 0.5), (0, 0))


def _spy_on_eigh(monkeypatch):
    # record the routine, the matrix and the spectrum of every eigh and eigvalsh call
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def spy_eigh(a):
        evals, evecs = eigh(a)
        calls.append(("eigh", a.copy(), evals))
        return evals, evecs

    def spy_eigvalsh(a):
        evals = eigvalsh(a)
        calls.append(("eigvalsh", a.copy(), evals))
        return evals

    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
    return calls


def _four_blocks(calls, size):
    # the solve's four calls: one real eigh of the block even under the
    # point reflection P and the quarter turn S, where the target lies, then
    # one eigvalsh of each other block, none wider than ceil(ceil(L/2)/2);
    # returns the four blocks and their spectra together, W's
    assert [call for call, _, _ in calls] == ["eigh", "eigvalsh", "eigvalsh", "eigvalsh"]
    blocks = [block for _, block, _ in calls]
    widest = -(-(size - size // 2) // 2)
    assert all(b.dtype == np.float64 and b.shape[0] == b.shape[1] <= widest for b in blocks)
    assert sum(b.shape[0] for b in blocks) == size
    return blocks, np.concatenate([evals for _, _, evals in calls])


def _quarter_turn(m, n, tm, tn):
    # S e_(a, b) = (-1)**(a b) e_(-b, a) on the offsets (a, b) about the
    # target, as (image index, sign) per position
    a, b = m - tm, n - tn
    hit = (m[None, :] - tm == -b[:, None]) & (n[None, :] - tn == a[:, None])
    assert np.all(hit.sum(axis=1) == 1)
    return np.argmax(hit, axis=1), np.where((a * b) % 2 == 0, 1.0, -1.0)


def test_quarter_turn_leaves_the_lattice_gram_unchanged():
    # S G S^T = G bit for bit on the box about (0, 0), and S**2 = P
    for box in (1, 4, 12):
        m, n = box_indices(box)
        image, sign = _quarter_turn(m, n, 0, 0)
        gram = analysis.lattice_gram(m, n)
        turned = np.empty_like(gram)
        turned[np.ix_(image, image)] = sign[:, None] * gram * sign[None, :]
        assert np.array_equal(turned, gram)
        assert np.array_equal(image[image], np.arange(m.size)[::-1])


def test_target_box_gram_is_the_centred_one_signed():
    # the Gram about t = (tm, tn) is D_t G_0 D_t bit for bit, with
    # D_t = diag((-1)**(tn dm)) on the offsets (dm, dn) about t
    for box in (4, 12):
        dm, dn = box_indices(box)
        centred = analysis.lattice_gram(dm, dn)
        for tm, tn in [(3, 5), (-2, 1), (7, 4), (-5, -2), (1, -3)]:
            d = np.where((tn * dm) % 2 == 0, 1.0, -1.0)
            assert np.array_equal(analysis.lattice_gram(tm + dm, tn + dn), d[:, None] * centred * d[None, :])


def _by_signed_involution(matrix, sigma, sign):
    # matrix in the basis of the even, then the odd space of the signed
    # involution e_i -> sign[i] e_sigma[i]: (e_i +- sign[i] e_sigma[i])/sqrt(2)
    # per pair i < sigma[i], e_i per fixed point of sign +-1; row sums, then
    # column sums, so a block the involution does not couple is exactly 0
    basis = [
        (parity, i, sigma[i], parity * sign[i], 0.5 if sigma[i] == i else math.sqrt(0.5))
        for parity in (1.0, -1.0)
        for i in range(sigma.size)
        if sigma[i] > i or (sigma[i] == i and sign[i] == parity)
    ]
    parity, rows, cols, t, scale = (np.array(v) for v in zip(*basis))
    half = (matrix[rows] + t[:, None] * matrix[cols]) * scale[:, None]
    return (half[:, rows] + t * half[:, cols]) * scale, int(np.sum(parity > 0))


@pytest.mark.parametrize("target", [(0, 0), (3, 5), (-2, 1)])
@pytest.mark.parametrize("box", [0, 1, 4, 8, 12])
def test_dual_frame_real_form_matches_complex_eigh(box, target, monkeypatch):
    spec = LatticeSpec(1.0 / 20.0)
    m, n, coeffs, residual, kept = dual_frame_oracle(target, box)
    calls = _spy_on_eigh(monkeypatch)
    got_box, got, got_residual = analysis.dual_frame_coefficients(spec, target, box)
    # the four blocks keep as many directions of W as G's complex eigh
    _, spectrum = _four_blocks(calls, m.size)
    assert int(np.sum(spectrum > analysis.DUAL_GAP_CUT * spectrum.max())) == kept
    assert isinstance(got_box, IndexSet) and got_box.lattice == spec
    assert np.array_equal(got_box.m, m) and np.array_equal(got_box.n, n)
    assert np.abs(got - coeffs).max() <= 1e-14
    assert got_residual == pytest.approx(residual, rel=1e-9, abs=0.0)


@functools.lru_cache(maxsize=None)
def _centred_oracle(box):
    # the complex-eigh coefficients about (0, 0), once per box
    return dual_frame_oracle((0, 0), box)[2]


@pytest.mark.parametrize("target", [(0, 0), (3, 5), (-2, 1)])
@pytest.mark.parametrize("box", [0, 1, 4, 8, 12, 16, 20])
def test_dual_frame_halves_match_the_complex_eigh_oracle(box, target, monkeypatch):
    # no eigh or eigvalsh on the full box or a P half of it, and the
    # coefficients of G's complex eigh on the whole box: those about (0, 0)
    # signed by D_t = diag((-1)**(tn dm)), since the target's Gram is
    # D_t G_0 D_t; past box 12 the residual's own rounding grows (9e-8
    # relative at 16), so only the coefficients
    tm, tn = target
    calls = _spy_on_eigh(monkeypatch)
    index_set, got, _ = analysis.dual_frame_coefficients(LatticeSpec(1.0 / 20.0), target, box)
    _four_blocks(calls, len(index_set))
    d = np.where((tn * (index_set.m - tm)) % 2 == 0, 1.0, -1.0)
    assert np.abs(got - d * _centred_oracle(box)).max() <= 1e-14


@pytest.mark.parametrize("target", [(0, 0), (3, 5)])
@pytest.mark.parametrize("box", [1, 4, 8, 12])
def test_dual_gauge_is_real_with_the_gram_spectrum(box, target, monkeypatch):
    # U = exp(-i pi/4)(I + iJ)/sqrt(2), with J the mirror dn -> -dn about the
    # target, built here from its definition; U^H G U is real.  Its real
    # form W about (0, 0) is left unchanged bit for bit by the point
    # reflection P, by the quarter turn S on P's even block and by S J on
    # P's odd block, so each fold has exactly zero coupling blocks; the four
    # diagonal blocks are the matrices the solve hands to eigh and
    # eigvalsh, and together they have G's eigenvalues
    tm, tn = target
    calls = _spy_on_eigh(monkeypatch)
    index_set, _, _ = analysis.dual_frame_coefficients(LatticeSpec(1.0 / 20.0), target, box)
    m, n = index_set.m, index_set.n
    blocks, spectrum = _four_blocks(calls, m.size)
    mirror = (m[:, None] == m[None, :]) & (n[:, None] + n[None, :] == 2 * tn)
    u = np.exp(-0.25j * math.pi) * (np.eye(m.size) + 1j * mirror) / math.sqrt(2.0)
    assert np.abs(u.conj().T @ u - np.eye(m.size)).max() <= 1e-15
    gram = analysis.lattice_gram(m, n)
    gauge = u.conj().T @ gram @ u
    assert np.abs(gauge.imag).max() <= 1e-14
    mu = np.argmax(mirror, axis=1)
    centred = analysis.lattice_gram(m - tm, n - tn)
    w = centred.real - 0.5 * (centred.imag[:, mu] - centred.imag[mu])
    d = np.where((tn * (m - tm)) % 2 == 0, 1.0, -1.0)
    assert np.abs(d[:, None] * w * d[None, :] - gauge.real).max() <= 1e-14
    reflection = (m[:, None] + m[None, :] == 2 * tm) & (n[:, None] + n[None, :] == 2 * tn)
    p = np.argmax(reflection, axis=1)
    assert np.array_equal(p, np.arange(m.size)[::-1])
    assert np.array_equal(w[p][:, p], w)
    folded = asm._fold(asm._fold(w).T)
    half = m.size - m.size // 2
    assert np.all(folded[:half, half:] == 0.0) and np.all(folded[half:, :half] == 0.0)
    # S and S J as matrices, folded by P like W; on P's even and odd
    # blocks each is a signed permutation and an involution
    image, sign = _quarter_turn(m, n, tm, tn)
    turn = np.zeros((m.size, m.size))
    turn[image, np.arange(m.size)] = sign
    for part, involution in ((slice(None, half), turn), (slice(half, None), turn[:, mu])):
        folded_involution = asm._fold(asm._fold(involution).T)[part, part]
        assert np.abs(folded_involution - np.rint(folded_involution)).max() <= 1e-15
        sigma = np.argmax(np.abs(folded_involution), axis=0)
        signs = np.rint(folded_involution[sigma, np.arange(sigma.size)])
        assert np.array_equal(sigma[sigma], np.arange(sigma.size)) and np.all(signs[sigma] == signs)
        block = folded[part, part]
        assert np.array_equal(signs[:, None] * block[np.ix_(sigma, sigma)] * signs[None, :], block)
        by_involution, even = _by_signed_involution(block, sigma, signs)
        assert np.all(by_involution[:even, even:] == 0.0) and np.all(by_involution[even:, :even] == 0.0)
        kept_blocks, blocks = blocks[:2], blocks[2:]
        assert np.array_equal(kept_blocks[0], by_involution[:even, :even])
        assert np.array_equal(kept_blocks[1], by_involution[even:, even:])
    want = np.linalg.eigvalsh(gram)
    assert np.abs(np.sort(spectrum) - want).max() <= 1e-13 * want.max()


def _kept_and_clear_of_cut(box, monkeypatch):
    # kept count of the real solve over the four blocks, and whether every
    # eigenvalue of W lies more than 1% away from the cut
    calls = _spy_on_eigh(monkeypatch)
    analysis.dual_frame_coefficients(LatticeSpec(1.0 / 20.0), (0, 0), box)
    _, spectrum = _four_blocks(calls, (2 * box + 1) ** 2)
    fractions = spectrum / spectrum.max()
    kept = int(np.sum(fractions > analysis.DUAL_GAP_CUT))
    return kept, bool(np.all(np.abs(fractions / analysis.DUAL_GAP_CUT - 1.0) > 0.01))


@pytest.mark.parametrize("box,kept", [(4, 42), (8, 147), (12, 316)])
def test_dual_gap_cut_keeps_a_margin(box, kept, monkeypatch):
    assert _kept_and_clear_of_cut(box, monkeypatch) == (kept, True)


def test_dual_gap_cut_margin_check_trips_at_box_20(monkeypatch):
    # an eigenvalue at 0.3007 of the largest lies within 1% of the cut
    assert _kept_and_clear_of_cut(20, monkeypatch) == (847, False)


def _worst_dual_energy(hbar, x_stretch=1.0):
    # largest dual-coefficient energy of random bumps near the box centre,
    # with the states at (x_stretch * m, n) times the lattice spacing
    spec = LatticeSpec(hbar)
    bw = 8
    m, n = box_indices(bw)
    states = [
        gs.CoherentState(spec.hbar, x_stretch * mi * spec.spacing, ni * spec.spacing)
        for mi, ni in zip(m, n)
    ]
    rng = np.random.default_rng(4)
    bumps = [
        gs.CoherentState(spec.hbar, *rng.uniform(-2 * spec.spacing, 2 * spec.spacing, size=2))
        for _ in range(20)
    ]
    coef = np.array([[overlap(v, s) for v in bumps] for s in states])
    dual, _ = gram_band_solve(analysis.lattice_gram(m, n), coef)
    return float(np.max(np.sum(np.abs(dual) ** 2, axis=0)))


def _energies_agree(a, b):
    return abs(a - b) <= 1e-10 * max(a, b)


def test_dual_coefficient_energy_stable_across_hbar():
    # the lattice Gram and the overlaps are hbar-free in lattice units, so
    # the dual-coefficient energies agree across hbar to rounding
    assert _energies_agree(_worst_dual_energy(1.0 / 20.0), _worst_dual_energy(1.0 / 100.0))


def test_dual_coefficient_energy_check_rejects_stretched_lattice():
    # positions 1% off the lattice move the energy by 0.86%
    a, b = _worst_dual_energy(1.0 / 20.0), _worst_dual_energy(1.0 / 100.0, x_stretch=1.01)
    assert not _energies_agree(a, b)


def test_quasi_orthogonality_decay():
    spec = LatticeSpec(1.0 / 100.0)
    op = gs.constant_operator(-1.0, 0.0, -1.0)
    probe = analysis.quasi_orthogonality_probe(spec, op, distances=(2, 4, 8))
    assert probe[2] / probe[4] >= 6.0
    assert probe[4] / probe[8] >= 6.0


def _per_pair_probe(spec, op, distances):
    # the probe as one closed-form pairing per pair of states: a double loop
    # over the offsets with m**2 + n**2 = d**2
    s1 = gs.CoherentState(spec.hbar, 0.0, 0.0)
    out = {}
    for d in distances:
        best = 0.0
        for dm in range(-d, d + 1):
            rem = d * d - dm * dm
            dn = int(round(math.sqrt(rem)))
            if dn * dn != rem:
                continue
            for sn in {dn, -dn}:
                s2 = gs.CoherentState(spec.hbar, dm * spec.spacing, sn * spec.spacing)
                best = max(best, abs(operator_pair_inner(op, s1, s2)))
        out[d] = best
    return out


@pytest.mark.parametrize("hbar", [1.0 / 20.0, 1.0 / 100.0, 1.0 / 400.0, 0.3])
@pytest.mark.parametrize(
    "triple", [(-1.0, 0.0, -1.0), (-1.0, 0.3, -2.0), (-1.0 + 0.2j, 0.1j, -1.5)]
)
def test_quasi_orthogonality_probe_matches_per_pair_loop(hbar, triple):
    spec = LatticeSpec(hbar)
    op = gs.constant_operator(*triple)
    distances = (1, 2, 3, 5, 8, 13, 16)
    got = analysis.quasi_orthogonality_probe(spec, op, distances)
    want = _per_pair_probe(spec, op, distances)
    assert list(got) == list(distances)
    for d in distances:
        assert abs(got[d] - want[d]) <= 1e-14 * want[d]


def test_planewave_probe_values():
    case = ProblemCase.homogeneous(100)
    ratio, outside, inside = analysis.planewave_coefficient_probe(case)
    assert ratio < 1.0
    assert inside > 0.1
    # a state two frequency bands away couples below 1e-10
    spec = LatticeSpec(1.0 / 100.0)
    from gcshelm import quadrature as quad
    from gcshelm.problem_model import cutoff_phi

    n2 = math.ceil(2.0 / spec.spacing)  # first lattice frequency with |xi| >= 2
    state = gs.CoherentState(spec.hbar, 0.0, n2 * spec.spacing)
    rule = quad.build_rule((-0.75, 0.75), 100, 160)
    val = inner_product(
        lambda x: cutoff_phi(x) * np.exp(1j * 100 * x),
        lambda x: gs.eval_state(state, x),
        rule,
    )
    assert abs(val) < 1e-10


@pytest.mark.parametrize("k", [50.0, 200.0])
def test_planewave_probe_matches_old_density_rule(k, monkeypatch):
    # the probe's former rule, max(20, ceil(40 * (1 + xi_max))) nodes per
    # wavelength, four times the density of the production rule
    new = analysis.planewave_coefficient_probe(ProblemCase.homogeneous(k))
    monkeypatch.setattr(quad, "nodes_per_wavelength", lambda f: max(20, math.ceil(40 * f)))
    old = analysis.planewave_coefficient_probe(ProblemCase.homogeneous(k))
    for got, want in zip(new, old):
        assert abs(got - want) <= 1e-12 * want


def test_box_mask_matches_keyed_membership():
    # the probe's box mask against its former test, np.isin on one integer
    # key per pair, at every integer k from 9 to 800
    from gcshelm.phase_space import build_planewave_rhs_set

    for k in range(9, 801):
        spec = LatticeSpec(1.0 / k)
        h = spec.spacing
        m_max = math.floor((0.75 + analysis.PLANEWAVE_X_PAD) / h)
        n_max = math.floor(analysis.PLANEWAVE_XI_MAX / h)
        band = build_planewave_rhs_set(spec, (-0.75, 0.75), analysis.PLANEWAVE_EPSILON)
        m = np.repeat(np.arange(-m_max, m_max + 1), 2 * n_max + 1)
        n = np.tile(np.arange(-n_max, n_max + 1), 2 * m_max + 1)
        span = 2 * max(n_max, int(np.abs(band.n).max(initial=0))) + 1
        keyed = np.isin(m * span + n, band.m * span + band.n)
        mask = analysis._box_mask(band, m_max, n_max)
        assert mask.sum() == len(band), k
        assert np.array_equal(mask.ravel(), keyed), k


def test_planewave_probe_raises_when_band_leaves_box():
    # at k = 7 the band's position half width hbar**(1/4) reaches x = 1.36,
    # past the box's 1.25; at k = 9 and k = 20 (the benchmark's warm-up) it fits
    with pytest.raises(ValueError, match="past the probed box"):
        analysis.planewave_coefficient_probe(ProblemCase.homogeneous(7.0))
    for k in (9.0, 20.0):
        ratio, _, inside = analysis.planewave_coefficient_probe(ProblemCase.homogeneous(k))
        assert 0.0 < ratio < 1.0 and inside > 0.0


def test_planewave_probe_forms_no_state_blocks(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the plane-wave probe formed state blocks")

    monkeypatch.setattr(gs, "state_blocks", forbidden)
    ratio, _, _ = analysis.planewave_coefficient_probe(ProblemCase.homogeneous(50.0))
    assert ratio < 1.0


def test_planewave_probe_matches_per_state_loop():
    # the same quantities from one eval_state call per lattice pair
    from gcshelm import quadrature as quad
    from gcshelm.phase_space import build_planewave_rhs_set
    from gcshelm.problem_model import cutoff_phi

    case = ProblemCase.homogeneous(50)
    spec = LatticeSpec(1.0 / case.k)
    band = pairs_of(build_planewave_rhs_set(spec, (-0.75, 0.75), 0.25))
    rule = quad.build_rule((-0.75, 0.75), case.k, quad.nodes_per_wavelength(1.0 + 2.5))
    fw = cutoff_phi(rule.nodes, 0) * np.exp(1j * case.k * rule.nodes) * rule.weights
    inside = outside = 0.0
    for m in range(-math.floor(1.25 / spec.spacing), math.floor(1.25 / spec.spacing) + 1):
        for n in range(-math.floor(2.5 / spec.spacing), math.floor(2.5 / spec.spacing) + 1):
            state = gs.CoherentState(spec.hbar, m * spec.spacing, n * spec.spacing)
            val = abs(np.sum(fw * np.conj(gs.eval_state(state, rule.nodes))))
            if (m, n) in band:
                inside = max(inside, val)
            else:
                outside = max(outside, val)
    got = analysis.planewave_coefficient_probe(case)
    for g, want in zip(got, (outside / inside, outside, inside)):
        assert abs(g - want) <= 1e-12 * want
