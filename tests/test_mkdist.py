"""Distance search invariants at desk scale."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qsphere import GnsContext, UqActions, make_algebra
from qsphere import mkdist, specnorm
from qsphere.berezin import Berezin
from qsphere.exprs import element_to_text
from qsphere.mkdist import (_ShiftDenominator, approx_inequality_check,
                            charge_zero_lp, default_probes,
                            estimate_distance, theorem_b_approximant)
from qsphere.qhopf import AlgebraElement
from qsphere.specnorm import RepTruncation, delta_block_matrix
from qsphere.suites import random_elements
from scipy_ref import as_csr


SMALL = dict(norm_truncation=100)
# the general-span oracle's settings of the frozen search path
ORACLE_SMALL = dict(norm_truncation=100, restarts=2, max_iters=40, seed=3)
# item 1's closed form of d(h_1, eps) at q = 1/2 and q = 9/10
DIST_HALF_N1 = 0.6323410944
DIST_NINE_N1 = 1.09192994263


def objective_value(ber, x, N, mode, norm_truncation):
    """|h_N(x) - eps(x)| over the mode's Lip scale, from the element
    alone: the score estimate_distance gives a candidate."""
    lip = specnorm.lip_norm(ber.gns.actions, x, norm_truncation,
                            ladder=False).value
    num = abs(mkdist._real_value(ber.h_twisted(x, N) - ber.alg.counit(x)))
    return num / (lip.upper_bound if mode == "certified" else lip.lower_bound)


def _ber(qn, qd):
    alg = make_algebra(qn, qd)
    return Berezin(GnsContext(alg, UqActions(alg)))


@pytest.fixture(scope="module")
def ber_nine():
    return _ber(9, 10)


@pytest.fixture(scope="module")
def ber_one(alg_one):
    return Berezin(GnsContext(alg_one, UqActions(alg_one)))


def _canonical_rescale(u):
    """Divide by a real rational read off the leading coefficient.

    The divisor scales linearly under rational rescaling of u, so the
    result is exactly invariant under u -> s u for rational s != 0.
    Selfadjointness survives because the divisor is real.
    """
    lead = min(u.terms)
    c = u.terms[lead]
    if hasattr(c, "re"):
        for comp in (c.re, c.im, c.sre, c.sim):
            if comp != 0:
                inv = u.alg.field.from_rational(comp.denominator,
                                                comp.numerator)
                return u.scale(inv)
        raise ValueError("zero leading coefficient")
    ctx = u.alg.field.ctx
    re, im = ctx.re(c.val), ctx.im(c.val)
    pick = re if abs(re) > abs(im) else im
    if pick == 0:
        raise ValueError("zero leading coefficient")
    return u.scale(u.alg.field.from_float(1.0 / float(pick)))


def _general_basis(gns, M):
    """Real basis of the nonscalar selfadjoint part of the fuzzy span.

    Weight-0 vectors contribute their symmetrization, each positive
    weight vector contributes v + v* and i(v - v*); negative weights are
    the stars of these.  The unit is excluded, pinning the scalar
    component of every combination to 0.  Elements are canonically
    rescaled so that the basis, hence the search, is invariant under
    rational rescaling of the fuzzy vectors.
    """
    alg = gns.alg
    half = alg.field.from_rational(1, 2)
    i_unit = alg.field.from_parts(0, 1)
    out = []
    for vec in gns.fuzzy_basis(M):
        if vec.spin == 0 or vec.weight < 0:
            continue
        v = vec.element
        if vec.weight == 0:
            out.append(_canonical_rescale((v + v.star()).scale(half)))
        else:
            out.append(_canonical_rescale(v + v.star()))
            out.append(_canonical_rescale((v - v.star()).scale(i_unit)))
    return out


def general_span_ascents(ber, N, M, norm_truncation=200, restarts=8,
                         max_iters=150, seed=0):
    """The general-span oracle: one projected subgradient ascent on the
    truncated ratio over the whole selfadjoint fuzzy span per start, the
    first start eta, then seeded restarts up to `restarts` starts.
    Returns (tag, best ratio, its coordinates, the basis) per start."""
    gns = ber.gns
    alg = gns.alg
    basis = _general_basis(gns, M)
    eta = np.array([mkdist._real_value(ber.h_twisted(u, N) - alg.counit(u))
                    for u in basis])
    denom = _ShiftDenominator(gns.actions, basis, norm_truncation)
    starts = [("eta", eta.copy())] if np.linalg.norm(eta) > 0 else []
    r = 0
    while len(starts) < restarts:
        rng = np.random.default_rng([seed, r])
        starts.append((f"restart{r}", rng.standard_normal(len(basis))))
        r += 1
    out = []
    for tag, c0 in starts:
        f, c = mkdist._ascend(eta, denom, c0, max_iters)
        out.append((tag, f, c, basis))
    return out


@pytest.fixture(scope="module")
def est1(ber_half):
    return estimate_distance(ber_half, 1, 2, **SMALL)


@pytest.fixture(scope="module")
def est1_heur(ber_half):
    return estimate_distance(ber_half, 1, 2, mode="heuristic", **SMALL)


def test_problem_validation(ber_half):
    with pytest.raises(ValueError, match="level N"):
        estimate_distance(ber_half, 0, 2)
    with pytest.raises(ValueError, match="search truncation M"):
        estimate_distance(ber_half, 1, 0)
    with pytest.raises(ValueError, match="mode"):
        estimate_distance(ber_half, 1, 2, mode="exact")
    for gone in ("restarts", "max_iters", "seed"):
        with pytest.raises(TypeError):
            estimate_distance(ber_half, 1, 2, **{gone: 1})


def test_basis_structure(gns_half, alg_half):
    basis = _general_basis(gns_half, 2)
    assert len(basis) == 8      # (M+1)^2 - 1
    for v in basis:
        assert v == v.star()
        assert alg_half.haar(v).is_zero() or v.sphere_degree() > 0
        assert not all(m.is_unit() for m in v.terms)


def test_frozen_level_one_value(est1):
    # witness A - h(A): numerator h_1(A) - eps(A) = 4/21, scale bound 4
    want = float(Fraction(4, 21) / 4)
    assert est1.certified_value == pytest.approx(want, rel=1e-12)
    assert est1.value == est1.certified_value


def test_cert_below_heur(est1):
    assert est1.certified_value <= est1.heuristic_value + 1e-12


def test_witness_reproduces_value(ber_half, est1):
    v = objective_value(ber_half, est1.witness, 1, "certified", 100)
    assert v == pytest.approx(est1.value, rel=1e-9)


def test_scale_and_shift_invariance(ber_half, alg_half, est1):
    alg = alg_half
    x = est1.witness
    for c in (3, Fraction(-7, 2)):
        y = x.scale(alg.field.from_rational(Fraction(c)))
        assert objective_value(ber_half, y, 1, "certified", 100) == \
            pytest.approx(est1.value, rel=1e-12)
    z = x + alg.unit.scale(alg.field.from_rational(5, 3))
    assert objective_value(ber_half, z, 1, "certified", 100) == \
        pytest.approx(est1.value, rel=1e-12)


def test_deterministic(ber_half, est1):
    again = estimate_distance(ber_half, 1, 2, **SMALL)
    assert again.value == est1.value
    assert again.witness == est1.witness


def test_monotone_in_search_space(ber_half, est1):
    small = estimate_distance(ber_half, 1, 1, **SMALL)
    assert small.value <= est1.value + 1e-12


def test_heuristic_mode(est1_heur):
    est = est1_heur
    assert est.value == est.heuristic_value
    assert est.certified_value <= est.heuristic_value + 1e-12


def test_frozen_heuristic_search_path(ber_half, est1_heur):
    # the general-span oracle from eta at q = 1/2, N = 1, M = 2.
    # Re-recorded when the ascent's singular-value kernel moved from a
    # warm-started power loop to Lanczos with a residual stop: the old
    # path was built on sigma values up to 3.9e-9 off inside a 1e-12
    # stopping rule.  The coordinates and the rationalized witness move
    # with roundoff changes in the ascent, so they pin its floating-point
    # path exactly; they are the same with one and with two BLAS threads.
    # The value is compared to 1e-14: it was recorded when the scoring
    # seminorm came from LAPACK's dense SVD, and the Lanczos kernel that
    # scores it now agrees with that SVD to roundoff, not bit for bit.
    runs = general_span_ascents(ber_half, 1, 2, **ORACLE_SMALL)
    scores = [objective_value(ber_half, mkdist._rationalize(c, basis)[0], 1,
                              "heuristic", 100)
              for _tag, _f, c, basis in runs]
    tag, _f, c, basis = runs[int(np.argmax(scores))]
    assert tag == "eta"
    assert tuple(c) == (
        -6.221075432166233e-12, 9.799022153455215e-12, 0.7577025228783502,
        -7.81188671700435e-16, 2.1992031681212965e-17,
        -1.4802869652136395e-12, 2.3559937232206227e-12,
        -0.6526000971680765)
    assert max(scores) == pytest.approx(0.44375529658809226, rel=1e-14)
    assert element_to_text(mkdist._rationalize(c, basis)[0]) == (
        "72337223/521492211 + 765238115/173830737*b*bs"
        " - 13362360893/2781291792*b^2*bs^2")
    # the ascent stopped under the span optimum, which the estimate now
    # reports: re-pinned from 0.44375529658809226
    assert est1_heur.source == "lp"
    assert est1_heur.heuristic_value == pytest.approx(0.4439603061570092,
                                                      rel=1e-14)
    assert max(scores) < est1_heur.heuristic_value


def _old_shift_operator(mats, c):
    # the route the fixed pattern replaced: sequential sparse adds,
    # skipping zero coefficients after the first term
    T = mats[0] * c[0]
    for cr, D in zip(c[1:], mats[1:]):
        if cr != 0.0:
            T = T + D * cr
    return T, T.conj().transpose()


def test_shift_operator_assembly_exact():
    for qn, qd in ((1, 2), (9, 10)):
        alg = make_algebra(qn, qd)
        gns = GnsContext(alg, UqActions(alg))
        for M in (2, 3, 4):
            basis = _general_basis(gns, M)
            denom = _ShiftDenominator(gns.actions, basis, 40)
            rng = np.random.default_rng([M, qd])
            for k in range(6):
                c = rng.standard_normal(len(basis))
                c[rng.random(len(basis)) < 0.4] = 0.0
                if k % 2 == 0:
                    c[0] = 0.0
                denom.sigma_and_grad(c)
                T, TH = _old_shift_operator(
                    [as_csr(D) for D in denom.mats], c)
                assert np.array_equal(denom.T.toarray(), T.toarray())
                assert np.array_equal(denom.TH.toarray(), TH.toarray())


def _check_against_dense_svd(monkeypatch):
    """Wrap the kernel so that every call checks sigma against LAPACK's
    dense SVD and the gradient against sum_r c_r Re(u^H D_r v) = sigma;
    returns the list of (sigma, dense sigma, c . grad) seen."""
    seen = []
    kernel = _ShiftDenominator.sigma_and_grad

    def checked(self, c):
        sigma, grad, v = kernel(self, c)
        dense = np.linalg.svd(self.T.toarray(), compute_uv=False)[0]
        seen.append((sigma, dense, float(c @ grad)))
        return sigma, grad, v

    monkeypatch.setattr(_ShiftDenominator, "sigma_and_grad", checked)
    return seen


def _assert_exact_sigmas(seen):
    assert seen
    for sigma, dense, cg in seen:
        assert sigma == pytest.approx(dense, rel=1e-12, abs=0)
        assert cg == pytest.approx(sigma, rel=1e-12, abs=0)


def test_shift_sigma_matches_dense_svd(monkeypatch, ber_half, ber_nine):
    # the oracle's ascents.  q = 1/2: leading singular values come in
    # exactly degenerate pairs; q = 9/10 at truncation 40: pairs split by
    # about 2e-10, with the next value 1e-3 below
    seen = _check_against_dense_svd(monkeypatch)
    general_span_ascents(ber_half, 1, 2, **ORACLE_SMALL)
    _assert_exact_sigmas(seen)
    seen.clear()
    general_span_ascents(ber_nine, 1, 3,
                         **dict(ORACLE_SMALL, norm_truncation=40))
    _assert_exact_sigmas(seen)


def test_shift_sigma_bracket_fallback(monkeypatch, gns_half):
    # a three-step budget sends every call to the bracket, with the last
    # Ritz pair: sigma is the bracket's lower end, within 2 delta of the
    # dense SVD, and the gradient is Re(u^H D_r v), u = T v / ||T v||, so
    # c . grad = ||T v|| <= sigma
    monkeypatch.setattr(specnorm, "_LANCZOS_STEPS", 3)
    delta = specnorm._LANCZOS_TOL
    brackets = []
    bracket = specnorm._bracket

    def spied(D, U, lo):
        brackets.append(lo)
        return bracket(D, U, lo)

    monkeypatch.setattr(specnorm, "_bracket", spied)
    basis = _general_basis(gns_half, 3)
    denom = _ShiftDenominator(gns_half.actions, basis, 100)
    rng = np.random.default_rng(11)
    for k in range(4):
        c = rng.standard_normal(len(basis))
        sigma, grad, v = denom.sigma_and_grad(c)
        assert len(brackets) == k + 1
        dense = np.linalg.svd(denom.T.toarray(), compute_uv=False)[0]
        assert dense * (1 - 2 * delta - 1e-14) <= sigma <= dense * (1 + 1e-14)
        assert np.linalg.norm(v) == pytest.approx(1, rel=1e-15)
        Tv = denom.T @ v
        assert brackets[-1] == np.linalg.norm(Tv) <= sigma
        assert float(c @ grad) == pytest.approx(brackets[-1], rel=1e-12)
        u = Tv / np.linalg.norm(Tv)
        want = [np.real(u.conj() @ (D @ v)) for D in denom.mats]
        assert np.allclose(grad, want, rtol=0, atol=1e-12 * sigma)


@pytest.fixture(scope="module")
def oracle_m4(ber_half):
    """The default 8-start general-span search at q = 1/2, N = 1, M = 4."""
    return general_span_ascents(ber_half, 1, 4)


def test_ascent_reports_its_witness(ber_half, oracle_m4):
    # every ascent on the truncated ratio keeps as its best value the
    # ratio its own witness scores
    assert len(oracle_m4) == 8
    for _tag, f, c, basis in oracle_m4:
        w = mkdist._rationalize(c, basis)[0]
        assert objective_value(ber_half, w, 1, "heuristic", 200) == \
            pytest.approx(f, rel=1e-8)


def test_search_runs_one_ascent_per_start(monkeypatch, ber_half, ber_one,
                                          est1, est1_heur):
    # the estimate runs no ascent and no shift-model seminorm, below
    # q = 1 and at q = 1; the oracle runs one ascent per start, on the
    # shift model
    kinds = []
    ascend = mkdist._ascend
    sigma = _ShiftDenominator.sigma_and_grad

    def spied(eta, denom, c0, max_iters):
        kinds.append(type(denom))
        return ascend(eta, denom, c0, max_iters)

    def refuse(self, c):
        kinds.append("sigma")
        return sigma(self, c)

    monkeypatch.setattr(mkdist, "_ascend", spied)
    estimate_distance(ber_half, 1, 4)
    estimate_distance(ber_one, 1, 2, **SMALL)
    monkeypatch.setattr(_ShiftDenominator, "sigma_and_grad", refuse)
    estimate_distance(ber_half, 2, 3)
    assert kinds == []
    monkeypatch.setattr(_ShiftDenominator, "sigma_and_grad", sigma)
    general_span_ascents(ber_half, 1, 2, norm_truncation=60, restarts=3,
                         max_iters=5)
    assert kinds == [_ShiftDenominator] * 3
    # the winners' values are the ones their witnesses score
    for est, mode, want in ((est1, "certified", est1.certified_value),
                            (est1_heur, "heuristic", est1_heur.heuristic_value)):
        assert objective_value(ber_half, est.witness, 1, mode, 100) == \
            pytest.approx(want, rel=1e-12, abs=0)


# -- the charge-0 linear program --------------------------------------------------


@pytest.mark.parametrize("M", [2, 3, 4])
def test_general_span_ascent_never_beats_the_lp_half(ber_half, oracle_m4, M):
    # gauge averaging maps any general-span witness to a charge-0 one
    # with the same numerator and no larger truncated seminorm
    runs = oracle_m4 if M == 4 else general_span_ascents(ber_half, 1, M)
    lp = charge_zero_lp(ber_half, 1, M, 200)
    for _tag, f, _c, _basis in runs:
        assert f <= lp.value * (1 + 1e-9)
    assert max(f for _t, f, _c, _b in runs) > 0.9 * lp.value


def test_general_span_ascent_never_beats_the_lp_nine(ber_nine):
    runs = general_span_ascents(ber_nine, 1, 3, norm_truncation=100)
    lp = charge_zero_lp(ber_nine, 1, 3, 100)
    assert lp.value == pytest.approx(0.783491, abs=1e-6)
    for _tag, f, _c, _basis in runs:
        assert f <= lp.value * (1 + 1e-9)


_LP_CASES = [("half", 1, 1), ("half", 1, 2), ("half", 1, 4), ("half", 2, 4),
             ("nine", 1, 3), ("one", 1, 2), ("one", 1, 4)]


@pytest.fixture(scope="module")
def bers(ber_half, ber_nine, ber_one):
    return {"half": ber_half, "nine": ber_nine, "one": ber_one}


@pytest.mark.parametrize("which,N,M", _LP_CASES)
def test_lp_value_is_its_witness_score(bers, which, N, M):
    # the second route: the rationalized optimum scored by lip_norm on
    # its full derivation matrix (the q = 1 grid at q = 1)
    ber = bers[which]
    lp = charge_zero_lp(ber, N, M, 200)
    w, _c = mkdist._rationalize(lp.coords, lp.basis)
    assert objective_value(ber, w, N, "heuristic", 200) == \
        pytest.approx(lp.value, rel=1e-9)


@pytest.mark.parametrize("which,N,M", _LP_CASES)
def test_lp_dual_certificate(bers, which, N, M):
    lp = charge_zero_lp(bers[which], N, M, 200)
    R, eta, c, y = lp.rows, lp.eta, lp.coords, lp.dual
    assert np.abs(R.T @ y - eta).max() <= 1e-12 * np.abs(eta).max()
    assert np.abs(y).sum() == pytest.approx(eta @ c, rel=1e-12)
    assert np.abs(R @ c).max() <= 1 + 1e-12
    assert lp.value == pytest.approx(eta @ c, rel=1e-12)
    # weak duality: no feasible point beats sum |y|
    rng = np.random.default_rng(M)
    for _ in range(20):
        other = rng.standard_normal(len(c))
        other /= np.abs(R @ other).max()
        assert eta @ other <= np.abs(y).sum() * (1 + 1e-12)


def test_estimate_reports_the_span_optimum(ber_half):
    # q = 1/2, M = 4: N = 1 and 2 reach the optima that the previous
    # ascent missed by about 1% (0.569217 and 0.247085)
    for N, want in ((1, 0.575297), (2, 0.253168)):
        est = estimate_distance(ber_half, N, 4, norm_truncation=200,
                                mode="heuristic")
        assert est.value == pytest.approx(want, abs=1e-6)
        assert est.source == "lp" and not est.degraded
        assert len(charge_zero_lp(ber_half, N, 4, 200).coords) == 4


@pytest.mark.parametrize("M", [4, 9, 12])
def test_heuristic_value_is_the_lp_value(ber_half, M):
    # the witness is scored on the linear program's own rows, which keep
    # their digits beyond spin 9 where the float shift model loses them
    est = estimate_distance(ber_half, 1, M, norm_truncation=200,
                            mode="heuristic")
    assert est.source == "lp" and not est.degraded
    assert est.heuristic_value == pytest.approx(
        charge_zero_lp(ber_half, 1, M, 200).value, rel=1e-12)


def test_lp_values_rise_toward_the_distance(ber_half):
    # the spans are nested, so the optimum rises with M, and it stays
    # below the distance
    vals = [charge_zero_lp(ber_half, 1, M, 100).value for M in range(1, 10)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < DIST_HALF_N1
    assert vals[-1] > 0.63


@pytest.mark.parametrize("M", [10, 11, 12])
def test_lp_values_rise_beyond_spin_nine(ber_half, M):
    assert 0.630556 < charge_zero_lp(ber_half, 1, M, 100).value < \
        DIST_HALF_N1


@pytest.fixture(scope="module")
def lps_twelve(ber_half, ber_nine):
    """The spin-12 linear programs at q = 1/2 and q = 9/10, N = 1."""
    return {0.5: charge_zero_lp(ber_half, 1, 12, 100),
            0.9: charge_zero_lp(ber_nine, 1, 12, 100)}


def test_lp_values_beyond_spin_nine_are_pinned(ber_half, lps_twelve):
    # values of an independent prototype (Lagrange rows at 60 digits,
    # another LP solver); each stays below the distance
    for lp, want, dist in ((lps_twelve[0.5], 0.632118, DIST_HALF_N1),
                           (charge_zero_lp(ber_half, 1, 16, 100), 0.632327,
                            DIST_HALF_N1),
                           (lps_twelve[0.9], 1.000496, DIST_NINE_N1)):
        assert lp.value == pytest.approx(want, abs=1e-6)
        assert lp.value < dist


def _gauge(x, k=1):
    """alpha_(i^k): a -> i^k a, b -> b, so a^m b^l b*^n picks up i^(k m)."""
    alg = x.alg
    ipow = [alg.field.from_parts(*p) for p in ((1, 0), (0, 1), (-1, 0),
                                                (0, -1))]
    return AlgebraElement(alg, {m: c * ipow[(k * m.a_exp) % 4]
                                for m, c in x.terms.items()})


@pytest.mark.parametrize("which", ["half", "nine"])
def test_gauge_invariance_of_the_seminorm(bers, which):
    ber = bers[which]
    alg, actions = ber.alg, ber.gns.actions
    for x in random_elements(alg, 6, 3, 5, sphere=True):
        lx = specnorm.lip_norm(actions, x, 120, ladder=False).value
        ly = specnorm.lip_norm(actions, _gauge(x), 120,
                               ladder=False).value
        assert ly.lower_bound == pytest.approx(lx.lower_bound, rel=1e-12)
        # the four-phase average, x's charge-0 part, does not raise it
        quarter = alg.field.from_rational(1, 4)
        avg = (x + _gauge(x, 1) + _gauge(x, 2) + _gauge(x, 3)).scale(quarter)
        assert all(m.a_exp == 0 for m in avg.terms)
        la = specnorm.lip_norm(actions, avg, 120, ladder=False).value
        assert la.lower_bound <= lx.lower_bound * (1 + 1e-12)


def _shift_rows(actions, basis, trunc):
    """The rows read off the truncated derivation matrices in the float
    shift model, the program's route before the closed form: one row per
    entry of the union sparsity pattern of the basis elements' matrices.
    Each row and column of the pattern must hold one entry: then
    T(c) = sum_r c_r D_r is a phased permutation and ||T(c)|| = max |R c|.
    """
    mats = [delta_block_matrix(actions, u, trunc) for u in basis]
    n = mats[0].shape[0]
    mats = [D.entries() for D in mats]
    keys = np.unique(np.concatenate([i * n + j for i, j, _v in mats]))
    rows, cols = np.divmod(keys, n)
    if len(np.unique(rows)) < len(keys) or len(np.unique(cols)) < len(keys):
        raise ValueError("derivation matrices of the charge-0 basis share "
                         "a row or a column")
    V = np.zeros((len(keys), len(basis)), dtype=complex)
    for r, (i, j, v) in enumerate(mats):
        V[np.searchsorted(keys, i * n + j), r] = v
    return mkdist._real_rows(V)


def _match_counts(R, K):
    """How many rows of R equal each row of K up to sign, to 1e-12 of
    each column's scale; None when some row of R matches none."""
    scale = np.abs(K).max(axis=0)
    gap = np.minimum(
        (np.abs(R[:, None, :] - K[None]) / scale).max(axis=2),
        (np.abs(R[:, None, :] + K[None]) / scale).max(axis=2))
    best = gap.argmin(axis=1)
    if (gap[np.arange(len(R)), best] > 1e-12).any():
        return None
    return np.bincount(best, minlength=len(K))


@pytest.mark.parametrize("which,q,M", [("half", 0.5, 4), ("nine", 0.9, 3)])
def test_lp_rows_are_the_closed_form(monkeypatch, bers, which, q, M):
    # the shift model's d1 and d2 each give every closed-form row once,
    # up to sign, where its float rows still hold their digits
    ber = bers[which]
    lp = charge_zero_lp(ber, 1, M, 100)
    T = len(lp.rows) + 1
    oracle = _shift_rows(ber.gns.actions, lp.basis, RepTruncation(q, T))
    counts = _match_counts(oracle, lp.rows)
    assert counts is not None and (counts == 2).all()
    # planted errors: one dropped row, rho_n without its square root
    assert _match_counts(oracle, np.delete(lp.rows, 7, axis=0)) is None
    monkeypatch.setattr(mkdist, "sqrt", lambda x: 1.0)
    assert _match_counts(oracle, mkdist._spectral_rows(lp.basis, T)) is None


def test_lp_rows_match_the_exact_reference(lps_twelve):
    # through spin 12, against f(lambda_n) in Fractions and rho_n at 40
    # digits: (f(lambda_n) - f(lambda_(n+1))) / rho_n to 5e-15 relative
    ctx = mpmath.mp.clone()
    ctx.dps = 40
    for q, lp in lps_twelve.items():
        Q = Fraction(q).limit_denominator(10)
        qq = ctx.mpf(Q.numerator) / Q.denominator
        lam = [Q ** (2 * n) for n in range(len(lp.rows) + 1)]
        for j, u in enumerate(lp.basis):
            coeffs = {}
            for m, c in u.terms.items():
                assert m.a_exp == 0 and m.b_exp == m.bs_exp
                coeffs[m.b_exp] = c.as_fraction()
            f = [sum(c * x ** l for l, c in coeffs.items()) for x in lam]
            for n, got in enumerate(lp.rows[:, j]):
                rho = qq ** n * (1 - qq ** 2) / ctx.sqrt(1 - qq ** (2 * n + 2))
                diff = f[n] - f[n + 1]
                want = ctx.mpf(diff.numerator) / diff.denominator / rho
                assert abs(got - want) <= 5e-15 * abs(want)


def _lip(ber, x, trunc):
    return specnorm.lip_norm(ber.gns.actions, x, trunc, ladder=False).value


def test_probe_ratios_within_estimate(ber_half, alg_half, est1):
    for p in default_probes(alg_half):
        lip = _lip(ber_half, p, 100)
        rep = approx_inequality_check(ber_half, p, 1, est1, 100, lip)
        assert rep.ratio <= est1.heuristic_value + 0.05
        assert not rep.flagged
        # the defect norm is the approximant report's, not a second one
        assert rep.ratio == rep.approximant.dist_slack / lip.upper_bound


def test_inequality_rejects_scalar(ber_half, alg_half, est1):
    with pytest.raises(ValueError):
        approx_inequality_check(ber_half, alg_half.unit, 1, est1, 100,
                                _lip(ber_half, alg_half.unit, 100))


def test_approximant_slacks(ber_half, alg_half):
    A = alg_half.sphere_A
    rep = theorem_b_approximant(ber_half, A, 1, 100, _lip(ber_half, A, 100))
    assert rep.lip_slack >= -1e-9
    # the approximant is the level-1 transform: dist_slack is its distance
    assert rep.dist_slack == specnorm.operator_norm(
        A - ber_half.via_coproduct(A, 1), 100).lower_bound > 0.0


def test_approximant_of_unit(ber_half, alg_half):
    rep = theorem_b_approximant(ber_half, alg_half.unit, 1, 80,
                                _lip(ber_half, alg_half.unit, 80))
    assert rep.lip_slack == 0.0
    assert rep.dist_slack == 0.0
