"""Distance search invariants at desk scale."""

from fractions import Fraction

import numpy as np
import pytest

from qsphere import GnsContext, UqActions, make_algebra
from qsphere import mkdist, specnorm
from qsphere.berezin import Berezin
from qsphere.exprs import element_to_text
from qsphere.mkdist import (OptimizationProblem, _ShiftDenominator,
                            approx_inequality_check, default_probes,
                            estimate_distance, objective_value,
                            selfadjoint_basis, theorem_b_approximant)


SMALL = dict(norm_truncation=100, restarts=2, max_iters=40, seed=3)


@pytest.fixture(scope="module")
def est1(ber_half):
    prob = OptimizationProblem(N=1, M=2, **SMALL)
    return estimate_distance(ber_half, prob)


@pytest.fixture(scope="module")
def est1_heur(ber_half):
    prob = OptimizationProblem(N=1, M=2, mode="heuristic", **SMALL)
    return estimate_distance(ber_half, prob)


def test_problem_validation():
    with pytest.raises(ValueError):
        OptimizationProblem(N=0, M=2)
    with pytest.raises(ValueError):
        OptimizationProblem(N=1, M=0)
    with pytest.raises(ValueError):
        OptimizationProblem(N=1, M=2, mode="exact")
    with pytest.raises(ValueError):
        OptimizationProblem(N=1, M=2, restarts=-3)
    with pytest.raises(ValueError):
        OptimizationProblem(N=1, M=2, max_iters=-5)


def test_basis_structure(gns_half, alg_half):
    basis = selfadjoint_basis(gns_half, 2)
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
    assert est1.mode == "certified"


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
    prob = OptimizationProblem(N=1, M=2, **SMALL)
    again = estimate_distance(ber_half, prob)
    assert again.value == est1.value
    assert again.witness == est1.witness
    assert again.coords == est1.coords


def test_monotone_in_search_space(ber_half, est1):
    prob = OptimizationProblem(N=1, M=1, **SMALL)
    small = estimate_distance(ber_half, prob)
    assert small.value <= est1.value + 1e-12


def test_heuristic_mode(est1_heur):
    est = est1_heur
    assert est.value == est.heuristic_value
    assert est.certified_value <= est.heuristic_value + 1e-12


def test_frozen_heuristic_search_path(est1_heur):
    # re-recorded when the ascent's singular-value kernel moved from a
    # warm-started power loop to Lanczos with a residual stop: the old
    # path was built on sigma values up to 3.9e-9 off inside a 1e-12
    # stopping rule.  The coordinates and the rationalized witness move
    # with roundoff changes in the ascent, so they pin its floating-point
    # path exactly; they are the same with one and with two BLAS threads.
    # The value is compared to 1e-14: it was recorded when the scoring
    # seminorm came from LAPACK's dense SVD, and the Lanczos kernel that
    # scores it now agrees with that SVD to roundoff, not bit for bit.
    assert est1_heur.source == "eta-heur"
    assert est1_heur.coords == (
        -6.221075432166233e-12, 9.799022153455215e-12, 0.7577025228783502,
        -7.81188671700435e-16, 2.1992031681212965e-17,
        -1.4802869652136395e-12, 2.3559937232206227e-12,
        -0.6526000971680765)
    assert est1_heur.heuristic_value == pytest.approx(0.44375529658809226,
                                                      rel=1e-14)
    assert element_to_text(est1_heur.witness) == (
        "72337223/521492211 + 765238115/173830737*b*bs"
        " - 13362360893/2781291792*b^2*bs^2")


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
            basis = selfadjoint_basis(gns, M)
            denom = _ShiftDenominator(gns.actions, basis, 40)
            rng = np.random.default_rng([M, qd])
            for k in range(6):
                c = rng.standard_normal(len(basis))
                c[rng.random(len(basis)) < 0.4] = 0.0
                if k % 2 == 0:
                    c[0] = 0.0
                denom.sigma_and_grad(c)
                T, TH = _old_shift_operator(denom.mats, c)
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


def test_shift_sigma_matches_dense_svd(monkeypatch, ber_half):
    # q = 1/2: leading singular values come in exactly degenerate pairs;
    # q = 9/10 at truncation 40: pairs split by about 2e-10, with the
    # next value 1e-3 below
    seen = _check_against_dense_svd(monkeypatch)
    estimate_distance(ber_half, OptimizationProblem(
        N=1, M=2, mode="heuristic", **SMALL))
    _assert_exact_sigmas(seen)
    alg = make_algebra(9, 10)
    ber = Berezin(GnsContext(alg, UqActions(alg)))
    seen.clear()
    estimate_distance(ber, OptimizationProblem(
        N=1, M=3, mode="heuristic", **dict(SMALL, norm_truncation=40)))
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
    basis = selfadjoint_basis(gns_half, 3)
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


def test_ascent_reports_its_witness(monkeypatch, ber_half, gns_half):
    # the default q = 1/2 search at N = 1: every ascent on the truncated
    # ratio keeps as its best value the ratio its own witness scores
    ascents = []
    ascend = mkdist._ascend

    def recorded(eta, denom, c0, max_iters):
        f, c, trace = ascend(eta, denom, c0, max_iters)
        if isinstance(denom, _ShiftDenominator):
            ascents.append((f, c))
        return f, c, trace

    monkeypatch.setattr(mkdist, "_ascend", recorded)
    estimate_distance(ber_half, OptimizationProblem(
        N=1, M=4, norm_truncation=200, mode="heuristic", seed=0))
    assert len(ascents) == 8
    basis = [mkdist._canonical_rescale(u)
             for u in selfadjoint_basis(gns_half, 4)]
    for f, c in ascents:
        w = mkdist._rationalize(c, basis)
        assert objective_value(ber_half, w, 1, "heuristic", 200) == \
            pytest.approx(f, rel=1e-8)


def test_search_runs_one_ascent_per_start(monkeypatch, ber_half, alg_one,
                                          est1, est1_heur):
    # each start runs one ascent, on the truncated ratio: the shift model
    # below q = 1 and the classical grid at q = 1
    kinds = []
    ascend = mkdist._ascend

    def spied(eta, denom, c0, max_iters):
        kinds.append(type(denom))
        return ascend(eta, denom, c0, max_iters)

    monkeypatch.setattr(mkdist, "_ascend", spied)
    estimate_distance(ber_half, OptimizationProblem(N=1, M=4))
    assert kinds == [_ShiftDenominator] * 8
    kinds.clear()
    ber_one = Berezin(GnsContext(alg_one, UqActions(alg_one)))
    estimate_distance(ber_one, OptimizationProblem(N=1, M=2, **SMALL))
    assert kinds and set(kinds) == {mkdist._GridDenominator}
    # the winners' values are the ones their witnesses score
    for est, mode, want in ((est1, "certified", est1.certified_value),
                            (est1_heur, "heuristic", est1_heur.heuristic_value)):
        assert objective_value(ber_half, est.witness, 1, mode, 100) == \
            pytest.approx(want, rel=1e-12, abs=0)


def test_probe_ratios_within_estimate(ber_half, alg_half, est1):
    for p in default_probes(alg_half):
        rep = approx_inequality_check(ber_half, p, 1, est1, 100)
        assert rep.ratio <= est1.heuristic_value + 0.05
        assert not rep.flagged
        # the defect norm is the approximant report's, not a second one
        assert rep.norm_lower == rep.approximant.dist_slack
        assert rep.approximant.approximant == ber_half.via_coproduct(p, 1)


def test_inequality_rejects_scalar(ber_half, alg_half, est1):
    with pytest.raises(ValueError):
        approx_inequality_check(ber_half, alg_half.unit, 1, est1, 100)


def test_approximant_slacks(ber_half, alg_half):
    rep = theorem_b_approximant(ber_half, alg_half.sphere_A, 1,
                                truncation=100)
    assert rep.lip_slack >= -1e-9
    assert rep.dist_slack >= 0.0
    assert rep.approximant == ber_half.via_coproduct(alg_half.sphere_A, 1)


def test_approximant_of_unit(ber_half, alg_half):
    rep = theorem_b_approximant(ber_half, alg_half.unit, 1, truncation=80)
    assert rep.lip_slack == 0.0
    assert rep.dist_slack == 0.0
