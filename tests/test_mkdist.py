"""Distance search invariants at desk scale."""

from fractions import Fraction

import numpy as np
import pytest

from qsphere import GnsContext, UqActions, make_algebra
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


def test_warm_start_never_hurts(ber_half, est1):
    prob = OptimizationProblem(N=1, M=2, norm_truncation=100,
                               restarts=0, max_iters=25, seed=9)
    warm = estimate_distance(ber_half, prob, warm=est1)
    assert warm.value >= est1.value - 1e-12


def test_heuristic_mode(est1_heur):
    est = est1_heur
    assert est.value == est.heuristic_value
    assert est.certified_value <= est.heuristic_value + 1e-12


def test_frozen_heuristic_search_path(est1_heur):
    # recorded before the shift operator moved onto a fixed sparsity
    # pattern; the coordinates and the rationalized witness move with
    # roundoff changes in the ascent (a one-ulp change in T(c) or a
    # tighter power-loop tolerance moves them), so they pin its
    # floating-point path exactly.  The value's last bits come from
    # LAPACK's dense SVD and follow the BLAS thread count
    # (0.4436955995099416 on two threads, 0.44369559950994175 on one),
    # so it is compared to 1e-14.
    assert est1_heur.source == "eta-heur"
    assert est1_heur.coords == (
        0.002540686114128821, 0.0, 0.7576970436388342,
        -1.1831993703669672e-08, 0.0, 0.0005760876401008493, 0.0,
        -0.6526012588848347)
    assert est1_heur.heuristic_value == pytest.approx(0.4436955995099416,
                                                      rel=1e-14)
    assert element_to_text(est1_heur.witness) == (
        "-10/640379857*as^2*b^2"
        " + 2910183532675273/707474341428244311*as*b"
        " - 4666755/1444219174*as*b^2*bs + 66266299/477752547"
        " + 2804250425/637003396*b*bs - 360050467/74941576*b^2*bs^2"
        " + 2910183532675273/1414948682856488622*a*bs"
        " - 4666755/11553753392*a*b*bs^2 - 5/5123038856*a^2*bs^2")


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


def test_probe_ratios_within_estimate(ber_half, alg_half, est1):
    for p in default_probes(alg_half):
        rep = approx_inequality_check(ber_half, p, 1, est1, 100)
        assert rep.ratio <= est1.heuristic_value + 0.05
        assert not rep.flagged


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
