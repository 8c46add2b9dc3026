"""The benchmark's references against known values, and its checkers
against perturbed results.

    python3 -m pytest bench/tests -q
"""

from fractions import Fraction
from math import factorial

import refs
import workloads


def test_spectrum_at_q1_is_the_classical_berezin_spectrum():
    one = Fraction(1)
    for N in range(7):
        for n in range(N + 1):
            want = Fraction(factorial(N) * factorial(N + 1),
                            factorial(N - n) * factorial(N + n + 1))
            assert refs.spectrum_value(one, N, n) == want
        assert refs.spectrum_value(one, N, N + 1) == 0


def test_spectrum_endpoints_and_a_known_value():
    half = Fraction(1, 2)
    for N in range(1, 7):
        assert refs.spectrum_value(half, N, 0) == 1
    # c_{1,1} = [2] / ([2][3]) = 1 / (1 + 1/4 + 1/16) at q = 1/2
    assert refs.spectrum_value(half, 1, 1) == Fraction(16, 21)


def test_haar_moments():
    half = Fraction(1, 2)
    assert refs.haar_moment(half, 0) == 1
    assert refs.haar_moment(half, 1) == Fraction(4, 5)
    assert refs.haar_moment(Fraction(1), 4) == Fraction(1, 5)


def test_flag_mismatch_counts_a_converged_estimate_1e9_low():
    sigma = 1.7
    assert refs.flag_mismatch(sigma * (1 - 1e-9), True, sigma)
    assert not refs.flag_mismatch(sigma * (1 - 1e-9), False, sigma)
    assert not refs.flag_mismatch(sigma * (1 - 1e-12), True, sigma)
    assert refs.lower_bound_ok(sigma, sigma)
    assert not refs.lower_bound_ok(sigma * (1 + 1e-9), sigma)


def _contraction_with(refs_by_key, inputs):
    wl = workloads.Contraction.__new__(workloads.Contraction)
    wl.inputs = inputs
    wl._refs = dict(refs_by_key)
    return wl


def test_contraction_check_counts_fixed_flag_faults_only():
    wl = _contraction_with(
        {(0, 0): ("x", 2.0), (0, 1): ("y", 1.5), (1, 0): ("z", 1.0)},
        [("fixed", None, (0, 1), True), ("seeded0", None, (0,), False)])
    res = wl.check([(0, 0, "x", 2.0, True),
                    (0, 1, "y", 1.5 * (1 - 1e-9), True),
                    (1, 0, "z", 1.0 * (1 - 1e-9), True)])
    assert (res.attempted, res.failed, res.problems) == (3, 1, [])
    assert res.notes and res.notes[0].startswith("1 seeded")


def test_contraction_check_rejects_bounds_above_sigma_and_growth():
    wl = _contraction_with(
        {(0, 0): ("x", 1.0), (0, 1): ("y", 1.1)},
        [("fixed", None, (0, 1), True)])
    res = wl.check([(0, 0, "x", 1.0 + 1e-6, False),
                    (0, 1, "y", 1.1, True)])
    assert res.failed == 2
    assert "above dense" in res.problems[0]
    assert "raised the seminorm" in res.problems[1]


def test_distance_check_rejects_a_rising_bound():
    wl = workloads.Distance.__new__(workloads.Distance)
    wl.cfg = type("Cfg", (), {"trend_tol": 1e-3})()
    row = {"N": 1, "dist_lb": 0.05, "dist_heuristic": 0.5,
           "probe_flagged": False, "min_lipSlack": 0.1, "degraded": True}
    good = wl.check([row, dict(row, N=2, dist_lb=0.01)])
    assert (good.attempted, good.failed, good.problems) == (2, 0, [])
    bad = wl.check([row, dict(row, N=2, dist_lb=0.06)])
    assert bad.failed == 1 and "rose" in bad.problems[0]


def test_normal_form_residual_in_the_shift_model():
    # b a = q a b at q = 1/2
    good = [{"aExp": 1, "bExp": 1, "bStarExp": 0, "coeffNum": 1,
             "coeffDen": 2}]
    assert refs.normal_form_residual(0.5, ["b", "a"], good) < 1e-12
    bad = [dict(good[0], coeffDen=3)]
    assert refs.normal_form_residual(0.5, ["b", "a"], bad) > 1e-3
    # a* a = 1 - q^2 b b*
    terms = [{"aExp": 0, "bExp": 0, "bStarExp": 0, "coeffNum": 1,
              "coeffDen": 1},
             {"aExp": 0, "bExp": 1, "bStarExp": 1, "coeffNum": -1,
              "coeffDen": 4}]
    assert refs.normal_form_residual(0.5, ["as", "a"], terms) < 1e-12
