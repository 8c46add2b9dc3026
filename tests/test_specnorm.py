"""Norm and seminorm estimators against independent routes."""

import math

import numpy as np
import pytest

from qsphere import Berezin, GnsContext, UqActions, make_algebra
from qsphere.exprs import parse_expression
from qsphere.specnorm import (RepTruncation, coefficient_sum_bound,
                              delta_block_grid, delta_block_matrix, lip_norm,
                              lip_norm_gram_oracle, lip_upper_bound,
                              operator_norm, relation_residuals,
                              represent_element)


@pytest.fixture(scope="module")
def half():
    alg = make_algebra(1, 2)
    return alg, UqActions(alg)


def test_relation_residuals():
    res = relation_residuals(RepTruncation(0.5, 120, 0.3))
    assert max(res.values()) < 1e-12


def test_representation_multiplicative(half):
    alg, _ = half
    trunc = RepTruncation(0.5, 60, 0.7)
    x = alg.a * alg.b_star + alg.sphere_A
    y = alg.b + alg.a_star
    lhs = represent_element(x * y, trunc)
    rhs = represent_element(x, trunc) @ represent_element(y, trunc)
    # interior agreement; the last rows feel the cut
    k = 40
    assert abs(lhs[:k, :k] - rhs[:k, :k]).max() < 1e-12


def test_operator_norm_unit(half):
    alg, _ = half
    est = operator_norm(alg.unit, 80)
    assert est.lower_bound == pytest.approx(1.0, abs=1e-12)
    assert est.upper_bound >= est.lower_bound


def test_operator_norm_frozen(half):
    alg, _ = half
    est = operator_norm(alg.sphere_A, 150)
    assert est.lower_bound == pytest.approx(1.0, rel=1e-10)
    assert est.converged


def test_cstar_identity(half):
    alg, _ = half
    x = alg.sphere_B + alg.sphere_A.scale(alg.field.from_rational(1, 3))
    nx = operator_norm(x, 150).lower_bound
    nxx = operator_norm(x.star() * x, 150).lower_bound
    assert nxx == pytest.approx(nx * nx, rel=1e-6)


def test_norm_upper_dominates(half):
    alg, _ = half
    x = alg.sphere_B * alg.sphere_A - alg.unit
    est = operator_norm(x, 150)
    assert est.lower_bound <= est.upper_bound + 1e-12
    assert est.upper_bound <= coefficient_sum_bound(x) + 1e-12


def test_ladder_monotone(half):
    alg, _ = half
    x = alg.sphere_B + alg.sphere_B_star
    vals = [operator_norm(x, M, ladder=False).lower_bound
            for M in (40, 80, 160)]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12


def test_lip_frozen_value(half):
    alg, act = half
    r = lip_norm(act, alg.sphere_A, 200)
    assert r.value.lower_bound == pytest.approx(math.sqrt(3) / 2, rel=1e-9)
    assert r.value.converged
    assert set(r.components) == {"delta1", "delta2", "delta3"}


def test_lip_scaling_and_unit(half):
    alg, act = half
    assert lip_norm(act, alg.unit, 60).value.lower_bound == 0.0
    x = alg.sphere_B + alg.sphere_A
    one = lip_norm(act, x, 120).value.lower_bound
    three = lip_norm(act, x.scale(alg.field.from_rational(3)),
                     120).value.lower_bound
    assert three == pytest.approx(3 * one, rel=1e-9)


def test_lip_upper_bound_dominates(half):
    alg, act = half
    for x in (alg.sphere_A, alg.sphere_B * alg.sphere_A):
        lo = lip_norm(act, x, 120).value.lower_bound
        assert lo <= lip_upper_bound(act, x) + 1e-12


def test_gram_oracle_agrees(half):
    alg, act = half
    x = alg.sphere_A
    lo = lip_norm(act, x, 200, ladder=False).value.lower_bound
    g = lip_norm_gram_oracle(act, x, basis_size=200)
    assert abs(lo - g.lower_bound) / lo < 1e-4


def test_classical_lip():
    # at q=1 the seminorm of the height function is 1/2
    alg = make_algebra(1, 1)
    act = UqActions(alg)
    r = lip_norm(act, alg.sphere_A, 200)
    assert r.value.lower_bound == pytest.approx(0.5, rel=1e-9)


def test_block_helpers(half):
    alg, act = half
    m = delta_block_matrix(act, alg.sphere_A, RepTruncation(0.5, 40, 0.0))
    assert m.shape == (80, 80)
    alg1 = make_algebra(1, 1)
    act1 = UqActions(alg1)
    g = delta_block_grid(act1, alg1.sphere_A)
    assert g.ndim == 3 and g.shape[1:] == (2, 2)
    s = np.linalg.svd(g, compute_uv=False).max()
    assert s == pytest.approx(0.5, rel=1e-6)


@pytest.fixture(scope="module")
def nine_tenths():
    alg = make_algebra(9, 10)
    return alg, UqActions(alg)


@pytest.mark.parametrize("text, level", [("A*B + Bs*A", 1), ("B + 2*Bs", 0)])
def test_lip_matches_dense_svd(nine_tenths, text, level):
    # both derivation matrices have a many-fold degenerate top singular
    # value; the estimate must still be the dense SVD value
    alg, act = nine_tenths
    y = parse_expression(alg, text)
    if level:
        y = Berezin(GnsContext(alg, act)).via_coproduct(y, level)
    est = lip_norm(act, y, 200, ladder=False).value
    mat = delta_block_matrix(act, y, RepTruncation(0.9, 200, 0.0))
    dense = np.linalg.svd(mat.toarray(), compute_uv=False)[0]
    assert est.lower_bound == pytest.approx(dense, rel=1e-10)
    assert est.converged and est.iteration_converged
