"""Algebra relations, Hopf maps, and the invariant state at exact q."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsphere import make_algebra


def test_defining_relations(alg_half):
    alg = alg_half
    a, b, bs, ast = alg.a, alg.b, alg.b_star, alg.a_star
    q = alg.scalar_element(alg.field.q)
    assert b * a == q * (a * b)
    assert bs * a == q * (a * bs)
    assert b * bs == bs * b
    assert ast * a + q * q * (bs * b) == alg.unit
    assert a * ast + b * bs == alg.unit


def test_star_is_antimultiplicative(alg_half):
    alg = alg_half
    x = alg.a * alg.b
    assert x.star() == alg.b_star * alg.a_star
    assert x.star().star() == x


def test_normal_form_b_times_a(alg_half):
    # the product picks up one power of q when reordered
    alg = alg_half
    got = alg.b * alg.a
    want = (alg.a * alg.b).scale(alg.field.from_rational(1, 2))
    assert got == want


def test_degrees(alg_half):
    alg = alg_half
    A = alg.sphere_A
    assert A.total_degree() == 2
    assert A.sphere_degree() == 1
    x = alg.monomial(2, 1, 1)
    mono = next(iter(x.terms))
    assert mono.left_degree() == 2
    assert mono.right_degree() == 2


def test_counit_is_character(alg_half):
    alg = alg_half
    assert alg.counit(alg.a).as_fraction() == 1
    assert alg.counit(alg.b).is_zero()
    x = alg.a * alg.a + alg.monomial(0, 1, 1, 3)
    y = alg.a_star * alg.b_star
    ex = alg.counit(x)
    ey = alg.counit(y)
    assert alg.counit(x * y) == ex * ey


def test_antipode_values(alg_half):
    alg = alg_half
    two = alg.field.from_rational(2)
    assert alg.antipode(alg.a) == alg.a_star
    assert alg.antipode(alg.a_star) == alg.a
    assert alg.antipode(alg.b) == alg.b.scale(-two)
    assert alg.antipode(alg.b_star) == alg.b_star.scale(
        alg.field.from_rational(-1, 2))


def test_antipode_axiom(alg_half):
    # m(S x id)Delta = unit * counit on a few words
    alg = alg_half
    for x in (alg.a, alg.b, alg.a * alg.b_star, alg.sphere_A * alg.sphere_B):
        t = alg.coproduct(x)
        lhs = t.map_left(alg.antipode).multiply_legs()
        rhs = alg.scalar_element(alg.counit(x))
        assert lhs == rhs


def test_coproduct_is_homomorphism(alg_half):
    alg = alg_half
    x = alg.a * alg.b + alg.monomial(0, 0, 2, Fraction(1, 3))
    y = alg.b_star * alg.a_star
    assert alg.coproduct(x * y) == alg.coproduct(x) * alg.coproduct(y)


def test_haar_weights(alg_half):
    # independent closed form: h((b b*)^l) = (1-q^2)/(1-q^(2l+2))
    alg = alg_half
    q2 = Fraction(1, 4)
    for l in range(9):
        want = (1 - q2) / (1 - q2 ** (l + 1))
        assert alg.haar_weight(l).as_fraction() == want


def test_haar_weights_float_match_exact():
    # float mode stores q = 9/10 as the nearest double, so the exact
    # reference runs at that double's rational value
    flt = make_algebra(9, 10, mode="float", precision=60)
    q = Fraction(flt.field.float_q())
    exact = make_algebra(q.numerator, q.denominator)
    ctx = flt.field.ctx
    for l in range(9):
        want = exact.haar_weight(l).as_fraction()
        got = flt.haar_weight(l).val
        assert abs(got - ctx.mpf(want.numerator) / want.denominator) < 1e-45


def test_haar_frozen_values(alg_half):
    alg = alg_half
    A = alg.sphere_A
    assert alg.haar(A).as_fraction() == Fraction(4, 5)
    assert alg.haar(A * A).as_fraction() == Fraction(16, 21)
    assert alg.haar(alg.sphere_B).is_zero()
    assert alg.haar(alg.a).is_zero()


def test_haar_invariance(alg_half):
    # both one-sided invariance identities on a mixed element
    alg = alg_half
    x = alg.a * alg.b + alg.sphere_A
    t = alg.coproduct(x)
    hx = alg.haar(x)
    left = t.pair_left(lambda m: alg.haar(alg.monomial(*m)))
    right = t.pair_right(lambda m: alg.haar(alg.monomial(*m)))
    assert left == alg.scalar_element(hx)
    assert right == alg.scalar_element(hx)


def test_twisted_trace(alg_half):
    alg = alg_half
    x = alg.a * alg.b
    y = alg.b_star * alg.sphere_A
    lhs = alg.haar(x * y)
    rhs = alg.haar(alg.modular_twist(y) * x)
    assert lhs == rhs


def test_haar_positive_on_squares(alg_half):
    alg = alg_half
    for x in (alg.a + alg.b, alg.sphere_B + alg.unit):
        v = alg.haar(x.star() * x)
        assert v.is_real()
        assert v.as_fraction() > 0


@settings(max_examples=25, deadline=None)
@given(k=st.integers(-2, 2), l=st.integers(0, 2), m=st.integers(0, 2))
def test_counit_on_monomials(k, l, m):
    alg = make_algebra(1, 2)
    x = alg.monomial(k, l, m)
    e = alg.counit(x)
    if l == 0 and m == 0:
        assert e.as_fraction() == 1
    else:
        assert e.is_zero()


def test_fundamental_corep(alg_half):
    # corepresentation matrix rows satisfy the coproduct identity
    alg = alg_half
    u = alg.fundamental_corep()
    n = len(u)
    for i in range(n):
        for j in range(n):
            t = alg.coproduct(u[i][j])
            want_terms = {}
            for r in range(n):
                prod = alg.tensor(u[i][r], u[r][j])
                for key, c in prod.terms.items():
                    acc = want_terms.get(key)
                    want_terms[key] = c if acc is None else acc + c
            got = {k: v for k, v in t.terms.items() if not v.is_zero()}
            want = {k: v for k, v in want_terms.items() if not v.is_zero()}
            assert got == want


def test_rejects_bad_q():
    with pytest.raises(ValueError):
        make_algebra(3, 2)
    with pytest.raises(ValueError):
        make_algebra(0, 1)
