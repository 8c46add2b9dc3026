"""Algebra relations, Hopf maps, and the invariant state at exact q."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsphere import make_algebra
from qsphere.qhopf import (GEN_A, GEN_AS, GEN_B, GEN_BS, UNIT, Monomial,
                          TensorElement, _accumulate, generator_word,
                          make_algebra_float, monomials)
from qsphere.session import SessionConfig


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


def test_antipode_axiom(antipode_verdicts):
    # m(S x id)Delta = m(id x S)Delta = unit * counit on every word of
    # degree <= 5, and the check fails once S(b) is off by q^2
    assert antipode_verdicts(SessionConfig(q_text="1/2")) == (True, False)


def test_coproduct_is_homomorphism(alg_half):
    alg = alg_half
    x = alg.a * alg.b + alg.monomial(0, 0, 2, Fraction(1, 3))
    y = alg.b_star * alg.a_star
    assert alg.coproduct(x * y).terms == \
        (alg.coproduct(x) * alg.coproduct(y)).terms


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
    flt = make_algebra_float(9 / 10, precision=60)
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
        assert v.im == 0 and v.sim == 0
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
    # Delta u_ij = sum_r u_ir (x) u_rj for the corepresentation matrix
    alg = alg_half
    u = alg.fundamental_corep()
    n = len(u)
    for i in range(n):
        for j in range(n):
            want: dict = {}
            for r in range(n):
                for m1, c1 in u[i][r].terms.items():
                    for m2, c2 in u[r][j].terms.items():
                        _accumulate(want, (m1, m2), c1 * c2)
            assert alg.coproduct(u[i][j]).terms == want


def test_rejects_bad_q():
    with pytest.raises(ValueError):
        make_algebra(3, 2)
    with pytest.raises(ValueError):
        make_algebra(0, 1)


# -- closed-form products against the letter walk ---------------------------


def _times_generator(alg, mono, gen):
    """mono * gen by the rewrite rules alone: b and b* append, a and a*
    commute past the b-block and contract against the a-power."""
    k, l, m = mono
    F = alg.field
    if gen == GEN_B:
        return {Monomial(k, l + 1, m): F.one}
    if gen == GEN_BS:
        return {Monomial(k, l, m + 1): F.one}
    if gen == GEN_A:
        c = F.q_power(l + m)
        if k >= 0:
            return {Monomial(k + 1, l, m): c}
        # (a*)^|k| a = (a*)^{|k|-1} (1 - q^2 b b*)
        return {Monomial(k + 1, l, m): c,
                Monomial(k + 1, l + 1, m + 1): -(c * F.q_power(2))}
    c = F.q_power(-(l + m))
    if k <= 0:
        return {Monomial(k - 1, l, m): c}
    # a^k a* = a^{k-1} (1 - b b*)
    return {Monomial(k - 1, l, m): c, Monomial(k - 1, l + 1, m + 1): -c}


def _letter_walk(alg, m1, m2):
    """m1 * m2 by pushing m2's letters through m1 one at a time."""
    acc = {m1: alg.field.one}
    for gen in generator_word(m2):
        nxt: dict = {}
        for mono, c in acc.items():
            for n, s in _times_generator(alg, mono, gen).items():
                _accumulate(nxt, n, c * s)
        acc = nxt
    return acc


@pytest.mark.parametrize("alg", [
    make_algebra(1, 2), make_algebra(9, 10), make_algebra(2, 3),
    make_algebra(1, 1), make_algebra_float(0.6180339887498949)],
    ids=["1/2", "9/10", "2/3", "1", "float-0.618"])
def test_mono_mul_closed_form_matches_letter_walk(alg):
    # values and term order: the float shift model sums in dict order
    monos = monomials(6)
    assert len(monos) ** 2 == 19600
    for m1 in monos:
        for m2 in monos:
            got = alg.mono_mul(m1, m2)
            want = _letter_walk(alg, m1, m2)
            assert list(got) == list(want), (m1, m2)
            assert all(got[n] == c for n, c in want.items()), (m1, m2)


def test_contraction_poly_is_the_contracted_pair(alg_half):
    # a^(-k) a^k by the rewrite rules, as a polynomial in A = b b*
    for k in range(-5, 6):
        want = _letter_walk(alg_half, Monomial(-k, 0, 0), Monomial(k, 0, 0))
        got = {Monomial(0, s, s): c
               for s, c in enumerate(alg_half.contraction_poly(k))}
        assert got == want, k


def _moment_products(alg):
    """(k, s, h(P_k(A) A^s)) for k = -3..3 and s <= 4, with P_k(A) =
    a^(-k) a^k and A^s formed by algebra products."""
    for k in range(-3, 4):
        left, right = (alg.a_star, alg.a) if k >= 0 else (alg.a, alg.a_star)
        pk = left ** abs(k) * right ** abs(k)
        for s in range(5):
            yield k, s, alg.haar(pk * alg.sphere_A ** s)


@pytest.mark.parametrize("q", [(1, 2), (2, 3), (1, 1)],
                         ids=["1/2", "2/3", "1"])
def test_poly_moment_is_the_haar_product(q):
    alg = make_algebra(*q)
    for k, s, want in _moment_products(alg):
        assert alg.poly_moment(k, s) == want, (k, s)


def test_poly_moment_is_the_haar_product_float():
    alg = make_algebra_float(0.37)
    for k, s, want in _moment_products(alg):
        assert abs((alg.poly_moment(k, s) - want).val) < 1e-40, (k, s)


# -- the closed-form coproduct against the letter walk ---------------------


def coproduct_walk(alg, mono):
    """Delta(mono) as the product of the generator coproducts, one
    letter at a time; each product goes through TensorElement.__mul__."""
    one, q = alg.field.one, alg.field.q
    gens = {GEN_A: {(GEN_A, GEN_A): one, (GEN_BS, GEN_B): -q},
            GEN_AS: {(GEN_AS, GEN_AS): one, (GEN_B, GEN_BS): -q},
            GEN_B: {(GEN_B, GEN_A): one, (GEN_AS, GEN_B): one},
            GEN_BS: {(GEN_BS, GEN_AS): one, (GEN_A, GEN_BS): one}}
    acc = TensorElement(alg, {(UNIT, UNIT): one})
    for gen in generator_word(mono):
        acc = acc * TensorElement(alg, gens[gen])
    return acc.terms


@pytest.mark.parametrize("q", [(1, 2), (9, 10), (2, 3), (1, 1)],
                         ids=["1/2", "9/10", "2/3", "1"])
def test_coproduct_closed_form_matches_letter_walk(q):
    alg = make_algebra(*q)
    monos = monomials(8)
    assert len(monos) == 285
    for m in monos:
        got, want = alg.coproduct_mono(m), coproduct_walk(alg, m)
        assert got.keys() == want.keys(), m
        assert all(got[key] == c for key, c in want.items()), m


def test_coproduct_closed_form_matches_letter_walk_float():
    # the two routes round differently; both carry 50 digits
    alg = make_algebra_float(0.6180339887498949)
    tol = 10.0 ** (5 - alg.field.precision)
    for m in monomials(8):
        got, want = alg.coproduct_mono(m), coproduct_walk(alg, m)
        assert got.keys() == want.keys(), m
        for key, c in want.items():
            err = abs((got[key] - c).to_complex())
            assert err <= tol * abs(c.to_complex()), (m, key)
