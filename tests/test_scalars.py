"""Scalar field arithmetic, exact and floating."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsphere.scalars import ExactField, FloatField, squarefree_split


@pytest.fixture(scope="module")
def fld():
    return ExactField(1, 2)


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(8) == (2, 2)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(49) == (7, 1)


def test_surd_closure(fld):
    # sqrt(2) * sqrt(2) = 2 stays rational
    s = fld.from_parts(sre=1)
    two = s * s
    assert two.is_rational()
    assert two.as_fraction() == 2


def test_q_half_power(fld):
    # q = 1/2 so q^(1/2) = sqrt(2)/2
    r = fld.q_half_power(1)
    assert r.re == 0 and r.sre == Fraction(1, 2)
    assert (r * r).as_fraction() == Fraction(1, 2)
    assert fld.q_half_power(-2).as_fraction() == 2


def test_division_with_surd(fld):
    x = fld.from_parts(re=1, sre=1)  # 1 + sqrt(2)
    y = x / x
    assert y == fld.one
    inv = fld.one / x
    assert (inv * x) == fld.one


def test_conjugate(fld):
    z = fld.from_parts(re=1, im=2, sre=3, sim=4)
    w = z.conjugate()
    assert w.re == 1 and w.im == -2 and w.sre == 3 and w.sim == -4
    assert (z * z.conjugate()).is_real()


def test_from_float(fld):
    assert fld.from_float(0.25).as_fraction() == Fraction(1, 4)


@settings(max_examples=30, deadline=None)
@given(a=st.fractions(max_denominator=40), b=st.fractions(max_denominator=40),
       c=st.fractions(max_denominator=40), d=st.fractions(max_denominator=40))
def test_mul_commutes(a, b, c, d):
    fld = ExactField(1, 2)
    x = fld.from_parts(re=a, sre=b)
    y = fld.from_parts(re=c, im=d)
    assert x * y == y * x
    assert x + y == y + x


def test_float_field_roundtrip():
    fld = FloatField(0.5, precision=50)
    z = fld.from_parts(re=Fraction(1, 3), im=Fraction(1, 7))
    w = z * z.conjugate()
    assert w.is_real()
    got = complex(w.to_complex()).real
    want = Fraction(1, 9) + Fraction(1, 49)
    assert abs(got - float(want)) / float(want) < 1e-14
    with pytest.raises(ValueError):
        fld.from_parts(sre=1)


def test_float_negligible():
    fld = FloatField(0.5, precision=50)
    assert float(fld.negligible) < 1e-39
