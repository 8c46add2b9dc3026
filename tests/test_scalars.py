"""Scalar field arithmetic, exact and floating."""

import cmath
from fractions import Fraction
from math import gcd

import mpmath
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
    zz = z * z.conjugate()
    assert zz.im == 0 and zz.sim == 0


def test_from_float():
    # mkdist's rescaling of float-mode elements scales by from_float
    flt = FloatField(0.5, precision=50)
    assert flt.from_float(0.25).to_complex() == 0.25
    # the double itself, not the nearby rational
    assert flt.from_float(0.1).to_complex() == 0.1
    assert flt.from_float(0.1) != flt.from_rational(1, 10)


@settings(max_examples=30, deadline=None)
@given(a=st.fractions(max_denominator=40), b=st.fractions(max_denominator=40),
       c=st.fractions(max_denominator=40), d=st.fractions(max_denominator=40))
def test_mul_commutes(a, b, c, d):
    fld = ExactField(1, 2)
    x = fld.from_parts(re=a, sre=b)
    y = fld.from_parts(re=c, im=d)
    assert x * y == y * x
    assert x + y == y + x


_parts = st.tuples(*[st.fractions(max_denominator=40)] * 4)


@settings(max_examples=60, deadline=None)
@given(x=_parts, y=_parts,
       rational=st.sampled_from(["x", "y", "both", "none"]))
def test_mul_matches_the_general_formula(x, y, rational):
    # rational factors take a componentwise shortcut, two rationals a
    # two-component one; each must give the product of the full
    # Q(i, sqrt(m)) formula, in canonical form
    if rational in ("x", "both"):
        x = (x[0], 0, 0, 0)
    if rational in ("y", "both"):
        y = (y[0], 0, 0, 0)
    fld = ExactField(1, 2)
    m = fld.m
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    got = fld.from_parts(*x) * fld.from_parts(*y)
    assert (got.re, got.im, got.sre, got.sim) == (
        a1 * a2 - b1 * b2 + m * (c1 * c2 - d1 * d2),
        a1 * b2 + b1 * a2 + m * (c1 * d2 + d1 * c2),
        a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
        a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)
    _assert_canonical(got)


def test_float_field_roundtrip():
    fld = FloatField(0.5, precision=50)
    z = fld.from_parts(re=Fraction(1, 3), im=Fraction(1, 7))
    got = complex((z * z.conjugate()).to_complex())
    assert got.imag == 0
    got = got.real
    want = Fraction(1, 9) + Fraction(1, 49)
    assert abs(got - float(want)) / float(want) < 1e-14
    with pytest.raises(ValueError):
        fld.from_parts(sre=1)
    # whitening: 3 / sqrt(4 * 1), and a value beyond the double range
    assert fld.whiten(fld.from_rational(3), fld.inv_sqrt(
        fld.from_rational(4)), fld.inv_sqrt(fld.one)) == 1.5
    with pytest.raises(OverflowError):
        fld.whiten(fld.from_rational(10 ** 400), 1, 1)


def test_float_negligible():
    fld = FloatField(0.5, precision=50)
    assert float(fld.negligible) < 1e-39


# -- differential tests against the four-Fraction formulas --------------------
#
# An exact scalar used to be four Fractions (re, im, sre, sim) meaning
# re + im*i + (sre + sim*i)*sqrt(m), with the surd parts folded into the
# rational ones when m == 1.  The functions below are those formulas; the
# integer representation must agree with them component for component.

_FIELDS = {"1/4": ExactField(1, 4), "1": ExactField(1, 1),
           "1/2": ExactField(1, 2), "9/10": ExactField(9, 10)}
_WIDE = 1 << 260

_component = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=40),
    st.builds(Fraction, st.integers(-_WIDE, _WIDE), st.integers(1, _WIDE)))
_components = st.tuples(_component, _component, _component, _component)


def _ref_fold(m, x):
    re, im, sre, sim = x
    return (re + sre, im + sim, Fraction(0), Fraction(0)) if m == 1 else x


def _ref_mul(m, x, y):
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return _ref_fold(m, (a1 * a2 - b1 * b2 + m * (c1 * c2 - d1 * d2),
                         a1 * b2 + b1 * a2 + m * (c1 * d2 + d1 * c2),
                         a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
                         a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2))


def _ref_div(m, x, y):
    a, b, c, d = y
    g = a * a - b * b - m * (c * c - d * d)
    h = 2 * a * b - m * 2 * c * d
    n0, n1, n2, n3 = _ref_mul(m, x, (a, b, -c, -d))
    denom = g * g + h * h
    return _ref_fold(m, ((n0 * g + n1 * h) / denom, (n1 * g - n0 * h) / denom,
                         (n2 * g + n3 * h) / denom, (n3 * g - n2 * h) / denom))


def _ref_to_complex(m, x):
    re, im, sre, sim = x
    root = m ** 0.5
    return complex(float(re) + float(sre) * root,
                   float(im) + float(sim) * root)


def _ref_whitened(m, x, s1, s2):
    """x / sqrt(s1 s2) at 120 digits, rounded to a complex."""
    ctx = mpmath.mp.clone()
    ctx.dps = 120

    def cvt(f):
        return ctx.mpf(f.numerator) / ctx.mpf(f.denominator)

    re, im, sre, sim = x
    root = ctx.sqrt(ctx.mpf(m))
    z = complex(ctx.mpc(cvt(re) + cvt(sre) * root, cvt(im) + cvt(sim) * root)
                / ctx.sqrt(cvt(s1 * s2)))
    if not cmath.isfinite(z):
        raise OverflowError
    return z


def _parts(z):
    return (z.re, z.im, z.sre, z.sim)


def _assert_canonical(z):
    assert z.den > 0
    assert gcd(z.a, z.b, z.c, z.d, z.den) == 1
    if z.field.m == 1:
        assert z.c == 0 and z.d == 0


def _outcome(fn):
    try:
        return fn()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from(sorted(_FIELDS)), x=_components, y=_components,
       rational=st.booleans())
def test_ring_ops_match_the_fraction_formulas(q, x, y, rational):
    if rational:     # both operands rational: the two-component path
        x, y = (x[0], 0, 0, 0), (y[0], 0, 0, 0)
    fld = _FIELDS[q]
    m = fld.m
    rx, ry = _ref_fold(m, x), _ref_fold(m, y)
    sx, sy = fld.from_parts(*x), fld.from_parts(*y)
    assert _parts(sx) == rx and _parts(sy) == ry
    got = {"add": sx + sy, "sub": sx - sy, "neg": -sx, "mul": sx * sy,
           "conj": sx.conjugate()}
    want = {"add": tuple(u + v for u, v in zip(rx, ry)),
            "sub": tuple(u - v for u, v in zip(rx, ry)),
            "neg": tuple(-u for u in rx), "mul": _ref_mul(m, rx, ry),
            "conj": (rx[0], -rx[1], rx[2], -rx[3])}
    if not sy.is_zero():
        got["div"], want["div"] = sx / sy, _ref_div(m, rx, ry)
    else:
        with pytest.raises(ZeroDivisionError):
            sx / sy
    for op, z in got.items():
        assert _parts(z) == want[op], op
        _assert_canonical(z)
        assert z.is_zero() == (want[op] == (0, 0, 0, 0))


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from(sorted(_FIELDS)), x=_components, y=_components)
def test_equal_scalars_hash_equal(q, x, y):
    fld = _FIELDS[q]
    sx, sy = fld.from_parts(*x), fld.from_parts(*y)
    # the same value reached along different routes
    routes = [sx, (sx + sy) - sy, -(-sx), sx.conjugate().conjugate()]
    if not sy.is_zero():
        routes.append((sx * sy) / sy)
    for z in routes:
        assert z == sx
        assert hash(z) == hash(sx)
        _assert_canonical(z)


_norms = st.fractions(min_value=Fraction(1, _WIDE), max_value=1).filter(bool)


@settings(max_examples=100, deadline=None)
@given(q=st.sampled_from(sorted(_FIELDS)), x=_components, y=_components,
       s1=_norms, s2=_norms)
def test_float_lifts_match_the_fraction_route(q, x, y, s1, s2):
    fld = _FIELDS[q]
    m = fld.m
    rx, ry = _ref_fold(m, x), _ref_fold(m, y)
    pairs = [(fld.from_parts(*x), rx),
             (fld.from_parts(*x) * fld.from_parts(*y), _ref_mul(m, rx, ry))]
    r1, r2 = (fld.inv_sqrt(fld.from_rational(s)) for s in (s1, s2))
    for z, ref in pairs:
        assert (_outcome(z.to_complex) == _outcome(
            lambda: _ref_to_complex(m, ref)))
        # the fixed-point whitening rounds once, as 120 digits do, and
        # reads only the value of its parts: a common factor changes nothing
        parts = (z.a, z.b, z.c, z.d, z.den)
        want = _outcome(lambda: _ref_whitened(m, ref, s1, s2))
        assert _outcome(lambda: fld.whiten(parts, r1, r2)) == want
        assert _outcome(lambda: fld.whiten(
            tuple(-7 * x for x in parts), r1, r2)) == want


def test_from_rational_is_canonical():
    fld = ExactField(9, 10)
    for num, den in [(6, -4), (0, 7), (-3, 9), (Fraction(2, 3), 4)]:
        z = fld.from_rational(num, den)
        assert z.as_fraction() == Fraction(num, den)
        _assert_canonical(z)
    with pytest.raises(ZeroDivisionError):
        fld.from_rational(1, 0)


def test_float_scalars_are_unhashable():
    # FloatScalar equality has a tolerance, so no hash can agree with it
    fld = FloatField(0.5, precision=50)
    with pytest.raises(TypeError):
        hash(fld.one)
