"""Grammar round trips and canonical serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsphere import make_algebra
from qsphere.exprs import (QExprError, canonical_json, element_to_obj,
                           element_to_text, parse_expression, scalar_to_obj,
                           tokenize)


@pytest.fixture(scope="module")
def alg():
    return make_algebra(1, 2)


def test_tokens(alg):
    assert parse_expression(alg, "a") == alg.a
    assert parse_expression(alg, "as") == alg.a_star
    assert parse_expression(alg, "b") == alg.b
    assert parse_expression(alg, "bs") == alg.b_star
    assert parse_expression(alg, "A") == alg.sphere_A
    assert parse_expression(alg, "B") == alg.sphere_B
    assert parse_expression(alg, "Bs") == alg.sphere_B_star


def test_star_means_multiply(alg):
    # reordering picks up the deformation factor
    x = parse_expression(alg, "b*a")
    assert x == (alg.a * alg.b).scale(alg.field.from_rational(1, 2))


def test_arithmetic(alg):
    x = parse_expression(alg, "2*a + (1/3)*b*bs - 1")
    want = alg.a.scale(alg.field.from_rational(2)) \
        + alg.sphere_A.scale(alg.field.from_rational(1, 3)) - alg.unit
    assert x == want
    y = parse_expression(alg, "(a + b)^2")
    assert y == (alg.a + alg.b) ** 2


def test_parse_errors_carry_position(alg):
    with pytest.raises(QExprError) as ei:
        parse_expression(alg, "a +* b")
    assert ei.value.line == 1 and ei.value.col == 4
    with pytest.raises(QExprError) as ei:
        parse_expression(alg, "a +\nc")
    assert ei.value.line == 2 and ei.value.col == 1


@pytest.mark.parametrize("text,want", [
    ("", [("END", "", 1, 1)]),
    ("1.e5", [("NUMBER", "1.e5", 1, 1), ("END", "", 1, 5)]),
    ("1e+", [("NUMBER", "1", 1, 1), ("NAME", "e", 1, 2), ("OP", "+", 1, 3),
             ("END", "", 1, 4)]),
    ("1.5e", [("NUMBER", "1.5", 1, 1), ("NAME", "e", 1, 4),
              ("END", "", 1, 5)]),
    ("1/2.5", ("unexpected character '.'", 1, 4)),
    ("1/x", ("unexpected character '/'", 1, 2)),
    ("2a", [("NUMBER", "2", 1, 1), ("NAME", "a", 1, 2), ("END", "", 1, 3)]),
    ("a2b", [("NAME", "a2b", 1, 1), ("END", "", 1, 4)]),
    ("E5", [("NAME", "E5", 1, 1), ("END", "", 1, 3)]),
    ("1E-07*B", [("NUMBER", "1E-07", 1, 1), ("OP", "*", 1, 6),
                 ("NAME", "B", 1, 7), ("END", "", 1, 8)]),
    ("\r\n1", [("NUMBER", "1", 2, 1), ("END", "", 2, 2)]),
    ("\t\ta", [("NAME", "a", 1, 3), ("END", "", 1, 4)]),
    ("a\f", ("unexpected character '\\x0c'", 1, 2)),
    ("١", ("unexpected character '١'", 1, 1)),
    ("a %", ("unexpected character '%'", 1, 3)),
])
def test_token_stream_pinned(text, want):
    """The scanner's tokens, or its error message and position."""
    if isinstance(want, list):
        assert tokenize(text) == want
        return
    msg, line, col = want
    with pytest.raises(QExprError) as ei:
        tokenize(text)
    assert str(ei.value) == "line %d, col %d: %s" % (line, col, msg)
    assert (ei.value.line, ei.value.col) == (line, col)


def test_text_round_trip_handpicked(alg):
    for src in ("a*b - 3*bs", "A^2 + B*Bs", "1/2 - as^2*b",
                "B + Bs + A*A*A"):
        x = parse_expression(alg, src)
        assert parse_expression(alg, element_to_text(x)) == x


@settings(max_examples=40, deadline=None)
@given(terms=st.lists(
    st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2),
              st.fractions(max_denominator=9).filter(lambda f: f != 0)),
    min_size=1, max_size=3))
def test_text_round_trip_random(terms):
    alg = make_algebra(1, 2)
    x = sum((alg.monomial(*t) for t in terms),
            alg.scalar_element(alg.field.zero))
    if x.is_zero():
        return
    assert parse_expression(alg, element_to_text(x)) == x


def test_text_round_trip_full_basis(alg):
    # every basis word to total degree 5 survives serialize + parse
    for k in range(-5, 6):
        for l in range(0, 6):
            for m in range(0, 6):
                if abs(k) + l + m > 5:
                    continue
                x = alg.monomial(k, l, m)
                assert parse_expression(alg, element_to_text(x)) == x


def test_obj_round_trip(alg):
    x = parse_expression(alg, "a*b + (2/7)*A")
    obj = element_to_obj(x)
    # rebuild from the serialized terms
    y = sum((alg.monomial(t["aExp"], t["bExp"], t["bStarExp"],
                          Fraction(t.get("coeffNum", 0), t.get("coeffDen", 1)))
             for t in obj), alg.scalar_element(alg.field.zero))
    assert y == x


def test_scalar_obj_surd(alg):
    c = alg.field.q_half_power(1)
    obj = scalar_to_obj(c, alg.field)
    assert obj["surd"] == 2
    assert obj["surdNum"] == 1 and obj["surdDen"] == 2


def test_canonical_json_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    b = canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 3], "b": 1}


def test_zero_element_text(alg):
    z = alg.a - alg.a
    assert parse_expression(alg, element_to_text(z)).is_zero()
