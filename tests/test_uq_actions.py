"""Twisted derivations: frozen values, Leibniz rule, star behaviour, and
the derivations suite against planted faults."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsphere import UqActions, make_algebra, make_algebra_float, uq_actions
from qsphere.qhopf import (GEN_A, GEN_AS, GEN_B, GEN_BS, Algebra,
                           AlgebraElement, generator_word, monomials)
from qsphere.session import SessionConfig
from qsphere.suites import run_suite


@pytest.fixture(scope="module")
def ctx():
    alg = make_algebra(1, 2)
    return alg, UqActions(alg)


def test_generator_values(ctx):
    alg, act = ctx
    fld = alg.field
    half_rt2 = fld.from_parts(sre=Fraction(1, 2))     # sqrt(2)/2 = q^(1/2)
    rt2 = fld.from_parts(sre=1)                       # q^(-1/2)
    assert act.twisted_derivation("delta1", alg.a).is_zero()
    assert act.twisted_derivation("delta1", alg.b) == alg.a.scale(-rt2)
    assert act.twisted_derivation("delta2", alg.a) == alg.b.scale(
        -half_rt2)
    assert act.twisted_derivation("delta2", alg.b).is_zero()
    assert act.twisted_derivation("deltaK", alg.a) == alg.a.scale(half_rt2)
    assert act.twisted_derivation("deltaKinv", alg.a) == alg.a.scale(rt2)
    # diagonal derivation scales by (q^(w/2) - q^(-w/2))/(q - 1/q)
    third_rt2 = fld.from_parts(sre=Fraction(1, 3))
    assert act.twisted_derivation("delta3", alg.a) == alg.a.scale(third_rt2)
    assert act.twisted_derivation("delta3", alg.b) == alg.b.scale(
        -third_rt2)


def test_sphere_values(ctx):
    alg, act = ctx
    assert act.twisted_derivation("delta1", alg.sphere_A) == -(
        alg.a * alg.b_star)
    assert act.twisted_derivation("delta2", alg.sphere_A) == (
        alg.a_star * alg.b).scale(alg.field.from_rational(2))
    assert act.twisted_derivation("delta3", alg.sphere_B) == (
        alg.a * alg.b_star)


def test_twisted_leibniz(ctx):
    alg, act = ctx
    xs = [alg.a * alg.b, alg.sphere_A, alg.b_star + alg.unit]
    ys = [alg.a_star, alg.sphere_B, alg.b * alg.b]
    for lab in ("delta1", "delta2", "delta3"):
        for x in xs:
            for y in ys:
                lhs = act.twisted_derivation(lab, x * y)
                rhs = act.twisted_derivation(lab, x) * \
                    act.twisted_derivation("deltaK", y) + \
                    act.twisted_derivation("deltaKinv", x) * \
                    act.twisted_derivation(lab, y)
                assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(t1=st.tuples(st.integers(-1, 1), st.integers(0, 1), st.integers(0, 1),
                    st.fractions(max_denominator=5)),
       t2=st.tuples(st.integers(-1, 1), st.integers(0, 1), st.integers(0, 1),
                    st.fractions(max_denominator=5)))
def test_leibniz_random(t1, t2):
    alg = make_algebra(1, 2)
    act = UqActions(alg)
    x, y = alg.monomial(*t1), alg.monomial(*t2)
    lhs = act.twisted_derivation("delta1", x * y)
    rhs = act.twisted_derivation("delta1", x) * \
        act.twisted_derivation("deltaK", y) + \
        act.twisted_derivation("deltaKinv", x) * \
        act.twisted_derivation("delta1", y)
    assert lhs == rhs


def test_star_rules(ctx):
    alg, act = ctx
    for x in (alg.a, alg.b, alg.a * alg.b_star, alg.sphere_B):
        d1 = act.twisted_derivation("delta1", x.star())
        d2 = act.twisted_derivation("delta2", x)
        assert d1 == -(d2.star())
        d3s = act.twisted_derivation("delta3", x.star())
        d3 = act.twisted_derivation("delta3", x)
        assert d3s == -(d3.star())


def test_haar_annihilation(ctx):
    alg, act = ctx
    for lab in ("delta1", "delta2", "delta3"):
        for x in (alg.a, alg.sphere_A, alg.a * alg.b, alg.sphere_B * alg.sphere_A):
            assert alg.haar(act.twisted_derivation(lab, x)).is_zero()


def test_delta_matrix_shape(ctx):
    alg, act = ctx
    m = act.delta_matrix(alg.sphere_B)
    assert m[0][0] == -act.twisted_derivation("delta3", alg.sphere_B)
    assert m[0][1] == act.twisted_derivation("delta2", alg.sphere_B)
    assert m[1][0] == act.twisted_derivation("delta1", alg.sphere_B)
    assert m[1][1] == act.twisted_derivation("delta3", alg.sphere_B)


def test_delta4_is_negated_delta3(ctx):
    alg, act = ctx
    x = alg.sphere_A * alg.sphere_B
    assert act.twisted_derivation("delta4", x) == \
        -(act.twisted_derivation("delta3", x))


def test_partial_action_characters(ctx):
    alg, act = ctx
    # k acts diagonally by half-integer powers of q
    x = act.twisted_derivation("partialK", alg.a)
    assert x == alg.a.scale(alg.field.q_half_power(1))
    y = act.twisted_derivation("partialKinv", alg.a)
    assert y == alg.a.scale(alg.field.q_half_power(-1))


def test_unknown_label(ctx):
    alg, act = ctx
    with pytest.raises(ValueError):
        act.twisted_derivation("delta9", alg.a)
    with pytest.raises(ValueError):
        act.twisted_derivation("partialX", alg.a)


def _word_pairing(alg):
    """<eta, w> on basis words, from the generator values and the
    coproducts Delta k = k (x) k, Delta e = e (x) k + k^-1 (x) e and the
    same for f, so <e, g w> = <e, g><k, w> + <k^-1, g><e, w>."""
    F = alg.field
    z, one = F.zero, F.one
    gen = {
        "e": {GEN_B: -(one / F.q)},
        "f": {GEN_BS: one},
        "k": {GEN_A: F.q_half_power(1), GEN_AS: F.q_half_power(-1)},
        "kinv": {GEN_A: F.q_half_power(-1), GEN_AS: F.q_half_power(1)},
    }

    def pair(eta, word):
        if not word:
            return z if eta in ("e", "f") else one
        g, rest = word[0], word[1:]
        head = gen[eta].get(g, z)
        if eta in ("k", "kinv"):
            return head * pair(eta, rest)
        return (head * pair("k", rest)
                + gen["kinv"].get(g, z) * pair(eta, rest))

    return lambda eta: (lambda mono: pair(eta, generator_word(mono)))


# label -> (leg paired, generator, power of q^(1/2) scaling the image)
_PAIRING_LABELS = {
    "delta1": ("left", "e", 1), "delta2": ("left", "f", -1),
    "deltaK": ("left", "k", 0), "deltaKinv": ("left", "kinv", 0),
    "partialE": ("right", "e", 0), "partialF": ("right", "f", 0),
    "partialK": ("right", "k", 0), "partialKinv": ("right", "kinv", 0),
}


@pytest.mark.parametrize("q", [(1, 2), (9, 10), (1, 1)])
def test_actions_match_their_pairing_definition(q):
    # delta_eta = (<eta,.> (x) 1) Delta and partial_eta = (1 (x) <eta,.>)
    # Delta on every monomial of degree <= 4; delta3 = (delta_k -
    # delta_kinv)/(q - 1/q) off q = 1
    alg = make_algebra(*q)
    act = UqActions(alg)
    F = alg.field
    pairing = _word_pairing(alg)
    for mono in monomials(4):
        x = alg.monomial(*mono)
        cop = alg.coproduct(x)
        images = {}
        for label, (leg, eta, half) in _PAIRING_LABELS.items():
            img = (cop.pair_left if leg == "left" else cop.pair_right)(
                pairing(eta))
            images[label] = img.scale(F.q_half_power(half))
            assert act.twisted_derivation(label, x) == images[label], \
                (label, mono)
        if q != (1, 1):
            d3 = (images["deltaK"] - images["deltaKinv"]).scale(
                F.one / (F.q - F.one / F.q))
            assert act.twisted_derivation("delta3", x) == d3, mono
            assert act.twisted_derivation("delta4", x) == -d3, mono


def _table_fault(eta, gen, value):
    def plant(monkeypatch):
        good = uq_actions._pairing_table

        def planted(F):
            table = good(F)
            table[eta][gen] = value(F)
            return table

        monkeypatch.setattr(uq_actions, "_pairing_table", planted)

    return plant


def _flipped_twist(monkeypatch):
    # a^k b^l b*^m scaled by q^(2k) in place of q^(-2k)
    def planted(alg, x):
        return AlgebraElement(alg, {m: c * alg.field.q_power(2 * m.a_exp)
                                    for m, c in x.terms.items()})

    monkeypatch.setattr(Algebra, "modular_twist", planted)


def _wrong_right_leg(monkeypatch):
    # Delta b = a* (x) b + b (x) a* in place of a* (x) b + b (x) a
    good = Algebra.coproduct_mono

    def planted(alg, mono):
        out = good(alg, mono)
        if mono != GEN_B:
            return out
        out = dict(out)
        out[GEN_B, GEN_AS] = out.pop((GEN_B, GEN_A))
        return out

    monkeypatch.setattr(Algebra, "coproduct_mono", planted)


_STAR_FAILS = {"star-rules-deg4", "corep-conjugation-deg3"}

# planted fault -> the derivations checks it fails, the same at every q
# below; together they fail every check the suite yields
_PLANTED_FAULTS = {
    "e-b-sign": (_table_fault("e", GEN_B, lambda F: F.one / F.q),
                 _STAR_FAILS),
    "f-bs-sign": (_table_fault("f", GEN_BS, lambda F: -F.one), _STAR_FAILS),
    "k-a-inverted": (
        _table_fault("k", GEN_A, lambda F: F.q_half_power(-1)),
        {"twisted-leibniz-100pairs", "twisted-leibniz-deg4",
         "k-multiplicative-deg4", "star-rules-deg4", "haar-annihilation-deg4",
         "k-haar-invariance-deg4", "corep-conjugation-deg3"}),
    "twist-flipped": (_flipped_twist, {"twisted-trace-100pairs"}),
    "b-right-leg": (
        _wrong_right_leg,
        {"twisted-leibniz-100pairs", "twisted-leibniz-deg4", "star-rules-deg4",
         "haar-annihilation-deg4", "grading-deg4", "corep-conjugation-deg3"}),
}

_CONFIGS = {"1/2": SessionConfig(q_text="1/2"),
            "9/10": SessionConfig(q_text="9/10"),
            "1": SessionConfig(q_text="1"),
            "0.37-float": SessionConfig(q_text="0.37", scalar_mode="float")}


@pytest.mark.parametrize("q", ["9/10", "1", "0.37-float"])
def test_derivations_suite_passes(q):
    report = run_suite("derivations", _CONFIGS[q])
    assert report.passed, [c.name for c in report.checks
                           if c.status == "fail"]
    assert {c.name for c in report.checks} == set().union(
        *(fails for _, fails in _PLANTED_FAULTS.values()))


@pytest.mark.parametrize("q", ["1/2", "9/10", "0.37-float"])
@pytest.mark.parametrize("fault", list(_PLANTED_FAULTS))
def test_planted_fault_fails_its_checks(monkeypatch, fault, q):
    plant, fails = _PLANTED_FAULTS[fault]
    plant(monkeypatch)
    report = run_suite("derivations", _CONFIGS[q])
    assert {c.name for c in report.checks if c.status == "fail"} == fails


def test_classical_limit_diagonal():
    # at q=1 the diagonal action degenerates to half the weight
    alg = make_algebra_float(1.0, precision=50)
    act = UqActions(alg)
    y = act.twisted_derivation("delta3", alg.a)
    got = complex((alg.haar(alg.a_star * y)
                   / alg.haar(alg.a_star * alg.a)).to_complex())
    assert abs(got - 0.5) < 1e-30
