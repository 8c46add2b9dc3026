"""Numeric scalar mode at rational and irrational q."""

import json
import math

import pytest

from qsphere import (Berezin, GnsContext, UqActions, make_algebra,
                     make_algebra_float)
from qsphere.cli import main
from qsphere.session import SessionConfig


def _close(scal, want: float, tol: float = 1e-30) -> bool:
    z = complex(scal.to_complex())
    return abs(z.imag) < tol and abs(z.real - want) < tol


def test_matches_exact_at_half():
    alg = make_algebra_float(0.5, precision=50)
    exact = make_algebra(1, 2)
    got = alg.haar(alg.sphere_A)
    want = float(exact.haar(exact.sphere_A).as_fraction())
    assert _close(got, want)


def test_irrational_q_relations():
    q = 1 / math.sqrt(2)
    alg = make_algebra_float(q, precision=50)
    lhs = alg.b * alg.a
    rhs = (alg.a * alg.b).scale(alg.field.from_float(q))
    diff = lhs - rhs
    assert all(abs(complex(c.to_complex())) < 1e-15
               for c in diff.terms.values())
    assert (alg.a * alg.a_star + alg.b * alg.b_star) == alg.unit


def test_irrational_q_haar_state():
    alg = make_algebra_float(0.7071, precision=50)
    v = alg.haar(alg.sphere_A)
    z = complex(v.to_complex())
    assert abs(z.imag) < 1e-30
    # between the q->0 value and the classical 1/2... the state mass
    # of b b* is (1-q^2)/(1-q^4) = 1/(1+q^2)
    want = 1 / (1 + 0.7071 ** 2)
    assert abs(z.real - want) < 1e-12
    x = alg.sphere_B + alg.unit
    pos = alg.haar(x.star() * x)
    assert complex(pos.to_complex()).real > 0


def test_antipode_axiom_float(antipode_verdicts):
    # the hopf suite's antipode check holds to the float field's
    # threshold and fails once S(b) is off by q^2
    for q_text in ("1/2", "0.6180339887498949"):
        cfg = SessionConfig(q_text=q_text, scalar_mode="float")
        assert antipode_verdicts(cfg) == (True, False), q_text


def test_berezin_routes_float():
    alg = make_algebra_float(0.9, precision=50)
    ber = Berezin(GnsContext(alg, UqActions(alg)))
    x = alg.sphere_A * alg.sphere_A
    y1 = ber.via_coproduct(x, 2)
    y2 = ber.via_spectrum(x, 2)
    diff = y1 - y2
    assert all(abs(complex(c.to_complex())) < 1e-25
               for c in diff.terms.values())


def test_derivations_float():
    alg = make_algebra_float(0.37, precision=50)
    act = UqActions(alg)
    x = alg.a * alg.b
    y = alg.b_star + alg.a_star
    lhs = act.twisted_derivation("delta1", x * y)
    rhs = act.twisted_derivation("delta1", x) * \
        act.twisted_derivation("deltaK", y) + \
        act.twisted_derivation("deltaKinv", x) * \
        act.twisted_derivation("delta1", y)
    diff = lhs - rhs
    assert all(abs(complex(c.to_complex())) < 1e-30
               for c in diff.terms.values())


def test_cli_float_mode(capsys):
    code = main(["haar", "--q", "0.25", "--scalar-mode", "float",
                 "--expr", "b*bs"])
    out, _ = capsys.readouterr()
    assert code == 0
    obj = json.loads(out)
    assert obj["config"]["scalarMode"] == "float"
    want = (1 - 0.25 ** 2) / (1 - 0.25 ** 4)
    assert obj["float"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("level", [5, 6])
def test_fuzzy_basis_float_matches_exact(level):
    # the smallest squared norms are about 1e-21 (level 5) and 5e-30
    # (level 6); 50 digits resolve them, so they must round to the
    # exact values
    flt = GnsContext(make_algebra_float(0.5)).fuzzy_basis(level)
    ex = GnsContext(make_algebra(1, 2)).fuzzy_basis(level)
    assert len(flt) == len(ex) == (level + 1) ** 2
    for v, w in zip(flt, ex):
        assert (v.spin, v.weight) == (w.spin, w.weight)
        assert float(v.snorm.to_complex().real) == float(w.snorm.as_fraction())


def test_fuzzy_basis_float_raises_when_digits_run_out():
    # at level 7 the squared norms cancel below 50 digits; the basis
    # must raise rather than return noise
    gns = GnsContext(make_algebra_float(0.5))
    with pytest.raises(RuntimeError, match="degenerated"):
        gns.fuzzy_basis(7)
