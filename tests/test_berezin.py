"""Level-N transform: two independent routes and frozen spectra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsphere import Berezin, GnsContext, UqActions, make_algebra
from qsphere.qhopf import (Algebra, AlgebraElement, Monomial, TensorElement,
                           _accumulate, make_algebra_float, monomials)
from qsphere.suites import random_elements
from qsphere.uq_actions import sphere_monomials
from test_qhopf import coproduct_walk


def _fr(scal) -> Fraction:
    return scal.as_fraction()


def _closed_form(q: Fraction, N: int, n: int) -> Fraction:
    """c_{N,n} = [N]! [N+1]! / ([N-n]! [N+n+1]!) in q^2-integers."""
    if n > N:
        return Fraction(0)

    def fact(k):
        out = Fraction(1)
        for j in range(1, k + 1):
            out *= sum(q ** (2 * i) for i in range(j))
        return out

    return fact(N) * fact(N + 1) / (fact(N - n) * fact(N + n + 1))


@pytest.fixture(scope="module")
def berezin():
    """Berezin context for (q, mode), built once per module."""
    made: dict = {}

    def get(q: tuple, mode: str = "exact") -> Berezin:
        if (q, mode) not in made:
            alg = (make_algebra(*q) if mode == "exact"
                   else make_algebra_float(q[0] / q[1]))
            made[q, mode] = Berezin(GnsContext(alg, UqActions(alg)))
        return made[q, mode]

    return get


def test_unit_fixed(ber_half, alg_half):
    for N in (1, 2):
        assert ber_half.via_coproduct(alg_half.unit, N) == alg_half.unit


def test_frozen_level_one(ber_half, alg_half):
    alg = alg_half
    y = ber_half.via_coproduct(alg.sphere_A, 1)
    want = alg.unit.scale(alg.field.from_rational(4, 21)) + \
        alg.sphere_A.scale(alg.field.from_rational(16, 21))
    assert y == want
    # B spans a one-dimensional spin layer so it is an eigenvector
    z = ber_half.via_coproduct(alg.sphere_B, 1)
    assert z == alg.sphere_B.scale(alg.field.from_rational(16, 21))


def test_frozen_spectra(ber_half):
    spec1 = ber_half.spectrum(1, max_spin=3)
    assert _fr(spec1.eigenvalues[0]) == 1
    assert _fr(spec1.eigenvalues[1]) == Fraction(16, 21)
    assert _fr(spec1.eigenvalues[2]) == 0
    assert _fr(spec1.eigenvalues[3]) == 0
    spec2 = ber_half.spectrum(2, max_spin=3)
    assert _fr(spec2.eigenvalues[1]) == Fraction(16, 17)
    assert _fr(spec2.eigenvalues[2]) == Fraction(4096, 5797)
    spec3 = ber_half.spectrum(3, max_spin=3)
    assert _fr(spec3.eigenvalues[1]) == Fraction(336, 341)
    assert _fr(spec3.eigenvalues[2]) == Fraction(4096, 4433)
    assert _fr(spec3.eigenvalues[3]) == Fraction(16777216, 24208613)


def test_routes_agree(ber_half, alg_half):
    alg = alg_half
    xs = [alg.sphere_A * alg.sphere_A,
          alg.sphere_B * alg.sphere_A - alg.unit,
          alg.sphere_B_star + alg.sphere_A.scale(alg.field.from_rational(2, 5))]
    for N in (1, 2):
        for x in xs:
            assert ber_half.via_coproduct(x, N) == \
                ber_half.via_spectrum(x, N)


def test_state_value_matches_haar_of_transform(ber_half, alg_half):
    # h_twisted(x, N) equals the invariant state of the transform at 0
    alg = alg_half
    x = alg.sphere_A * alg.sphere_A
    v = ber_half.h_twisted(x, 1)
    y = ber_half.via_coproduct(x, 1)
    # constant term of y is the twisted state value
    assert y.coefficient(next(m for m in y.terms if m.is_unit())) == v


def test_sphere_only(ber_half, alg_half):
    for route in (ber_half.via_coproduct, ber_half.via_spectrum):
        with pytest.raises(ValueError, match="leaves the sphere subalgebra"):
            route(alg_half.a, 1)


def test_spectrum_needs_room(ber_half):
    with pytest.raises(ValueError):
        ber_half.spectrum(3, max_spin=2)


def test_monotone_in_level(ber_half):
    # eigenvalues increase toward 1 with the level, per fixed layer
    prev = None
    for N in (1, 2, 3, 4):
        c = _fr(ber_half.spectrum(N, max_spin=max(3, N)).eigenvalues[1])
        if prev is not None:
            assert c > prev
        prev = c
    assert prev < 1


def test_classical_eigenvalues(berezin):
    # at q=1 the first layer eigenvalue is N/(N+2)
    ber = berezin((1, 1))
    for N in (1, 2, 3):
        c = ber.spectrum(N, max_spin=max(2, N)).eigenvalues[1]
        assert _fr(c) == Fraction(N, N + 2)


@pytest.mark.parametrize("q,mode", [((1, 2), "exact"), ((9, 10), "exact"),
                                    ((1, 1), "exact"), ((9, 10), "float")])
def test_spectrum_is_the_verified_closed_form(berezin, q, mode):
    # the coproduct checks every weight vector of spins 1..N+2 against
    # the closed form; float q is the double nearest 9/10
    ber = berezin(q, mode)
    F = ber.alg.field
    qf = Fraction(*q) if mode == "exact" else Fraction(F.q_float)
    for N in range(6):
        spec = ber.spectrum(N, N + 2, verify=True)
        assert spec.verified_to == N + 2
        assert sorted(spec.eigenvalues) == list(range(N + 3))
        for n in range(N + 3):
            want = _closed_form(qf, N, n)
            if mode == "exact":
                assert _fr(spec.eigenvalues[n]) == want
            else:
                got = spec.eigenvalues[n]
                assert (got - F.from_rational(want.numerator,
                                              want.denominator)).is_zero()


def test_spectral_route_runs_no_coproduct(monkeypatch):
    alg = make_algebra(1, 2)
    ber = Berezin(GnsContext(alg, UqActions(alg)))
    coproducts, slices = [], []
    coproduct_mono, build_slice = Algebra.coproduct_mono, Berezin._slice

    def spy_coproduct(self, mono):
        coproducts.append(mono)
        return coproduct_mono(self, mono)

    def spy_slice(self, mono, N):
        slices.append((mono, N))
        return build_slice(self, mono, N)

    monkeypatch.setattr(Algebra, "coproduct_mono", spy_coproduct)
    monkeypatch.setattr(Berezin, "_slice", spy_slice)
    xs = random_elements(alg, 5, 4, seed=3, sphere=True)
    for N in (0, 1, 2, 3, 4):
        ber.spectrum(N, max(N, 4), verify=False)
        for x in xs:
            ber.via_spectrum(x, N)
    assert slices == []
    # the oracle side reads the slices of Delta's closed form, which
    # build no coproduct either
    ber.spectrum(2, 3, verify=True)
    assert slices
    assert coproducts == []


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([(1, 2), (9, 10)]), seed=st.integers(0, 2 ** 32 - 1),
       N=st.integers(0, 5))
def test_routes_agree_on_seeded_elements(berezin, q, seed, N):
    ber = berezin(q)
    for x in random_elements(ber.alg, 3, 4, seed, sphere=True):
        assert ber.via_coproduct(x, N) == ber.via_spectrum(x, N)


def test_slice_estimate(ber_half, alg_half):
    alg = alg_half
    chk = ber_half.slice_lip_check(
        alg.sphere_A, alg.a, alg.a, truncation=80)
    assert chk.lip_slice <= chk.bound * (1 + 1e-4) + 1e-12
    # the slice pairs the first coproduct leg against h(a* m a)
    y = alg.coproduct(alg.sphere_A).pair_left(
        lambda m: alg.haar(alg.a.star() * alg.monomial(*m) * alg.a))
    assert y.sphere_degree() <= alg.sphere_A.sphere_degree()


# -- the slice route against the paired coproduct -----------------------------


def hn_mono(alg, m, N):
    """h_N on a basis monomial the long way: [N+1] h(a*^N m a^N)."""
    mid = AlgebraElement(alg, {m: alg.field.one})
    return alg.q_bracket(N + 1) * alg.haar(
        alg.monomial(-N, 0, 0) * mid * alg.monomial(N, 0, 0))


def _paired(alg, delta: dict, N):
    return TensorElement(alg, delta).pair_right(lambda m: hn_mono(alg, m, N))


def _paired_walk(ber, x, N):
    """beta_N(x) the long way: the letter-walk coproduct of x, summed
    term by term, then paired on the right leg by h_N."""
    alg = ber.alg
    delta: dict = {}
    for m, c in x.terms.items():
        for key, s in coproduct_walk(alg, m).items():
            _accumulate(delta, key, c * s)
    return _paired(alg, delta, N)


@pytest.mark.parametrize("q", [(1, 2), (9, 10)], ids=["1/2", "9/10"])
def test_slice_route_is_the_paired_coproduct(q):
    # values and term order: the float shift model sums in dict order,
    # so an element's order reaches every seminorm computed from it
    alg = make_algebra(*q)
    ber = Berezin(GnsContext(alg, UqActions(alg)))
    xs = random_elements(alg, 12, 4, seed=5, sphere=True)
    for N in range(5):
        for x in xs:
            got, want = ber.via_coproduct(x, N), _paired_walk(ber, x, N)
            assert got == want, (x, N)
            assert list(got.terms) == list(want.terms), (x, N)


def _sphere_monos(degree):
    """Every sphere monomial a^k b^l b*^(k+l) of total degree <= degree."""
    return [m for m in monomials(degree) if m.right_degree() == 0]


@pytest.mark.parametrize("q", [(1, 2), (9, 10), (1, 3), (99, 100),
                               0.6180339887498949],
                         ids=["1/2", "9/10", "1/3", "99/100", "0.618"])
def test_slices_are_the_paired_coproduct(q):
    # the slice of every sphere monomial to degree 10, in value and in
    # term order, against the letter walk paired by the Haar product; at
    # float q the routes round differently and == holds within
    # field.negligible; q = 1, where the two orders differ on two slices,
    # is pinned below
    alg = make_algebra(*q) if isinstance(q, tuple) else make_algebra_float(q)
    ber = Berezin(GnsContext(alg, UqActions(alg)))
    monos = _sphere_monos(10)
    assert len(monos) == 36
    for m in monos:
        delta = coproduct_walk(alg, m)
        for N in range(6):
            got = ber.via_coproduct(AlgebraElement(alg, {m: alg.field.one}), N)
            want = _paired(alg, delta, N)
            assert got == want, (m, N)
            assert list(got.terms) == list(want.terms), (m, N)


@pytest.mark.parametrize("q", [(1, 2), (9, 10), (1, 3), (1, 1)],
                         ids=["1/2", "9/10", "1/3", "1"])
def test_moments_are_the_haar_products(q):
    # h_N reads the moments M_N(t) = h_N(A^t) and vanishes off them
    alg = make_algebra(*q)
    ber = Berezin(GnsContext(alg, UqActions(alg)))
    for N in range(7):
        monos = [Monomial(0, t, t) for t in range(2 * N + 5)]
        for m in monos + _sphere_monos(6):
            x = AlgebraElement(alg, {m: alg.field.one})
            assert ber.h_twisted(x, N) == hn_mono(alg, m, N), (m, N)


def mu_n(q: Fraction, N: int, m: int) -> Fraction:
    """The mass of mu_N at the spectral point lambda_(m+N) = q^(2(m+N))
    of A: [N+1] (1 - q^2) q^(2m) prod_(j=1..N) (1 - q^(2m+2j))."""
    out = sum(q ** (2 * i) for i in range(N + 1)) * (1 - q * q) * q ** (2 * m)
    for j in range(1, N + 1):
        out *= 1 - q ** (2 * m + 2 * j)
    return out


@pytest.mark.parametrize("q,K", [((1, 2), 40), ((9, 10), 120)],
                         ids=["1/2", "9/10"])
def test_moments_are_those_of_mu_n(berezin, q, K):
    # M_N(t) = sum_m mu_N(lambda_(m+N)) lambda_(m+N)^t; the terms are
    # positive and the masses past m = K add to at most [N+1] q^(2K)
    ber = berezin(q)
    qf = Fraction(*q)
    for N in range(1, 7):
        masses = [mu_n(qf, N, m) for m in range(K)]
        tail = sum(qf ** (2 * i) for i in range(N + 1)) * qf ** (2 * K)
        for t in range(2 * N + 3):
            A_t = ber.alg.monomial(0, t, t)
            got = _fr(ber.h_twisted(A_t, N))
            S = sum(w * qf ** (2 * (m + N) * t) for m, w in enumerate(masses))
            assert S <= got <= S + tail, (N, t)


def test_slice_order_at_q_one():
    # at q = 1 the paired coproduct drops a partial sum that cancels to
    # zero and meets its key again later, so on two of the 216 slices
    # its order is not the descending power of A that the slices keep
    alg = make_algebra(1, 1)
    ber = Berezin(GnsContext(alg, UqActions(alg)))
    misses = set()
    for x in sphere_monomials(alg, 5):
        for N in range(6):
            got, want = ber.via_coproduct(x, N), _paired_walk(ber, x, N)
            assert got == want, (x, N)
            if list(got.terms) != list(want.terms):
                misses.add((*x.terms, N))
    assert misses == {(Monomial(-1, 2, 1), 4), (Monomial(-1, 3, 2), 5)}


def test_repeated_transform_reads_cached_slices(monkeypatch):
    alg = make_algebra(1, 2)
    ber = Berezin(GnsContext(alg, UqActions(alg)))
    xs = random_elements(alg, 5, 4, seed=3, sphere=True)
    first = [ber.via_coproduct(x, 1) for x in xs]
    calls = []
    original = Berezin._slice

    def spy(self, mono, N):
        calls.append((mono, N))
        return original(self, mono, N)

    monkeypatch.setattr(Berezin, "_slice", spy)
    assert [ber.via_coproduct(x, 1) for x in xs] == first
    assert calls == []
    # the slices are per level: a second level computes its own
    for x in xs:
        assert ber.via_coproduct(x, 2) == ber.via_spectrum(x, 2)
    assert calls and all(N == 2 for _, N in calls)
