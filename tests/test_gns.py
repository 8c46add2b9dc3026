"""Fuzzy bases, projections, and compressed derivation matrices."""

import copy
from fractions import Fraction
from math import gcd

import pytest

from qsphere import GnsContext, UqActions, make_algebra
from qsphere.gns import _GradedOrtho, _LittleQJacobi, haar_inner
from qsphere.mkdist import default_probes
from qsphere.qhopf import monomials
from qsphere.scalars import ExactScalar
from qsphere.suites import random_elements


@pytest.fixture(scope="module")
def gns():
    return GnsContext(make_algebra(1, 2))


def test_basis_count_and_prefix(gns):
    b2 = gns.fuzzy_basis(2)
    b3 = gns.fuzzy_basis(3)
    assert len(b2) == 9
    assert len(b3) == 16
    for v2, v3 in zip(b2, b3):
        assert v2.element == v3.element
        assert v2.weight == v3.weight


def test_basis_orthogonal():
    # the product route h(v* w) is the oracle for the closed-form chains
    for q in [(1, 2), (9, 10), (1, 3), (1, 1)]:
        alg = make_algebra(*q)
        vs = GnsContext(alg).fuzzy_basis(4)
        assert len(vs) == 25
        for i, v in enumerate(vs):
            for w in vs[i + 1:]:
                assert alg.haar(v.element.star() * w.element).is_zero()
            sn = alg.haar(v.element.star() * v.element)
            assert sn == v.snorm
            assert sn.as_fraction() > 0
        assert vs[0].element == alg.unit
        assert all(v.spin > 0 for v in vs[1:])


@pytest.mark.parametrize("sphere", [True, False])
@pytest.mark.parametrize("q", [(1, 2), (9, 10), (1, 1)])
def test_haar_inner_matches_product(q, sphere):
    alg = make_algebra(*q)
    elems = random_elements(alg, 30, 4, seed=7, sphere=sphere)
    nonzero = 0
    for x in elems:
        for y in elems:
            want = alg.haar(x.star() * y)
            assert haar_inner(alg, x, y) == want, (x, y)
            nonzero += not want.is_zero()
    assert nonzero > len(elems)


def _projection(gns, x, N):
    """x's orthogonal projection onto the level-N fuzzy subspace."""
    out = gns.alg.scalar_element(gns.alg.field.zero)
    for layer in gns.spin_split(x, N).values():
        out = out + layer
    return out


def test_projection_truncates_spin(gns):
    alg = gns.alg
    x = alg.sphere_A * alg.sphere_A           # spins 0..2
    p1 = _projection(gns, x, 1)
    assert p1.sphere_degree() <= 1
    # projection is idempotent and exact on low levels
    assert _projection(gns, p1, 1) == p1
    p2 = _projection(gns, x, 2)
    assert p2 == x


def test_spin_split_reassembles(gns):
    alg = gns.alg
    x = alg.sphere_A + alg.sphere_B * alg.sphere_A
    parts = gns.spin_split(x)
    total = alg.scalar_element(alg.field.zero)
    for p in parts.values():
        total = total + p
    assert total == x


def _nested_split(gns, x, cap):
    """Reference split: project x onto every level 0..cap, take
    differences of consecutive projections."""
    alg = gns.alg
    out = {}
    prev = alg.scalar_element(alg.field.zero)
    for n in range(cap + 1):
        cur = alg.scalar_element(alg.field.zero)
        for v in gns.fuzzy_basis(n):
            cur = cur + v.element.scale(haar_inner(alg, v.element, x) / v.snorm)
        if not (cur - prev).is_zero():
            out[n] = cur - prev
        prev = cur
    return out


@pytest.mark.parametrize("q", [(1, 2), (9, 10), (1, 1)])
def test_spin_split_matches_nested_projections(q):
    g = GnsContext(make_algebra(*q))
    for x in random_elements(g.alg, 12, 4, seed=11, sphere=True):
        assert g.spin_split(x) == _nested_split(g, x, x.sphere_degree())
        assert g.spin_split(x, 5) == _nested_split(g, x, 5)
        assert g.spin_split(x, 2) == _nested_split(g, x, 2)


def _adjoint(T, basis):
    """(T+)_ij = conj(T_ji) s_j / s_i: the adjoint of a compression
    against the orthogonal, unnormalized fuzzy basis."""
    s = [v.snorm for v in basis]
    return [[(T[j][i].conjugate() * s[j]) / s[i] for j in range(len(s))]
            for i in range(len(s))]


def _is_zero(T) -> bool:
    return all(e.is_zero() for row in T for e in row)


def test_operator_matrix_adjoint_pattern(gns):
    basis = gns.fuzzy_basis(3)
    t1 = gns.operator_matrix_of("delta1", 3)
    t2 = gns.operator_matrix_of("delta2", 3)
    assert len(t1) == len(t2) == len(basis)
    # delta2 is q times the adjoint of delta1 in this inner product
    q = gns.alg.field.q
    assert _is_zero([[e - a * q for e, a in zip(row, arow)]
                     for row, arow in zip(t2, _adjoint(t1, basis))])
    t3 = gns.operator_matrix_of("delta3", 3)
    assert _is_zero([[e - a for e, a in zip(row, arow)]
                     for row, arow in zip(t3, _adjoint(t3, basis))])


def test_compression_commutes(gns):
    # compressing at N then M equals compressing at M for M <= N: the
    # level-1 matrix is the leading block of the level-3 one, and P_1
    # commutes with each derivation there
    for label in ("delta1", "delta2", "delta3"):
        big = gns.operator_matrix_of(label, 3)
        small = gns.operator_matrix_of(label, 1)
        n, spins = len(small), [v.spin for v in gns.fuzzy_basis(3)]
        assert len(big) == len(spins) and n == 4
        assert [row[:n] for row in big[:n]] == small
        assert all(e.is_zero() for i, row in enumerate(big)
                   for j, e in enumerate(row)
                   if (spins[i] <= 1) != (spins[j] <= 1))


# -- the closed-form chains against the scalar Gram-Schmidt ------------------


@pytest.mark.parametrize("q", [(1, 2), (9, 10)])
def test_chains_list_the_graded_monomials(q):
    # the chains hold exactly the monomials of their right degree, in
    # the graded order of qhopf.monomials
    alg = make_algebra(*q)
    monos = monomials(11)
    for rdeg in range(-4, 5):
        ortho = _GradedOrtho(alg, rdeg)
        ortho.ensure_degree(11)
        want = [m for m in monos if m.right_degree() == rdeg]
        assert [ortho.chains[k]["monos"][pos]
                for k, pos in ortho.order] == want
        for k, ch in ortho.chains.items():
            assert ch["monos"] == [m for m in want if m.a_exp == k]


def _chain_pair(alg, rdeg):
    """The chains of right degree rdeg in closed form and, on the same
    exact field, on the scalar Gram-Schmidt that float fields run."""
    fast, ref = _GradedOrtho(alg, rdeg), _GradedOrtho(alg, rdeg)
    ref.exact = False
    return fast, ref


def _assert_chains_match(alg, rdeg, degree):
    fast, ref = _chain_pair(alg, rdeg)
    fast.ensure_degree(degree)
    ref.ensure_degree(degree)
    assert fast.order == ref.order
    assert fast.chains.keys() == ref.chains.keys()
    for k, ch in ref.chains.items():
        fch = fast.chains[k]
        assert fch["monos"] == ch["monos"]
        for (fw, fs), (w, s) in zip(fch["vecs"], ch["vecs"]):
            assert fs == s
            if rdeg:                 # the Gram oracle reads "ints" alone
                assert fw is None
                continue
            # term order too: the float shift model sums in dict order
            assert list(fw.terms) == list(w.terms), (k, w)
            assert all(fw.terms[m] == c for m, c in w.terms.items())
        E = fch["den"]
        for fcol, col in zip(fch["cols"], ch["cols"]):
            assert ([(alpha, Fraction(n, E)) for alpha, n in fcol]
                    == [(alpha, p.as_fraction()) for alpha, p in col])
        for N, (w, _s) in zip(fch["ints"], ch["vecs"]):
            assert N[-1] > 0 and gcd(*N) == 1
            assert all(Fraction(n, N[-1]) == w.coefficient(m).as_fraction()
                       for m, n in zip(ch["monos"], N))


@pytest.mark.parametrize("q", [(1, 2), (9, 10), (1, 8), (2, 3), (1, 1),
                               (99, 100)])
def test_integer_chains_match_scalar_chains(q):
    alg = make_algebra(*q)
    for rdeg in (0, 1, -1, 2, -2):
        _assert_chains_match(alg, rdeg, 16)


def _swap_a_b(self, t, j):
    # a = p^s0 and b = p^|k| trade places; ab = p^e stays
    swapped = copy.copy(self)
    swapped.s0, swapped.K = self.K, self.s0
    return _VECTOR_RATIO(swapped, t, j)


def _no_vector_b(self, t, j):
    num, den = _VECTOR_RATIO(self, t, j)
    if self.neg:                     # undo the division by b = P^K / Q^K
        return num * self.P ** self.K, den * self.Q ** self.K
    return num, den


def _no_norm_b2(self, t):
    num, den = _NORM_RATIO(self, t)
    if self.neg:                     # undo the factor b^2
        return (num * self.Q ** (2 * self.K),
                den * self.P ** (2 * self.K))
    return num, den


_VECTOR_RATIO = _LittleQJacobi.vector_ratio
_NORM_RATIO = _LittleQJacobi.norm_ratio


@pytest.mark.parametrize("name, wrong, q", [
    ("vector_ratio", _swap_a_b, (1, 2)),
    ("vector_ratio", _no_vector_b, (1, 2)),
    ("norm_ratio", _no_norm_b2, (1, 2)),
    # Q^m - P^m is (Q - P)[m]: the same ratios below q = 1, zero at it
    ("bracket", lambda self, m: self.Q ** m - self.P ** m, (1, 1)),
], ids=["swap-a-b", "vector-without-b", "norm-without-b2", "bracket-at-q1"])
def test_planted_closed_form_errors_fail(monkeypatch, name, wrong, q):
    monkeypatch.setattr(_LittleQJacobi, name, wrong)
    alg = make_algebra(*q)
    with pytest.raises((AssertionError, ZeroDivisionError)):
        for rdeg in (1, -1):
            _assert_chains_match(alg, rdeg, 8)


@pytest.mark.parametrize("q", [(1, 2), (9, 10), (1, 8), (2, 3), (1, 1),
                               (99, 100)])
def test_integer_oracle_columns_match_scalar_columns(q):
    alg = make_algebra(*q)
    actions = UqActions(alg)
    chains: dict = {}
    compared = 0
    for x in default_probes(alg):
        for y, rdeg in zip(actions.dirac_components(x), (1, -1)):
            if y.is_zero():
                continue
            shift = next(iter(y.terms)).right_degree()
            (fast, ref), (fcod, rcod) = (
                chains.setdefault(r, _chain_pair(alg, r))
                for r in (rdeg, rdeg + shift))
            sel = fast.basis_selection(100)
            assert ref.basis_selection(100) == sel
            reach = max(fast.chains[k]["monos"][pos].total_degree()
                        for k, pos in sel) + y.total_degree()
            fcod.ensure_degree(reach)
            rcod.ensure_degree(reach)
            # the integer parts [a, b, c, d, den], unreduced, against the
            # scalar loop's canonical values
            got = dict(fcod.image_columns(y, fast, sel))
            want = dict(rcod.image_columns(y, ref, sel))
            assert got.keys() == want.keys() == set(range(len(sel)))
            for j, col in want.items():
                assert got[j].keys() == col.keys()
                assert all(ExactScalar(alg.field, *got[j][key]) == val
                           for key, val in col.items())
            compared += sum(map(len, want.values()))
    assert compared > 1000
