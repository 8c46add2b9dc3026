"""Norm and seminorm estimators against independent routes."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from qsphere import Berezin, GnsContext, UqActions, make_algebra, specnorm
from qsphere.exprs import parse_expression
from qsphere.gns import _HaarInnerCache
from qsphere.qhopf import AlgebraElement, monomials
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


def test_operator_norm_one_angle(half):
    # a and b each carry one b-charge, so the angle theta = 0 gives their
    # norm; a + b mixes charges off the sphere, which one angle cannot
    alg, _ = half
    for x in (alg.a, alg.b):
        assert operator_norm(x, 150).lower_bound == \
            pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError):
        operator_norm(alg.a + alg.b, 150)


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


def test_gram_oracle_small_q():
    # the whitened entries are sums of huge cancelling projections; summed
    # in 80-digit floats they returned the upper bound 8.0 here
    alg = make_algebra(1, 8)
    act = UqActions(alg)
    x = alg.sphere_A
    lo = lip_norm(act, x, 200, ladder=False).value.lower_bound
    g = lip_norm_gram_oracle(act, x, basis_size=100)
    assert abs(lo - g.lower_bound) / lo < 1e-4


def _same_bidegree_pairs(max_degree):
    monos = monomials(max_degree)
    return [(m1, m2) for m1 in monos for m2 in monos
            if m1.left_degree() == m2.left_degree()
            and m1.right_degree() == m2.right_degree()]


@pytest.mark.parametrize("q", [(1, 2), (9, 10), (1, 3), (1, 1)])
def test_haar_inner_closed_form_exact(q):
    alg = make_algebra(*q)
    inner = _HaarInnerCache(alg)
    pairs = _same_bidegree_pairs(7)
    assert len(pairs) == 456
    for m1, m2 in pairs:
        e1 = AlgebraElement(alg, {m1: alg.field.one})
        e2 = AlgebraElement(alg, {m2: alg.field.one})
        assert inner(m1, m2) == alg.haar(e1.star() * e2), (m1, m2)


def test_haar_inner_closed_form_float():
    alg = make_algebra(9, 10, mode="float")
    inner = _HaarInnerCache(alg)
    for m1, m2 in _same_bidegree_pairs(7):
        e1 = AlgebraElement(alg, {m1: alg.field.one})
        e2 = AlgebraElement(alg, {m2: alg.field.one})
        diff = inner(m1, m2) - alg.haar(e1.star() * e2)
        assert abs(diff.val) < 1e-40, (m1, m2)


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


CLUSTERED = ["A*B + Bs*A", "B*A^2 + Bs^2*A", "2*B*A + Bs^2",
             "A*Bs + 1/2*B^3", "A*B*A", "Bs*A^3 - B^2"]


def _spy_dense(monkeypatch):
    calls = []
    dense = specnorm._dense_top_triplet

    def spied(T, vectors):
        calls.append(T.shape)
        return dense(T, vectors)

    monkeypatch.setattr(specnorm, "_dense_top_triplet", spied)
    return calls


@pytest.mark.parametrize("q, cases, dense_route", [
    ((1, 2), [("A", 0), ("B + Bs", 0), ("A*B + Bs*A", 1), ("B + 2*Bs", 0)],
     False),
    ((9, 10), [("A", 0), ("A*B + Bs*A", 0), ("B*A^2 + Bs^2*A", 2),
               ("3*A - B + Bs", 1), ("A^3 + B^2*Bs", 1)], False),
    # tops with 69 to 146 singular values within 1e-12 of the largest:
    # Lanczos cannot resolve them within its step budget
    ((9, 10), [(t, 1) for t in CLUSTERED] + [("B + 2*Bs", 0)], True),
], ids=["converging-q1/2", "converging-q9/10", "clustered-q9/10"])
def test_dominant_sigma_both_routes(monkeypatch, q, cases, dense_route):
    alg = make_algebra(*q)
    act = UqActions(alg)
    ber = Berezin(GnsContext(alg, act))
    calls = _spy_dense(monkeypatch)
    trunc = RepTruncation(q[0] / q[1], 200, 0.0)
    for text, level in cases:
        y = parse_expression(alg, text)
        if level:
            y = ber.via_coproduct(y, level)
        mat = delta_block_matrix(act, y, trunc)
        calls.clear()
        sigma, converged = specnorm.dominant_sigma(mat)
        assert converged
        assert calls == ([mat.shape] if dense_route else []), (text, level)
        want = np.linalg.svd(mat.toarray(), compute_uv=False)[0]
        assert sigma == pytest.approx(want, rel=1e-12, abs=0), (text, level)


def test_dominant_sigma_of_zero(monkeypatch):
    calls = _spy_dense(monkeypatch)
    with np.errstate(all="raise"):
        for n in (1, 2, 40):
            zero = sparse.csr_matrix((n, n), dtype=complex)
            assert specnorm.dominant_sigma(zero) == (0.0, True)
    assert calls == []


def test_converging_seminorm_is_never_densified(monkeypatch, half):
    # the ladder's matrices at q = 1/2 all converge within the Lanczos
    # budget, so no dense matrix and no dense SVD is ever formed
    alg, act = half

    def refuse(*args, **kwargs):
        raise AssertionError("densified a converging input")

    monkeypatch.setattr(sparse.csr_matrix, "toarray", refuse)
    monkeypatch.setattr(sparse.csc_matrix, "toarray", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    r = lip_norm(act, alg.sphere_A, 200)
    assert r.value.lower_bound == pytest.approx(math.sqrt(3) / 2, rel=1e-9)
    assert r.value.converged


# -- clustered tops certified at the character norm ---------------------------

DELTA = specnorm._LANCZOS_TOL
# the 7 seminorms of a q = 9/10 contraction round that Lanczos cannot resolve
FALLBACK = [(t, 1) for t in CLUSTERED] + [("B + 2*Bs", 0)]


@pytest.fixture(scope="module")
def fallback_images(nine_tenths):
    alg, act = nine_tenths
    ber = Berezin(GnsContext(alg, act))
    out = []
    for text, level in FALLBACK:
        y = parse_expression(alg, text)
        out.append(ber.via_coproduct(y, level) if level else y)
    return out


def test_clustered_seminorm_is_never_densified(monkeypatch, nine_tenths,
                                               fallback_images):
    _alg, act = nine_tenths
    calls = _spy_dense(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("densified a certified input")

    monkeypatch.setattr(sparse.csr_matrix, "toarray", refuse)
    monkeypatch.setattr(sparse.csc_matrix, "toarray", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    for y in fallback_images:
        est = lip_norm(act, y, 200, ladder=False).value
        assert est.converged and est.lower_bound > 0
    assert calls == []


def test_certified_value_is_within_two_delta_below_dense(nine_tenths,
                                                         fallback_images):
    _alg, act = nine_tenths
    roundoff = 1e-14     # the dense SVD's own relative error, generously
    for (text, level), y in zip(FALLBACK, fallback_images):
        lo = lip_norm(act, y, 200, ladder=False).value.lower_bound
        mat = delta_block_matrix(act, y, RepTruncation(0.9, 200, 0.0))
        dense = np.linalg.svd(mat.toarray(), compute_uv=False)[0]
        assert lo <= dense * (1 + roundoff), (text, level)
        assert dense <= lo * (1 + 2 * DELTA + roundoff), (text, level)


def _interleaved_banded(rng, M, r, width):
    """Seeded r x r grid of complex M x M blocks with offsets
    -width..width: banded once its unknowns go site by site."""
    offsets = range(-width, width + 1)
    return sparse.bmat([[sparse.diags(
        [rng.standard_normal(M - abs(k)) + 1j * rng.standard_normal(M - abs(k))
         for k in offsets], offsets, shape=(M, M)) for _ in range(r)]
        for _ in range(r)], format="csr")


@pytest.mark.parametrize("M, r, width, partial", [
    (2, 2, 1, True), (37, 2, 2, True), (48, 1, 3, False), (23, 3, 1, True)])
def test_block_cholesky_matches_eigvalsh(M, r, width, partial):
    T = _interleaved_banded(np.random.default_rng([M, r, width]), M, r, width)
    G = (T.conj().T @ T).toarray()
    D, U = specnorm._site_gram_blocks(T, T.conj().T, M)
    nb, b, n = D.shape[0], D.shape[1], M * r
    assert nb == -(-n // b) and bool(n % b) == partial
    # the blocks are G in the site-by-site order, zero-padded
    order = [j * M + s for s in range(M) for j in range(r)]
    full = np.zeros((nb * b, nb * b), dtype=complex)
    for k in range(nb):
        full[k * b:(k + 1) * b, k * b:(k + 1) * b] = D[k]
        if k + 1 < nb:
            full[k * b:(k + 1) * b, (k + 1) * b:(k + 2) * b] = U[k]
            full[(k + 1) * b:(k + 2) * b, k * b:(k + 1) * b] = U[k].conj().T
    assert np.array_equal(full[:n, :n], G[np.ix_(order, order)])
    assert not full[n:].any()
    sigma = math.sqrt(np.linalg.eigvalsh(G)[-1])
    assert specnorm._norm_below(D, U, sigma * (1 + 1e-10))
    assert not specnorm._norm_below(D, U, sigma * (1 - 1e-10))


@pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-9])
def test_off_candidate_is_refused(monkeypatch, nine_tenths, fallback_images,
                                  factor):
    # a candidate 1e-9 away from the character norm cannot be certified
    # at delta = 1e-12, so the dense SVD answers
    _alg, act = nine_tenths
    calls = _spy_dense(monkeypatch)
    for (text, level), y in zip(FALLBACK, fallback_images):
        c = specnorm._character_norm(act.delta_matrix(y))
        mat = delta_block_matrix(act, y, RepTruncation(0.9, 200, 0.0))
        calls.clear()
        sigma, converged = specnorm.dominant_sigma(mat, c * factor, 200)
        assert converged and calls == [mat.shape], (text, level)
        assert sigma == np.linalg.svd(mat.toarray(), compute_uv=False)[0]


def test_top_below_character_norm_keeps_dense_value(monkeypatch):
    # B + Bs at q = 99/100, M = 100: sigma 1.0100240... lies below the
    # character norm 1/q, so the certificate refuses and the dense SVD
    # gives the value it gave before the certificate existed
    alg = make_algebra(99, 100)
    act = UqActions(alg)
    y = parse_expression(alg, "B + Bs")
    assert specnorm._character_norm(act.delta_matrix(y)) == pytest.approx(
        100 / 99, rel=1e-15)
    calls = _spy_dense(monkeypatch)
    est = lip_norm(act, y, 100, ladder=False).value
    assert calls == [(200, 200)]
    assert est.lower_bound == pytest.approx(1.0100240205873896, rel=1e-13)
    mat = delta_block_matrix(act, y, RepTruncation(0.99, 100, 0.0))
    assert est.lower_bound == np.linalg.svd(mat.toarray(),
                                            compute_uv=False)[0]


# -- one-pass assembly against the per-monomial sparse route ------------------


def _reference_monomial(m, trunc):
    """The per-monomial sparse route: one COO matrix per monomial."""
    q, M, theta = trunc.q, trunc.M, trunc.theta
    k, l, mm = m.a_exp, m.b_exp, m.bs_exp
    n = np.arange(M, dtype=float)
    diag = (q ** (n * (l + mm))) * np.exp(1j * theta * (l - mm))
    w = np.sqrt(np.maximum(0.0, 1.0 - q ** (2 * n)))
    amp = np.ones(M)
    if k >= 0:
        for j in range(1, k + 1):
            idx = n.astype(int) + j
            amp = amp * np.where(idx < M, w[np.minimum(idx, M - 1)], 0.0)
        rows, cols = np.arange(k, M), np.arange(0, M - k)
        data = (diag * amp)[:M - k]
    else:
        for j in range(-k):
            idx = n.astype(int) - j
            amp = amp * np.where(idx >= 1, w[np.maximum(idx, 0)], 0.0)
        rows, cols = np.arange(0, M + k), np.arange(-k, M)
        data = (diag * amp)[-k:]
    return sparse.csr_matrix((data, (rows, cols)), shape=(M, M))


def _reference_element(x, trunc):
    out = sparse.csr_matrix((trunc.M, trunc.M), dtype=complex)
    for m, c in x.terms.items():
        out = out + _reference_monomial(m, trunc) * complex(c.to_complex())
    return out


def _assert_same_csr(got, want):
    assert got.has_canonical_format
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _random_coeff(alg, rng):
    def part():
        return Fraction(int(rng.choice([-1, 1])) * int(rng.integers(1, 10)),
                        int(rng.integers(1, 8)))
    return alg.field.from_parts(re=part(), im=part())


def _shuffled(x, rng):
    """x with its terms in a random summation order."""
    items = list(x.terms.items())
    order = rng.permutation(len(items))
    return AlgebraElement(x.alg, dict(items[i] for i in order))


def _random_element(alg, rng, max_shift):
    # several terms share each offset, so the summation order shows
    words = [m for m in monomials(4) if abs(m.a_exp) <= max_shift]
    picks = rng.choice(len(words), size=min(len(words), 8), replace=False)
    return AlgebraElement(alg, {words[i]: _random_coeff(alg, rng)
                                for i in picks})


def _random_sphere_element(alg, rng, degree):
    gens = [alg.sphere_A, alg.sphere_B, alg.sphere_B_star]
    x = alg.scalar_element(_random_coeff(alg, rng))
    for _ in range(3):
        word = alg.unit
        for _ in range(int(rng.integers(1, degree + 1))):
            word = word * gens[int(rng.integers(3))]
        x = x + word.scale(_random_coeff(alg, rng))
    return _shuffled(x, rng)


@pytest.mark.parametrize("M", [2, 5, 60, 200])
@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("q", [(1, 2), (9, 10)])
def test_assembly_bit_identical(q, theta, M):
    # the one-pass CSR has the arrays of the per-monomial sparse sums and
    # sparse.bmat, which the Lanczos kernel's bits depend on
    alg = make_algebra(*q)
    act = UqActions(alg)
    trunc = RepTruncation(q[0] / q[1], M, theta)
    rng = np.random.default_rng([M, int(10 * theta), q[1]])
    for _ in range(4):
        x = _random_element(alg, rng, M - 1)
        _assert_same_csr(represent_element(x, trunc),
                         _reference_element(x, trunc))
        y = _random_sphere_element(alg, rng, 1 if M == 2 else 3)
        entries = act.delta_matrix(y)
        if any(abs(m.a_exp) >= M for row in entries for e in row
               for m in e.terms):
            continue
        want = sparse.bmat([[_reference_element(e, trunc) for e in row]
                            for row in entries], format="csr")
        _assert_same_csr(delta_block_matrix(act, y, trunc), want)


@pytest.mark.parametrize("M", [2, 3, 5])
def test_shift_beyond_truncation_is_zero(half, M):
    # a^k and a*^k with k >= M move every basis vector out of the
    # truncation, so their compression is the zero matrix
    alg, _ = half
    trunc = RepTruncation(0.5, M, 0.3)
    for k in (M, M + 1, 2 * M + 3):
        for x in (alg.a ** k, alg.a_star ** k):
            mat = represent_element(x, trunc)
            assert mat.shape == (M, M) and mat.nnz == 0
    # the in-range terms of a mixed element are untouched
    x = alg.a ** (M + 1) + alg.b
    _assert_same_csr(represent_element(x, trunc),
                     _reference_element(alg.b, trunc))
