"""Norm and seminorm estimators against independent routes."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import sparse

from qsphere import (Berezin, GnsContext, UqActions, make_algebra,
                     make_algebra_float, specnorm)
from qsphere.exprs import parse_expression
from qsphere.gns import _HaarInnerCache
from qsphere.mkdist import default_probes
from qsphere.qhopf import AlgebraElement, monomials
from qsphere.scalars import ExactScalar
from qsphere.specnorm import (RepTruncation, coefficient_sum_bound,
                              delta_block_grid, delta_block_matrix, lip_norm,
                              lip_norm_gram_oracle, operator_norm,
                              represent_element)
from qsphere.suites import random_elements
from scipy_ref import as_csr, from_csr


@pytest.fixture(scope="module")
def half():
    alg = make_algebra(1, 2)
    return alg, UqActions(alg)


def test_relation_residuals(half):
    # the defining relations on interior basis vectors; the last two
    # rows feel the cut
    alg, _ = half
    trunc = RepTruncation(0.5, 120, 0.3)
    a, b = (as_csr(represent_element(g, trunc)) for g in (alg.a, alg.b))
    astar, bstar, q = a.getH(), b.getH(), trunc.q
    eye = sparse.identity(trunc.M, format="csr", dtype=complex)
    rels = [b @ a - q * (a @ b), bstar @ a - q * (a @ bstar),
            b @ bstar - bstar @ b, astar @ a + q * q * (b @ bstar) - eye,
            a @ astar + b @ bstar - eye]
    k = trunc.M - 2
    assert max(np.abs(r.toarray()[:k, :k]).max() for r in rels) < 1e-12


def test_representation_multiplicative(half):
    alg, _ = half
    trunc = RepTruncation(0.5, 60, 0.7)
    x = alg.a * alg.b_star + alg.sphere_A
    y = alg.b + alg.a_star
    lhs = as_csr(represent_element(x * y, trunc))
    rhs = as_csr(represent_element(x, trunc)) @ as_csr(
        represent_element(y, trunc))
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
        est = lip_norm(act, x, 120).value
        assert est.lower_bound <= est.upper_bound + 1e-12


def _dense_sigma(mat) -> float:
    return float(np.linalg.svd(mat.toarray(), compute_uv=False)[0])


def _crude_bound_pairs(alg, act, q):
    """(crude upper bound, dense sigma_1 at truncation 60) of the norm and
    of the Lip seminorm, on the default probes and 20 seeded sphere
    elements: each compression's sigma_1 is a lower bound of the value
    the crude bound claims to dominate."""
    trunc = RepTruncation(q, 60, 0.0)
    norms, lips = [], []
    for x in default_probes(alg) + random_elements(alg, 20, 3, 5,
                                                   sphere=True):
        norms.append((specnorm.coefficient_sum_bound(x),
                      _dense_sigma(represent_element(x, trunc))))
        lips.append((lip_norm(act, x, 60, ladder=False).value.upper_bound,
                     _dense_sigma(delta_block_matrix(act, x, trunc))))
    return norms, lips


def _shortfalls(pairs) -> list:
    return [(b, s) for b, s in pairs if b < s * (1 - 1e-12)]


@pytest.mark.parametrize("q", [(1, 2), (9, 10)])
def test_crude_upper_bounds_dominate_dense_sigma(q):
    alg = make_algebra(*q)
    act = UqActions(alg)
    norms, lips = _crude_bound_pairs(alg, act, q[0] / q[1])
    assert len(norms) == len(lips) == 25
    assert _shortfalls(norms) == [] and _shortfalls(lips) == []
    # A = 1 on e_0, so 1 + A + A^2 attains its coefficient sum there
    y = parse_expression(alg, "1 + A + A^2")
    dense = _dense_sigma(represent_element(
        y, RepTruncation(q[0] / q[1], 60, 0.0)))
    assert coefficient_sum_bound(y) == pytest.approx(dense, abs=1e-12)


def test_crude_bound_check_catches_a_max_coefficient_bound(half,
                                                           monkeypatch):
    # max |c| in place of the coefficient sum no longer bounds the norm
    monkeypatch.setattr(specnorm, "coefficient_sum_bound", lambda x: max(
        (abs(c.to_complex()) for c in x.terms.values()), default=0.0))
    norms, _lips = _crude_bound_pairs(*half, 0.5)
    assert _shortfalls(norms)


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


# the oracle on default_probes at basis 100, as the 80-digit mpmath
# whitening gave them
_FROZEN_GRAM = {
    (1, 2): (0.8660254037844071, 1.9999993494303092, 1.9999993494303092,
             1.0825317547305053, 0.2914959091846203),
    (9, 10): (0.5544557340246328, 1.105154345286991, 1.1051543452875356,
              0.7889607076995031, 0.4567929066956377),
}


@pytest.mark.parametrize("q", sorted(_FROZEN_GRAM))
def test_gram_oracle_frozen_values(q):
    alg = make_algebra(*q)
    act = UqActions(alg)
    got = tuple(lip_norm_gram_oracle(act, x, basis_size=100).lower_bound
                for x in default_probes(alg))
    assert got == _FROZEN_GRAM[q]


@pytest.mark.parametrize("q", [(1, 2), (1, 8), (2, 3)])
def test_gram_whitening_rounds_the_120_digit_value(q, monkeypatch):
    # every entry c / sqrt(s1 s2) of the oracle's matrices, whitened in
    # fixed point and rounded once, is the 120-digit value rounded; the
    # probes' symbols are rational or imaginary, so one more carries sqrt(q)
    alg = make_algebra(*q)
    act = UqActions(alg)
    ctx = mpmath.mp.clone()
    ctx.dps = 120
    root = ctx.sqrt(alg.field.m)
    norms, entries, mats = {}, [], []
    inv_sqrt, whitened = alg.field.inv_sqrt, ExactScalar.whitened
    top = specnorm.top_singular_triplet

    def spy_root(s):
        norms[inv_sqrt(s)] = s.as_fraction()
        return inv_sqrt(s)

    def spy_whitened(c, r1, r2):
        entries.append((c, r1, r2, whitened(c, r1, r2)))
        return entries[-1][-1]

    monkeypatch.setattr(alg.field, "inv_sqrt", spy_root)
    monkeypatch.setattr(ExactScalar, "whitened", spy_whitened)
    monkeypatch.setattr(specnorm, "top_singular_triplet",
                        lambda T, TH: mats.append(T) or top(T, TH))
    surd = alg.sphere_A + (alg.sphere_B + alg.sphere_B_star).scale(
        alg.field.sqrt_q)
    surds = 0
    for x in default_probes(alg) + [surd]:
        entries.clear()
        mats.clear()
        lip_norm_gram_oracle(act, x, basis_size=100)
        assert entries
        for c, r1, r2, z in entries:
            s = norms[r1] * norms[r2]
            scale = c.den * ctx.sqrt(ctx.mpf(s.numerator) / s.denominator)
            assert z == complex(ctx.mpc(c.a + c.c * root, c.b + c.d * root)
                                / scale)
            surds += bool(c.c or c.d)
        got = [z for T in mats for z in T.entries()[2].tolist()]
        assert sorted(got, key=_reim) == sorted(
            (z for *_, z in entries), key=_reim)
    assert surds


def test_gram_whitening_overflow_raises(half):
    # an exact entry beyond the double range overflows its int / int
    # rounding, which the oracle reports instead of returning inf
    alg, act = half
    p1, _ = act.dirac_components(alg.sphere_A)
    with pytest.raises(RuntimeError, match="whitened operator matrix"):
        specnorm._mult_op_sigma(alg, p1.scale(alg.field.from_rational(
            10 ** 400)), 1, 10)


def _reim(z):
    return (z.real, z.imag)


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
    alg = make_algebra_float(0.9)
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


DELTA = specnorm._LANCZOS_TOL
ROUNDOFF = 1e-14     # the dense SVD's own relative error, generously


def _spy_bracket(monkeypatch):
    """Record the D.shape of every _bracket call: every top that neither
    the residual stop nor the character-norm certificate resolves."""
    calls = []
    bracket = specnorm._bracket

    def spied(D, U, lo):
        calls.append(D.shape)
        return bracket(D, U, lo)

    monkeypatch.setattr(specnorm, "_bracket", spied)
    return calls


def _assert_bracketed(sigma, dense, label):
    """sigma is the bracket's lower end: at most 2 delta below the dense
    SVD, and above it by no more than the SVD's own roundoff."""
    assert dense * (1 - 2 * DELTA - ROUNDOFF) <= sigma, label
    assert sigma <= dense * (1 + ROUNDOFF), label


@pytest.mark.parametrize("q, cases, bracketed", [
    ((1, 2), [("A", 0), ("B + Bs", 0), ("A*B + Bs*A", 1), ("B + 2*Bs", 0)],
     False),
    ((9, 10), [("A", 0), ("A*B + Bs*A", 0), ("B*A^2 + Bs^2*A", 2),
               ("3*A - B + Bs", 1), ("A^3 + B^2*Bs", 1)], False),
    # tops with 69 to 146 singular values within 1e-12 of the largest:
    # Lanczos cannot resolve them within its step budget
    ((9, 10), [(t, 1) for t in CLUSTERED] + [("B + 2*Bs", 0)], True),
], ids=["converging-q1/2", "converging-q9/10", "clustered-q9/10"])
def test_dominant_sigma_both_routes(monkeypatch, q, cases, bracketed):
    alg = make_algebra(*q)
    act = UqActions(alg)
    ber = Berezin(GnsContext(alg, act))
    calls = _spy_bracket(monkeypatch)
    trunc = RepTruncation(q[0] / q[1], 200, 0.0)
    for text, level in cases:
        y = parse_expression(alg, text)
        if level:
            y = ber.via_coproduct(y, level)
        mat = delta_block_matrix(act, y, trunc)
        calls.clear()
        sigma, converged = specnorm.dominant_sigma(mat)
        assert converged
        assert len(calls) == bracketed, (text, level)
        want = np.linalg.svd(mat.toarray(), compute_uv=False)[0]
        if bracketed:
            _assert_bracketed(sigma, want, (text, level))
        else:
            assert sigma == pytest.approx(want, rel=1e-12, abs=0), (text,
                                                                     level)


def test_dominant_sigma_of_zero(monkeypatch, no_densify):
    calls = _spy_bracket(monkeypatch)
    with np.errstate(all="raise"):
        for n in (1, 2, 40):
            zero = from_csr(sparse.csr_matrix((n, n), dtype=complex))
            assert specnorm.dominant_sigma(zero) == (0.0, True)
    assert calls == []


def test_converging_seminorm_is_never_densified(half, no_densify):
    # the ladder's matrices at q = 1/2 all converge within the Lanczos
    # budget, so no dense matrix and no dense SVD is ever formed
    alg, act = half
    r = lip_norm(act, alg.sphere_A, 200)
    assert r.value.lower_bound == pytest.approx(math.sqrt(3) / 2, rel=1e-9)
    assert r.value.converged


# -- clustered tops certified at the character norm ---------------------------

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


def _spy_norm_below(monkeypatch):
    calls = []
    below = specnorm._norm_below

    def spied(D, U, t):
        calls.append(t)
        return below(D, U, t)

    monkeypatch.setattr(specnorm, "_norm_below", spied)
    return calls


def test_certified_calls_stop_early(monkeypatch, nine_tenths,
                                    fallback_images):
    # their Ritz values are still 1.4e-5 to 1.4e-4 below c^2 at step 16, so
    # the certificate runs there, once, instead of after the 64-step budget
    _alg, act = nine_tenths
    steps = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        steps.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    factored = _spy_norm_below(monkeypatch)
    for (text, level), y in zip(FALLBACK, fallback_images):
        c = specnorm._character_norm(act.delta_matrix(y))
        steps.clear()
        factored.clear()
        est = lip_norm(act, y, 200, ladder=False).value
        assert len(steps) <= specnorm._LANCZOS_STEPS // 4, (text, level)
        assert len(factored) == 2, (text, level)
        assert est.lower_bound == c * (1 - DELTA), (text, level)


# q = 1/2 seminorms the distance round scores whose top sits at the
# character norm to 1e-14: Lanczos resolves them in 25 steps, and at step 16
# their Ritz values are already within 3.3e-12 of c^2; the frozen values
# are those of the residual stop
AT_CHARACTER_NORM = [
    ("B + Bs", 0, 1.9999999999999851), ("B + Bs", 1, 1.5238095238095122),
    ("B + Bs", 2, 1.8823529411764564), ("i*(B - Bs)", 0, 1.999999999999981),
    ("i*(B - Bs)", 1, 1.523809523809509),
    ("i*(B - Bs)", 2, 1.8823529411764521)]


def test_converging_top_at_character_norm_is_not_certified(monkeypatch,
                                                           half):
    # certified at step 16, these would read c (1 - delta) instead
    alg, act = half
    ber = Berezin(GnsContext(alg, act))
    factored = _spy_norm_below(monkeypatch)
    for text, level, frozen in AT_CHARACTER_NORM:
        y = parse_expression(alg, text)
        if level:
            y = ber.via_coproduct(y, level)
        est = lip_norm(act, y, 200, ladder=False).value
        assert est.lower_bound == frozen, (text, level)
    assert factored == []


def test_clustered_seminorm_is_never_densified(monkeypatch, nine_tenths,
                                               fallback_images, no_densify):
    # certified at step 16: no bracket either
    _alg, act = nine_tenths
    calls = _spy_bracket(monkeypatch)
    for y in fallback_images:
        est = lip_norm(act, y, 200, ladder=False).value
        assert est.converged and est.lower_bound > 0
    assert calls == []


def test_certified_value_is_within_two_delta_below_dense(nine_tenths,
                                                         fallback_images):
    _alg, act = nine_tenths
    for (text, level), y in zip(FALLBACK, fallback_images):
        lo = lip_norm(act, y, 200, ladder=False).value.lower_bound
        mat = delta_block_matrix(act, y, RepTruncation(0.9, 200, 0.0))
        dense = np.linalg.svd(mat.toarray(), compute_uv=False)[0]
        assert lo <= dense * (1 + ROUNDOFF), (text, level)
        assert dense <= lo * (1 + 2 * DELTA + ROUNDOFF), (text, level)


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
    P = from_csr(T)
    D, U = specnorm._site_gram_blocks(P, P.adjoint(), M)
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


def _scipy_site_gram_blocks(T, M):
    """specnorm._site_gram_blocks on scipy's product T^H T, as it ran
    before the program dropped scipy."""
    G = (T.conj().T @ T).tocoo()
    n, r = G.shape[0], G.shape[0] // M
    i, j = G.row % M * r + G.row // M, G.col % M * r + G.col // M
    b = max(1, int(np.abs(i - j).max(initial=0)))
    D = np.zeros((-(-n // b), b, b), dtype=complex)
    U = np.zeros_like(D)
    for out, keep in ((D, i // b == j // b), (U, j // b == i // b + 1)):
        out[i[keep] // b, i[keep] % b, j[keep] % b] = G.data[keep]
    return D, U


def test_site_gram_blocks_are_the_scipy_product(nine_tenths,
                                                fallback_images):
    # same D and U bytes, so the same bandwidth and factorizations: on
    # the 7 certified matrices of a contraction round and on the M = 1600
    # rung of B + Bs at q = 99/100, which are real; on seeded complex
    # grids, where a fused multiply-add would move bits; and on
    # [[I, S], [I, -S]], whose exact-zero sums S - S must be dropped, as
    # scipy drops them, or the bandwidth would grow from 1 to 7
    _alg, act = nine_tenths
    cases = [(delta_block_matrix(act, y, RepTruncation(0.9, 200, 0.0)), 200)
             for y in fallback_images]
    alg99 = make_algebra(99, 100)
    cases.append((delta_block_matrix(
        UqActions(alg99), parse_expression(alg99, "B + Bs"),
        RepTruncation(0.99, 1600, 0.0)), 1600))
    for M, r, width in ((37, 2, 2), (23, 3, 1)):
        cases.append((from_csr(_interleaved_banded(
            np.random.default_rng([M, r, width]), M, r, width)), M))
    eye, shift = sparse.identity(10), sparse.eye(10, k=3)
    cases.append((from_csr(sparse.bmat([[eye, shift], [eye, -shift]],
                                       format="csr")), 10))
    assert specnorm._site_gram_blocks(cases[-1][0], cases[-1][0].adjoint(),
                                      10)[0].shape == (20, 1, 1)
    for mat, M in cases:
        got = specnorm._site_gram_blocks(mat, mat.adjoint(), M)
        want = _scipy_site_gram_blocks(as_csr(mat), M)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("factor", [1 + 1e-9, 1 - 1e-9])
def test_off_candidate_is_refused(monkeypatch, nine_tenths, fallback_images,
                                  factor):
    # a candidate 1e-9 away from the character norm cannot be certified
    # at delta = 1e-12, so the bracket answers, in the site-by-site blocks
    _alg, act = nine_tenths
    calls = _spy_bracket(monkeypatch)
    for (text, level), y in zip(FALLBACK, fallback_images):
        c = specnorm._character_norm(act.delta_matrix(y))
        mat = delta_block_matrix(act, y, RepTruncation(0.9, 200, 0.0))
        calls.clear()
        sigma, converged = specnorm.dominant_sigma(mat, c * factor, 200)
        assert converged and len(calls) == 1, (text, level)
        assert calls[0][1] <= 4, (text, level)     # bandwidth
        _assert_bracketed(
            sigma, np.linalg.svd(mat.toarray(), compute_uv=False)[0],
            (text, level))


def test_top_below_character_norm_is_bracketed(monkeypatch):
    # B + Bs at q = 99/100, M = 100: sigma 1.0100240... lies below the
    # character norm 1/q, so the certificate refuses and the bracket
    # answers, within 2 delta of the dense SVD's 1.0100240205873896
    alg = make_algebra(99, 100)
    act = UqActions(alg)
    y = parse_expression(alg, "B + Bs")
    assert specnorm._character_norm(act.delta_matrix(y)) == pytest.approx(
        100 / 99, rel=1e-15)
    calls = _spy_bracket(monkeypatch)
    factored = _spy_norm_below(monkeypatch)
    est = lip_norm(act, y, 100, ladder=False).value
    assert len(calls) == 1
    # refused at step 16 by its 2 factorizations; the bracket needs more
    assert len(factored) > 2
    mat = delta_block_matrix(act, y, RepTruncation(0.99, 100, 0.0))
    dense = np.linalg.svd(mat.toarray(), compute_uv=False)[0]
    assert dense == pytest.approx(1.0100240205873896, rel=1e-13)
    _assert_bracketed(est.lower_bound, dense, "B + Bs")


@pytest.mark.parametrize("M, r, width", [
    (2, 2, 1), (37, 2, 2), (48, 1, 3), (23, 3, 1)])
def test_bracket_contains_the_top(M, r, width):
    T = _interleaved_banded(np.random.default_rng([M, r, width]), M, r, width)
    dense = np.linalg.svd(T.toarray(), compute_uv=False)[0]
    P = from_csr(T)
    D, U = specnorm._site_gram_blocks(P, P.adjoint(), M)
    # from no information, from far below, and from just below the top
    for start in (0.0, dense / 2, dense * (1 - 1e-6)):
        lo, hi = specnorm._bracket(D, U, start)
        assert lo <= dense * (1 + ROUNDOFF) and dense <= hi * (1 + ROUNDOFF)
        assert 0 < hi - lo <= DELTA * lo, (start, lo, hi)
    assert specnorm._bracket(0 * D, 0 * U, 0.0) == (0.0, 0.0)


def test_bracket_routes_never_densify(monkeypatch, nine_tenths, no_densify):
    # the ladder's lower rungs, a clustered operator norm and a Gram
    # oracle matrix: each reaches the bracket, and none forms a dense
    # matrix or a dense SVD
    alg99 = make_algebra(99, 100)
    act99 = UqActions(alg99)
    calls = _spy_bracket(monkeypatch)
    est = lip_norm(act99, parse_expression(alg99, "B + Bs"), 100).value
    assert est.converged and len(calls) == 4
    assert est.ladder[0] == (100, pytest.approx(1.0100240205873896,
                                                rel=2 * DELTA))
    alg, act = nine_tenths
    y = Berezin(GnsContext(alg, act)).via_coproduct(
        parse_expression(alg, "A - A^2"), 1)
    calls.clear()
    assert operator_norm(y, 200, ladder=False).lower_bound > 0
    assert len(calls) == 1
    calls.clear()
    est = lip_norm_gram_oracle(act, parse_expression(alg, "B + Bs"), 100)
    assert est.lower_bound > 0 and len(calls) == 2


def test_ladder_stop_is_scale_free():
    # the stop is relative: scaling x by 1e-9 or 1e9 climbs the same
    # rungs and scales the value; an absolute floor of 1e-8 once stopped
    # 1e-9*(B + Bs) at M=200
    alg = make_algebra(99, 100)
    act = UqActions(alg)
    x = parse_expression(alg, "B + Bs")
    base = lip_norm(act, x, 100).value
    rungs = 1600
    assert base.converged and base.M_used == rungs
    for scale in (Fraction(1, 10 ** 9), Fraction(10 ** 9)):
        est = lip_norm(act, x.scale(alg.field.from_rational(scale)), 100).value
        assert est.converged and est.M_used == rungs, scale
        assert est.lower_bound == pytest.approx(
            float(scale) * base.lower_bound, rel=1e-12), scale


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


def _assert_same_csr(mat, want):
    """mat's stored entries, as a CSR, have want's arrays byte for byte."""
    got = as_csr(mat)
    assert got.has_canonical_format
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _assert_same_products(mat, want):
    """T @ v and T^H @ w, also after the ladder's power-of-two scaling,
    are scipy's CSR and CSC products byte for byte."""
    n = want.shape[0]
    rng = np.random.default_rng([n, want.nnz])
    v, w = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for _ in range(2))
    for T, ref in ((mat, want), (mat * 2.0 ** -7, want * 2.0 ** -7)):
        assert (T @ v).tobytes() == (ref @ v).tobytes()
        assert (T.adjoint() @ w).tobytes() == (ref.conj().T @ w).tobytes()


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
    # the one-pass assembly has the entries of the per-monomial sparse
    # sums and sparse.bmat, and its products are scipy's: the Lanczos
    # kernel's bits depend on both
    alg = make_algebra(*q)
    act = UqActions(alg)
    trunc = RepTruncation(q[0] / q[1], M, theta)
    rng = np.random.default_rng([M, int(10 * theta), q[1]])
    for _ in range(4):
        x = _random_element(alg, rng, M - 1)
        mat, want = represent_element(x, trunc), _reference_element(x, trunc)
        _assert_same_csr(mat, want)
        _assert_same_products(mat, want)
        y = _random_sphere_element(alg, rng, 1 if M == 2 else 3)
        entries = act.delta_matrix(y)
        if any(abs(m.a_exp) >= M for row in entries for e in row
               for m in e.terms):
            continue
        want = sparse.bmat([[_reference_element(e, trunc) for e in row]
                            for row in entries], format="csr")
        mat = delta_block_matrix(act, y, trunc)
        _assert_same_csr(mat, want)
        _assert_same_products(mat, want)


@pytest.mark.parametrize("M", [2, 3, 5])
def test_shift_beyond_truncation_is_zero(half, M):
    # a^k and a*^k with k >= M move every basis vector out of the
    # truncation, so their compression is the zero matrix
    alg, _ = half
    trunc = RepTruncation(0.5, M, 0.3)
    for k in (M, M + 1, 2 * M + 3):
        for x in (alg.a ** k, alg.a_star ** k):
            mat = represent_element(x, trunc)
            assert mat.shape == (M, M) and as_csr(mat).nnz == 0
    # the in-range terms of a mixed element are untouched
    x = alg.a ** (M + 1) + alg.b
    _assert_same_csr(represent_element(x, trunc),
                     _reference_element(alg.b, trunc))
