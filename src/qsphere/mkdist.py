"""Lower bounds for the state distance between the level-N twisted state
and the counit.

The distance between two states, taken over the Lip unit ball, is bounded
from below by the ratio |h_N(x) - eps(x)| / L(x) at any nonscalar
selfadjoint x.  This module searches for good witnesses x inside the
selfadjoint part of a fuzzy-basis span by projected subgradient ascent,
and packages the smooth-approximant construction (transform the element,
compare seminorms and norms) as a checkable report.  Each start runs one
ascent on the truncated ratio, reading the seminorm and its gradient off
specnorm's top-singular-triplet kernel, the one behind every seminorm
value, so the value an ascent keeps as its best is the one its witness
scores.  The ascent witnesses and the probe elements are then scored
both ways, certified and truncated, from one seminorm call each.

Only lower bounds are produced; upper bounds would need a dual
Lipschitz-extension argument and are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy import sparse

from .qhopf import AlgebraElement
from .berezin import Berezin
from .specnorm import (
    RepTruncation,
    delta_block_grid,
    delta_block_matrix,
    lip_norm,
    lip_upper_bound,
    operator_norm,
    top_singular_triplet,
)

_TINY = 1e-300

# raised whenever a change moves the search's floating-point path, hence
# its values; sweep cache keys carry it, so cells cached by an older
# search are recomputed rather than served beside new ones
SEARCH_VERSION = 3


@dataclass(frozen=True)
class OptimizationProblem:
    """Search configuration for one distance lower bound.

    N is the level of the twisted state, M the fuzzy truncation whose
    selfadjoint span is searched, norm_truncation the representation
    size used for seminorm values.  The search is the same in both
    modes: one truncated-ratio ascent per start, plus the probes.
    certified mode divides by the crude upper bound of the Lip
    seminorm, so the reported value is a true lower bound of the
    distance; heuristic mode divides by the truncated-representation
    lower bound.
    """

    N: int
    M: int
    norm_truncation: int = 100
    mode: str = "certified"
    restarts: int = 8
    max_iters: int = 150
    seed: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("level N must be >= 1")
        if self.M < 1:
            raise ValueError("search truncation M must be >= 1")
        if self.mode not in ("certified", "heuristic"):
            raise ValueError("mode must be certified or heuristic")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass(frozen=True)
class DistanceEstimate:
    """One witness-based lower bound, with the post-hoc recomputed value.

    value is |h_N(witness) - eps(witness)| divided by the mode's
    seminorm scale, recomputed from the exact witness element after the
    search.  coords are the float coordinates of the winning ascent's
    optimum in the canonical selfadjoint basis, empty for a probe.
    """

    value: float
    witness: AlgebraElement
    mode: str
    trace: tuple
    N: int
    M: int
    norm_truncation: int
    certified_value: float
    heuristic_value: float
    degraded: bool = False
    coords: tuple = ()
    source: str = "optimizer"


@dataclass(frozen=True)
class InequalityReport:
    ratio: float
    distance_value: float
    flagged: bool
    gap: float
    norm_lower: float
    lip_upper: float
    N: int
    truncation: int


@dataclass(frozen=True)
class ApproximantReport:
    approximant: AlgebraElement
    lip_slack: float
    dist_slack: float
    lip_x: float
    lip_y: float
    converged: bool


def _real_value(scal) -> float:
    z = complex(scal.to_complex())
    if abs(z.imag) > 1e-9 * (1.0 + abs(z)):
        raise ArithmeticError(f"expected a real value, got {z}")
    return z.real


def _canonical_rescale(u: AlgebraElement) -> AlgebraElement:
    """Divide by a real rational read off the leading coefficient.

    The divisor scales linearly under rational rescaling of u, so the
    result is exactly invariant under u -> s u for rational s != 0.
    Selfadjointness survives because the divisor is real.
    """
    lead = min(u.terms)
    c = u.terms[lead]
    if hasattr(c, "re"):
        for comp in (c.re, c.im, c.sre, c.sim):
            if comp != 0:
                inv = u.alg.field.from_rational(comp.denominator,
                                                comp.numerator)
                return u.scale(inv)
        raise ValueError("zero leading coefficient")
    ctx = u.alg.field.ctx
    re, im = ctx.re(c.val), ctx.im(c.val)
    pick = re if abs(re) > abs(im) else im
    if pick == 0:
        raise ValueError("zero leading coefficient")
    return u.scale(u.alg.field.from_float(1.0 / float(pick)))


def selfadjoint_basis(gns, M: int) -> list:
    """Real basis of the nonscalar selfadjoint part of the fuzzy span.

    Weight-0 vectors contribute their symmetrization, each positive
    weight vector contributes v + v* and i(v - v*); negative weights are
    the stars of these.  The unit is excluded, pinning the scalar
    component of every combination to 0.  Elements are canonically
    rescaled so that the basis, hence the search, is invariant under
    rational rescaling of the fuzzy vectors.
    """
    alg = gns.alg
    half = alg.field.from_rational(1, 2)
    i_unit = alg.field.from_parts(0, 1)
    out = []
    for vec in gns.fuzzy_basis(M).vectors:
        if vec.spin == 0 or vec.weight < 0:
            continue
        v = vec.element
        if vec.weight == 0:
            out.append(_canonical_rescale((v + v.star()).scale(half)))
        else:
            out.append(_canonical_rescale(v + v.star()))
            out.append(_canonical_rescale((v - v.star()).scale(i_unit)))
    return out


def default_probes(alg) -> list:
    """Standard witness samples: low-degree selfadjoint sphere elements
    with their scalar (Haar mean) part removed."""
    A, B, Bs = alg.sphere_A, alg.sphere_B, alg.sphere_B_star
    i_unit = alg.field.from_parts(0, 1)
    half = alg.field.from_rational(1, 2)
    raw = [
        A,
        B + Bs,
        (B - Bs).scale(i_unit),
        A * A,
        (A * B + Bs * A).scale(half),
    ]
    out = []
    for p in raw:
        p = p - alg.unit.scale(alg.haar(p))
        if not p.is_zero():
            out.append(p)
    return out


def _witness_scales(ber: Berezin, x: AlgebraElement, N: int,
                    norm_truncation: int) -> tuple:
    """(|h_N(x) - eps(x)|, certified Lip scale, truncated Lip scale).

    Both scales come from one lip_norm call: its upper_bound is the
    crude certified bound, its lower_bound the truncated seminorm.
    """
    num = abs(_real_value(ber.h_twisted(x, N) - ber.alg.counit(x)))
    est = lip_norm(ber.gns.actions, x, norm_truncation, ladder=False).value
    return num, est.upper_bound, est.lower_bound


def objective_value(ber: Berezin, x: AlgebraElement, N: int, mode: str,
                    norm_truncation: int) -> float:
    """|h_N(x) - eps(x)| over the mode's Lip scale, from the element alone."""
    num, upper, lower = _witness_scales(ber, x, N, norm_truncation)
    den = upper if mode == "certified" else lower
    if den <= 1e-14:
        raise ValueError("scalar element: Lip scale vanishes")
    return num / den


class _ShiftDenominator:
    """Truncated-representation seminorm of coordinate combinations.

    The ascent calls it thousands of times on slowly moving combinations;
    sigma(c) and its gradient come from specnorm.top_singular_triplet,
    about 0.55 ms and 11 to 12 Lanczos steps a call against about 30 ms
    for a dense SVD with vectors (q = 1/2, M = 4, norm truncation 200,
    one AMD EPYC core).  T(c) and the gradient are each one sparse
    product on a sparsity pattern fixed at construction, and the adjoint
    is a permutation of T(c)'s data.
    """

    def __init__(self, actions, basis: Sequence[AlgebraElement], M: int):
        q = basis[0].alg.field.float_q()
        trunc = RepTruncation(q, M, 0.0)
        self.mats = [delta_block_matrix(actions, u, trunc) for u in basis]
        n = self.n = self.mats[0].shape[0]
        # union sparsity pattern, keyed row * n + col in CSR order; S has
        # one row per pattern entry and one column per basis matrix, so
        # S @ c is the data of T(c), and the permutation takes the
        # pattern to the CSR order of the transpose
        keys = [np.repeat(np.arange(n), np.diff(D.indptr)) * n + D.indices
                for D in self.mats]
        mask = np.zeros(n * n, dtype=bool)
        for k in keys:
            mask[k] = True
        pattern = np.flatnonzero(mask)
        self.S = sparse.csr_matrix(
            (np.concatenate([D.data for D in self.mats]),
             (np.searchsorted(pattern, np.concatenate(keys)),
              np.repeat(np.arange(len(keys)), [len(k) for k in keys]))),
            shape=(len(pattern), len(keys)))
        self.ST = self.S.T.tocsr()
        self.rows, self.cols = np.divmod(pattern, n)
        self.perm = np.argsort(self.cols * n + self.rows)
        self.T = sparse.csr_matrix(
            (np.zeros(len(pattern), dtype=complex), self.cols,
             np.searchsorted(self.rows, np.arange(n + 1))), shape=(n, n))
        self.TH = sparse.csr_matrix(
            (np.zeros(len(pattern), dtype=complex), self.rows[self.perm],
             np.searchsorted(self.cols[self.perm], np.arange(n + 1))),
            shape=(n, n))

    def sigma_and_grad(self, c: np.ndarray):
        # T(c) = sum_r c_r D_r: each pattern entry sums its terms in
        # basis order, the roundings of sequential sparse adds
        T, TH = self.T, self.TH
        T.data[:] = self.S @ c
        np.conjugate(T.data[self.perm], out=TH.data)
        sigma, u, v = top_singular_triplet(T, TH, vectors=True)
        if sigma < _TINY:
            return 0.0, np.zeros(len(self.mats)), v
        # d sigma / d c_r = Re(u^H D_r v), summed over the pattern
        grad = (self.ST @ (u.conj()[self.rows] * v[self.cols])).real
        return sigma, grad, v


class _GridDenominator:
    """Classical-limit seminorm: pointwise 2x2 blocks on the sphere grid."""

    def __init__(self, actions, basis: Sequence[AlgebraElement]):
        self.G = np.stack([delta_block_grid(actions, u) for u in basis])

    def sigma_and_grad(self, c: np.ndarray):
        T = np.tensordot(c, self.G, axes=1)
        svals = np.linalg.svd(T, compute_uv=False)
        p = int(np.argmax(svals[:, 0]))
        U, S, Vh = np.linalg.svd(T[p])
        u, v = U[:, 0], Vh[0].conj()
        grad = np.real(np.einsum("i,rij,j->r", u.conj(), self.G[:, p], v))
        return float(S[0]), grad, None


def _rationalize(coords: np.ndarray,
                 basis: Sequence[AlgebraElement]) -> AlgebraElement:
    alg = basis[0].alg
    scale = float(np.abs(coords).max())
    out = None
    for cr, u in zip(coords, basis):
        fr = Fraction(float(cr) / scale).limit_denominator(10 ** 9)
        if fr == 0:
            continue
        term = u.scale(alg.field.from_rational(fr.numerator, fr.denominator))
        out = term if out is None else out + term
    if out is None:
        raise ValueError("witness rationalized to zero")
    return out


def _ascend(eta: np.ndarray, denom, c0: np.ndarray, max_iters: int) -> tuple:
    """Projected subgradient ascent on |eta . c| / sigma(c).

    Polyak-style steps against a moving target slightly above the best
    value seen; coordinates are renormalized every step, which is the
    projection implementing scale invariance of the ratio.
    """
    scale, growth = 1.0, 0.05
    c = c0 / max(np.linalg.norm(c0), _TINY)
    best_f, best_c = -1.0, c.copy()
    trace = []
    for _ in range(max_iters):
        num = float(eta @ c)
        sigma, gsig, _ = denom.sigma_and_grad(c)
        if sigma < 1e-14:
            f = -1.0
            g = eta.copy()
        else:
            f = abs(num) / sigma
            sgn = 1.0 if num >= 0 else -1.0
            g = (sgn * eta) / sigma - (f / sigma) * gsig
        trace.append(best_f if best_f > f else f)
        if f > best_f:
            best_f, best_c = f, c.copy()
        gn2 = float(g @ g)
        if gn2 < 1e-28:
            break
        target = best_f * (1.0 + growth) + 1e-12
        step = scale * max(target - f, 1e-12) / gn2
        c = c + step * g
        c = c / max(np.linalg.norm(c), _TINY)
    return best_f, best_c, trace


def estimate_distance(ber: Berezin,
                      problem: OptimizationProblem) -> DistanceEstimate:
    """Search the selfadjoint fuzzy span for a distance witness.

    The candidate pool is one truncated-ratio ascent per start (eta and
    seeded restarts) plus the probe suite restricted to the span's
    degree.  Every candidate is rescored from its exact element both
    ways, over the certified and over the truncated Lip scale, so
    certified values stay true lower bounds and the result dominates the
    trivial witnesses; if no ascent beats them the probe bound is
    returned with degraded=True.
    """
    gns = ber.gns
    alg = gns.alg
    actions = gns.actions
    basis = [_canonical_rescale(u) for u in selfadjoint_basis(gns, problem.M)]
    dim = len(basis)

    eta = np.array([
        _real_value(ber.h_twisted(u, problem.N) - alg.counit(u))
        for u in basis
    ])
    if alg.field.float_q() == 1.0:
        denom = _GridDenominator(actions, basis)
    else:
        denom = _ShiftDenominator(actions, basis, problem.norm_truncation)

    starts = []
    if np.linalg.norm(eta) > 0:
        starts.append(("eta", eta.copy()))
    r = 0
    while len(starts) < problem.restarts:
        rng = np.random.default_rng([problem.seed, r])
        starts.append((f"restart{r}", rng.standard_normal(dim)))
        r += 1

    # one ascent per start on the truncated ratio; the candidate pool,
    # hence the certified <= heuristic comparison, does not depend on
    # the requested mode
    candidates = []
    for tag, c0 in starts:
        f, c, trace = _ascend(eta, denom, c0, problem.max_iters)
        if f > 0:
            candidates.append((f"{tag}-heur", _rationalize(c, basis),
                               tuple(c), tuple(trace)))

    # the denominator holds every basis matrix and the assembly buffers;
    # release them before the seminorms of the scoring below
    del denom
    for j, p in enumerate(default_probes(alg)):
        if p.sphere_degree() <= problem.M:
            candidates.append((f"probe{j}", p, (), ()))

    if not candidates:
        raise ValueError("no usable witness candidates")

    scored = []
    for tag, w, coords, trace in candidates:
        num, upper, lower = _witness_scales(ber, w, problem.N,
                                            problem.norm_truncation)
        if upper <= 1e-14 or lower <= 1e-14:
            continue
        scored.append((tag, w, coords, trace, num / upper, num / lower))
    if not scored:
        raise ValueError("all witness candidates were scalar")

    cert_best = max(scored, key=lambda s: s[4])
    heur_best = max(scored, key=lambda s: s[5])
    pick = cert_best if problem.mode == "certified" else heur_best
    tag, witness, coords, trace, cval, hval = pick
    value = cval if problem.mode == "certified" else hval
    degraded = tag.startswith("probe")
    return DistanceEstimate(
        value=value,
        witness=witness,
        mode=problem.mode,
        trace=trace,
        N=problem.N,
        M=problem.M,
        norm_truncation=problem.norm_truncation,
        certified_value=cert_best[4],
        heuristic_value=heur_best[5],
        degraded=degraded,
        coords=coords,
        source="samples" if degraded else tag,
    )


def approx_inequality_check(ber: Berezin, x: AlgebraElement, N: int,
                            d_estimate: DistanceEstimate, trunc: int,
                            gap: float = 0.05) -> InequalityReport:
    """Certified transform-defect ratio of x against a distance estimate.

    r(x) = lower bound of the norm of x - (transform of x), divided by
    the certified upper bound of Lip(x).  An r(x) above the heuristic
    estimate plus the gap marks an estimator-quality event; it is never
    a contradiction, because both numbers are approximations from the
    same side.
    """
    alg = ber.alg
    if all(m.is_unit() for m in x.terms) or x.is_zero():
        raise ValueError("scalar elements have no Lip scale")
    upper = lip_upper_bound(ber.gns.actions, x)
    if upper <= 1e-14:
        raise ValueError("scalar elements have no Lip scale")
    y = ber.via_coproduct(x, N)
    diff = x - y
    norm_lower = operator_norm(diff, trunc, ladder=False).lower_bound
    ratio = norm_lower / upper
    reference = d_estimate.heuristic_value
    return InequalityReport(
        ratio=ratio,
        distance_value=d_estimate.value,
        flagged=ratio > reference + gap,
        gap=gap,
        norm_lower=norm_lower,
        lip_upper=upper,
        N=N,
        truncation=trunc,
    )


def theorem_b_approximant(ber: Berezin, x: AlgebraElement, N: int,
                          truncation: int) -> ApproximantReport:
    """Smooth approximant of x at level N with seminorm and norm slacks.

    The approximant is the level-N transform; its Lip seminorm never
    exceeds that of x (lip_slack >= 0 up to estimator noise) and the
    norm of the difference quantifies the approximation error.
    """
    actions = ber.gns.actions
    y = ber.via_coproduct(x, N)
    lx = lip_norm(actions, x, truncation, ladder=False).value
    ly = lip_norm(actions, y, truncation, ladder=False).value
    diff = x - y
    if diff.is_zero():
        dist = 0.0
        conv = lx.converged and ly.converged
    else:
        est = operator_norm(diff, truncation, ladder=False)
        dist = est.lower_bound
        conv = lx.converged and ly.converged and est.converged
    return ApproximantReport(
        approximant=y,
        lip_slack=lx.lower_bound - ly.lower_bound,
        dist_slack=dist,
        lip_x=lx.lower_bound,
        lip_y=ly.lower_bound,
        converged=conv,
    )
