"""Lower bounds for the state distance between the level-N twisted state
and the counit.

The distance between two states, taken over the Lip unit ball, is bounded
from below by the ratio |h_N(x) - eps(x)| / L(x) at any nonscalar
selfadjoint x.  This module searches for good witnesses x inside the
selfadjoint part of a fuzzy-basis span by projected subgradient ascent,
and packages the smooth-approximant construction (transform the element,
compare seminorms and norms) as a checkable report.

Only lower bounds are produced; upper bounds would need a dual
Lipschitz-extension argument and are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .qhopf import AlgebraElement
from .berezin import Berezin
from . import specnorm
from .specnorm import (
    RepTruncation,
    coefficient_sum_bound,
    delta_block_grid,
    delta_block_matrix,
    lip_norm,
    lip_upper_bound,
    operator_norm,
)

_TINY = 1e-300


@dataclass(frozen=True)
class OptimizationProblem:
    """Search configuration for one distance lower bound.

    N is the level of the twisted state, M the fuzzy truncation whose
    selfadjoint span is searched, norm_truncation the representation
    size used for seminorm values.  certified mode divides by the crude
    upper bound of the Lip seminorm, so the reported value is a true
    lower bound of the distance; heuristic mode divides by the
    truncated-representation lower bound.
    """

    N: int
    M: int
    norm_truncation: int = 100
    mode: str = "certified"
    restarts: int = 8
    max_iters: int = 150
    step_schedule: tuple = (1.0, 0.05)
    seed: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("level N must be >= 1")
        if self.M < 1:
            raise ValueError("search truncation M must be >= 1")
        if self.mode not in ("certified", "heuristic"):
            raise ValueError("mode must be certified or heuristic")


@dataclass(frozen=True)
class DistanceEstimate:
    """One witness-based lower bound, with the post-hoc recomputed value.

    value is |h_N(witness) - eps(witness)| divided by the mode's
    seminorm scale, recomputed from the exact witness element after the
    search.  coords are the float coordinates of the search optimum in
    the canonical selfadjoint basis; they seed warm starts at larger M.
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


def objective_value(ber: Berezin, x: AlgebraElement, N: int, mode: str,
                    norm_truncation: int) -> float:
    """|h_N(x) - eps(x)| over the mode's Lip scale, from the element alone."""
    alg = ber.alg
    num = abs(_real_value(ber.h_twisted(x, N) - alg.counit(x)))
    actions = ber.gns.actions
    if mode == "certified":
        den = lip_upper_bound(actions, x)
    else:
        den = lip_norm(actions, x, norm_truncation,
                       ladder=False).value.lower_bound
    if den <= 1e-14:
        raise ValueError("scalar element: Lip scale vanishes")
    return num / den


class _ShiftDenominator:
    """Truncated-representation seminorm of coordinate combinations.

    The one singular-value routine besides specnorm.dominant_sigma.  The
    ascent calls it thousands of times on slowly moving combinations,
    and its power loop, warm-started from the previous right vector,
    costs about 1.3 ms a call against about 28 ms for a dense SVD with
    singular vectors (400-dimensional block matrix at q = 1/2, M = 4,
    one BLAS thread on an AMD EPYC core).
    """

    def __init__(self, actions, basis: Sequence[AlgebraElement], M: int):
        q = basis[0].alg.field.float_q()
        trunc = RepTruncation(q, M, 0.0)
        self.mats = [delta_block_matrix(actions, u, trunc) for u in basis]
        self.n = self.mats[0].shape[0]

    def sigma_and_grad(self, c: np.ndarray, v0=None):
        T = self.mats[0] * c[0]
        for cr, D in zip(c[1:], self.mats[1:]):
            if cr != 0.0:
                T = T + D * cr
        TH = T.conj().transpose().tocsr()
        v = v0 if v0 is not None else np.ones(self.n, dtype=complex)
        nv = np.linalg.norm(v)
        if nv == 0:
            v = np.ones(self.n, dtype=complex)
            nv = np.linalg.norm(v)
        v = v / nv
        sigma = 0.0
        u = np.zeros(self.n, dtype=complex)
        for _ in range(500):
            u = T @ v
            su = np.linalg.norm(u)
            if su < _TINY:
                return 0.0, np.zeros(len(self.mats)), v
            u = u / su
            w = TH @ u
            sw = np.linalg.norm(w)
            if sw < _TINY:
                return 0.0, np.zeros(len(self.mats)), v
            v = w / sw
            if abs(sw - sigma) <= 1e-12 * max(sw, 1.0):
                sigma = sw
                break
            sigma = sw
        grad = np.array([np.real(np.vdot(u, D @ v)) for D in self.mats])
        return float(sigma), grad, v


class _GridDenominator:
    """Classical-limit seminorm: pointwise 2x2 blocks on the sphere grid."""

    def __init__(self, actions, basis: Sequence[AlgebraElement]):
        self.G = np.stack([delta_block_grid(actions, u) for u in basis])

    def sigma_and_grad(self, c: np.ndarray, v0=None):
        T = np.tensordot(c, self.G, axes=1)
        svals = np.linalg.svd(T, compute_uv=False)
        p = int(np.argmax(svals[:, 0]))
        U, S, Vh = np.linalg.svd(T[p])
        u, v = U[:, 0], Vh[0].conj()
        grad = np.real(np.einsum("i,rij,j->r", u.conj(), self.G[:, p], v))
        return float(S[0]), grad, None


class _UpperDenominator:
    """Crude certified Lip scale of coordinate combinations.

    2 * max over the four derivation-matrix entries of the coefficient
    sum; piecewise linear in the coordinates, so subgradient ascent on
    the certified ratio uses the active entry's sign pattern.
    """

    def __init__(self, actions, basis: Sequence[AlgebraElement]):
        per_entry: list = [dict() for _ in range(4)]
        self.dim = len(basis)
        for r, u in enumerate(basis):
            ent = actions.delta_matrix(u)
            flat = [ent[0][0], ent[0][1], ent[1][0], ent[1][1]]
            for k, e in enumerate(flat):
                for mono, coeff in e.terms.items():
                    col = per_entry[k].setdefault(
                        mono, np.zeros(self.dim, dtype=complex))
                    col[r] = complex(coeff.to_complex())
        self.E = []
        for k in range(4):
            monos = sorted(per_entry[k])
            if monos:
                self.E.append(np.stack([per_entry[k][m] for m in monos],
                                       axis=1))
            else:
                self.E.append(np.zeros((self.dim, 0), dtype=complex))

    def sigma_and_grad(self, c: np.ndarray, v0=None):
        sums, zs = [], []
        for E in self.E:
            z = c @ E
            zs.append(z)
            sums.append(float(np.abs(z).sum()))
        k = int(np.argmax(sums))
        sigma = 2.0 * sums[k]
        z = zs[k]
        az = np.abs(z)
        phase = np.where(az > 1e-300, z / np.where(az > 1e-300, az, 1.0), 0.0)
        grad = 2.0 * np.real(self.E[k] @ phase.conj())
        return sigma, grad, None


def _rationalize(coords: np.ndarray, basis: Sequence[AlgebraElement],
                 max_den: int = 10 ** 9) -> AlgebraElement:
    alg = basis[0].alg
    scale = float(np.abs(coords).max())
    out = None
    for cr, u in zip(coords, basis):
        fr = Fraction(float(cr) / scale).limit_denominator(max_den)
        if fr == 0:
            continue
        term = u.scale(alg.field.from_rational(fr.numerator, fr.denominator))
        out = term if out is None else out + term
    if out is None:
        raise ValueError("witness rationalized to zero")
    return out


def _ascend(eta: np.ndarray, denom, c0: np.ndarray, max_iters: int,
            step_schedule: tuple) -> tuple:
    """Projected subgradient ascent on |eta . c| / sigma(c).

    Polyak-style steps against a moving target slightly above the best
    value seen; coordinates are renormalized every step, which is the
    projection implementing scale invariance of the ratio.
    """
    scale, growth = step_schedule
    c = c0 / max(np.linalg.norm(c0), _TINY)
    v_warm = None
    best_f, best_c = -1.0, c.copy()
    trace = []
    for _ in range(max_iters):
        num = float(eta @ c)
        sigma, gsig, v_warm = denom.sigma_and_grad(c, v_warm)
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


def estimate_distance(ber: Berezin, problem: OptimizationProblem,
                      warm: DistanceEstimate | None = None,
                      basis: Sequence[AlgebraElement] | None = None,
                      probes: Sequence[AlgebraElement] | None = None
                      ) -> DistanceEstimate:
    """Search the selfadjoint fuzzy span for a distance witness.

    The ascent itself runs on the truncated-representation ratio; the
    reported value is recomputed from the exact witness element in the
    requested mode, so certified values stay true lower bounds.  The
    candidate pool always contains the probe suite (restricted to the
    span's degree), so the result dominates the trivial witnesses; if no
    restart beats them the probe bound is returned with degraded=True.
    """
    gns = ber.gns
    alg = gns.alg
    actions = gns.actions
    if basis is None:
        basis = selfadjoint_basis(gns, problem.M)
    basis = [_canonical_rescale(u) for u in basis]
    dim = len(basis)

    eta = np.array([
        _real_value(ber.h_twisted(u, problem.N) - alg.counit(u))
        for u in basis
    ])
    q = alg.field.float_q()
    if q == 1.0:
        denom_low = _GridDenominator(actions, basis)
    else:
        denom_low = _ShiftDenominator(actions, basis,
                                      problem.norm_truncation)
    denom_up = _UpperDenominator(actions, basis)

    starts = []
    if np.linalg.norm(eta) > 0:
        starts.append(("eta", eta.copy()))
    if warm is not None and warm.coords and len(warm.coords) <= dim:
        c = np.zeros(dim)
        c[:len(warm.coords)] = warm.coords
        if np.linalg.norm(c) > 0:
            starts.append(("warm", c))
    r = 0
    while len(starts) < problem.restarts:
        rng = np.random.default_rng([problem.seed, r])
        starts.append((f"restart{r}", rng.standard_normal(dim)))
        r += 1

    # both objective flavors run on every start, so the candidate pool,
    # hence the certified <= heuristic comparison, does not depend on
    # the requested mode
    candidates = []
    for tag, c0 in starts:
        for kind, denom in (("heur", denom_low), ("cert", denom_up)):
            f, c, trace = _ascend(eta, denom, c0, problem.max_iters,
                                  problem.step_schedule)
            if f > 0:
                witness = _rationalize(c, basis)
                candidates.append((f"{tag}-{kind}", witness, tuple(c),
                                   tuple(trace)))

    if probes is None:
        probes = default_probes(alg)
    for j, p in enumerate(probes):
        if p.sphere_degree() <= problem.M:
            candidates.append((f"probe{j}", p, (), ()))

    if not candidates:
        raise ValueError("no usable witness candidates")

    scored = []
    for tag, w, coords, trace in candidates:
        num = abs(_real_value(ber.h_twisted(w, problem.N) - alg.counit(w)))
        upper = lip_upper_bound(actions, w)
        lower = lip_norm(actions, w, problem.norm_truncation,
                         ladder=False).value.lower_bound
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
                          truncation: int | None = None) -> ApproximantReport:
    """Smooth approximant of x at level N with seminorm and norm slacks.

    The approximant is the level-N transform; its Lip seminorm never
    exceeds that of x (lip_slack >= 0 up to estimator noise) and the
    norm of the difference quantifies the approximation error.
    """
    actions = ber.gns.actions
    y = ber.via_coproduct(x, N)
    if truncation is None:
        truncation = specnorm.default_truncation(x)
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
