"""Lower bounds for the state distance between the level-N twisted state
and the counit.

The distance between two states, taken over the Lip unit ball, is bounded
from below by the ratio |h_N(x) - eps(x)| / L(x) at any nonscalar
selfadjoint x.  The a-phase gauge a -> e^(i phi) a fixes h_N, eps and
A = b*b and conjugates the derivation matrix by a diagonal unitary, so
averaging a witness over it keeps the numerator and does not raise L:
the best witness in a fuzzy span lies in its charge-0 part, the
polynomials f(A) of degree at most M (the Monge-Kantorovich picture of
Rieffel, Metrics on state spaces, Doc. Math. 1999).  On f(A), d3
vanishes and d1, d2 are one offset diagonal each, so the truncated
derivation matrix of sum_j c_j u_j has one entry per row and column and
its norm is max |R c|, for a real matrix R read off the basis elements'
own derivation matrices.  The search is therefore one linear program,
maximize eta . c subject to |R c| <= 1, solved by a dense simplex whose
dual y (R^T y = eta, sum |y| = eta . c) certifies the optimum.

The optimal witness is rationalized and scored by lip_norm on its full
derivation matrix, a second route that never reads R; the probe
elements compete with it, and every candidate is scored both ways,
certified and truncated, from one seminorm call.  A projected
subgradient ascent over the whole selfadjoint span (_ascend on
_ShiftDenominator) stays as the test oracle: its value may not exceed
the charge-0 optimum.  The module also packages the smooth-approximant
construction (transform the element, compare seminorms and norms) as a
checkable report.

Only lower bounds are produced; upper bounds would need a dual
Lipschitz-extension argument and are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .qhopf import AlgebraElement
from .berezin import Berezin
from .specnorm import (
    NormEstimate,
    PaddedRows,
    RepTruncation,
    delta_block_grid,
    delta_block_matrix,
    lip_norm,
    operator_norm,
    row_slots,
    top_singular_triplet,
)

_TINY = 1e-300
# the derivation blocks of charge-0 elements share one phase per entry:
# exactly below q = 1, to 1.2e-15 on the q = 1 grid
_PHASE_TOL = 1e-12
# reduced costs and pivots of the simplex, in units of the constraint |R c| <= 1
_LP_TOL = 1e-12
_LP_MAX_PIVOTS = 1000


@dataclass(frozen=True)
class DistanceEstimate:
    """One witness-based lower bound, with the post-hoc recomputed value.

    value is |h_N(witness) - eps(witness)| divided by the mode's
    seminorm scale, recomputed from the exact witness element after the
    search.  coords are the float coordinates of the linear program's
    optimum in the charge-0 basis, empty for a probe.
    """

    value: float
    witness: AlgebraElement
    certified_value: float
    heuristic_value: float
    degraded: bool = False
    coords: tuple = ()
    source: str = "lp"


class ChargeZeroLP(NamedTuple):
    """The charge-0 search at one level: maximize eta . coords subject to
    |rows @ coords| <= 1 over the basis, with the dual certificate
    rows^T dual = eta, sum |dual| = eta . coords.  value is the ratio
    eta . coords / max |rows @ coords|, the optimum of the truncated
    seminorm ratio over the span."""

    basis: tuple
    rows: np.ndarray
    eta: np.ndarray
    coords: np.ndarray
    dual: np.ndarray
    value: float


@dataclass(frozen=True)
class InequalityReport:
    ratio: float
    flagged: bool
    approximant: ApproximantReport


@dataclass(frozen=True)
class ApproximantReport:
    approximant: AlgebraElement
    lip_slack: float
    dist_slack: float


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


def selfadjoint_basis(gns, M: int, charge_zero: bool = False) -> list:
    """Real basis of the nonscalar selfadjoint part of the fuzzy span.

    Weight-0 vectors contribute their symmetrization, each positive
    weight vector contributes v + v* and i(v - v*); negative weights are
    the stars of these.  charge_zero keeps the weight-0 vectors alone,
    the orthogonal polynomials in A of degrees 1..M.  The unit is
    excluded, pinning the scalar component of every combination to 0.
    Elements are canonically rescaled so that the basis, hence the
    search, is invariant under rational rescaling of the fuzzy vectors.
    """
    alg = gns.alg
    half = alg.field.from_rational(1, 2)
    i_unit = alg.field.from_parts(0, 1)
    out = []
    for vec in gns.fuzzy_basis(M):
        if vec.spin == 0 or vec.weight < 0 or (charge_zero and vec.weight):
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


# -- the charge-0 linear program ----------------------------------------------


def _real_rows(V: np.ndarray) -> np.ndarray:
    """V with each row turned by the phase of its largest entry, which
    must leave it real: one phase per derivation-matrix entry."""
    big = V[np.arange(len(V)), np.abs(V).argmax(axis=1)]
    W = V * (np.abs(big) / big)[:, None]
    if (np.abs(W.imag) > _PHASE_TOL * np.abs(big)[:, None]).any():
        raise ValueError("a derivation-matrix entry mixes phases across "
                         "the charge-0 basis")
    return W.real


def _shift_rows(actions, basis: Sequence[AlgebraElement],
                trunc: RepTruncation) -> np.ndarray:
    """One row per entry of the union sparsity pattern of the basis
    elements' truncated derivation matrices.  Each row and column of the
    pattern must hold one entry: then T(c) = sum_r c_r D_r is a phased
    permutation and ||T(c)|| = max |R c|."""
    mats = [delta_block_matrix(actions, u, trunc) for u in basis]
    n = mats[0].shape[0]
    mats = [D.entries() for D in mats]
    keys = np.unique(np.concatenate([i * n + j for i, j, _v in mats]))
    rows, cols = np.divmod(keys, n)
    if len(np.unique(rows)) < len(keys) or len(np.unique(cols)) < len(keys):
        raise ValueError("derivation matrices of the charge-0 basis share "
                         "a row or a column")
    V = np.zeros((len(keys), len(basis)), dtype=complex)
    for r, (i, j, v) in enumerate(mats):
        V[np.searchsorted(keys, i * n + j), r] = v
    return _real_rows(V)


def _grid_rows(actions, basis: Sequence[AlgebraElement]) -> np.ndarray:
    """One row per q = 1 grid point: there every basis element's 2x2
    derivation block must be a real multiple t_r of one block G, so the
    block of sum_r c_r u_r has norm |t . c| ||G||."""
    G = np.stack([delta_block_grid(actions, u).reshape(-1, 4)
                  for u in basis], axis=1)          # points, basis, 4
    size = np.linalg.norm(G, axis=2)
    keep = size.max(axis=1) > 0
    G, size = G[keep], size[keep]
    ref = G[np.arange(len(G)), size.argmax(axis=1)]
    t = np.einsum("prk,pk->pr", G, ref.conj()) / (
        np.linalg.norm(ref, axis=1) ** 2)[:, None]
    off = np.linalg.norm(G - t[:, :, None] * ref[:, None, :], axis=2)
    if (off > _PHASE_TOL * size.max(axis=1)[:, None]).any():
        raise ValueError("charge-0 derivation blocks are not multiples of "
                         "one block per grid point")
    sigma = np.linalg.svd(ref.reshape(-1, 2, 2), compute_uv=False)[:, 0]
    return _real_rows(t * sigma[:, None])


def _simplex(R: np.ndarray, eta: np.ndarray) -> tuple:
    """(c, y): c maximizes eta . c subject to |R c| <= 1, and y solves
    the dual, minimize sum |y| subject to R^T y = eta.  y certifies c:
    every feasible c' has eta . c' = y^T R c' <= sum |y| = eta . c.

    The revised primal simplex runs on the dual, with dense solves
    against its M x M basis; row j enters as +R_j or -R_j, whichever
    prices, and the prices of a basis are the primal point c.  Phase 1
    starts from one artificial column per unknown and drives the last
    ones out; Dantzig's rule picks the entering row.  Columns are first
    scaled by powers of two, which moves no digit of the optimum.
    """
    m, n = R.shape
    scale = 2.0 ** -np.ceil(np.log2(np.abs(R).max(axis=0)))
    A, b = R * scale, eta * scale
    sign = np.where(b < 0, -1.0, 1.0)
    B = np.diag(sign)
    row = np.full(n, -1)                    # basic row per slot, -1 artificial
    for phase in (1, 2):
        cost_art, cost_row = (1.0, 0.0) if phase == 1 else (0.0, 1.0)
        for _ in range(_LP_MAX_PIVOTS):
            x = np.linalg.solve(B, b)
            pi = np.linalg.solve(B.T, np.where(row < 0, cost_art, cost_row))
            g = A @ pi
            j = int(np.abs(g).argmax())
            if abs(g[j]) <= cost_row + _LP_TOL:
                break
            s = 1.0 if g[j] > 0 else -1.0
            d = np.linalg.solve(B, s * A[j])
            pos = d > _LP_TOL * np.abs(d).max()
            if not pos.any():       # sum |y| >= 0 bounds the dual
                raise ValueError("simplex found no leaving column")
            k = int(np.argmin(np.where(
                pos, np.maximum(x, 0.0) / np.where(pos, d, 1.0), np.inf)))
            B[:, k], row[k], sign[k] = s * A[j], j, s
        else:
            raise ValueError("simplex pivot budget exhausted: the charge-0 "
                             "rows are too ill-conditioned to solve")
        if phase == 1:
            if x[row < 0].sum() > 1e-9 * np.abs(b).sum():
                raise ValueError("a nonscalar element of the span has "
                                 "zero truncated seminorm")
            for k in np.flatnonzero(row < 0):
                g = A @ np.linalg.solve(B.T, np.eye(n)[k])
                j = int(np.abs(g).argmax())
                if abs(g[j]) <= _LP_TOL:
                    raise ValueError("the charge-0 rows are rank deficient")
                B[:, k], row[k], sign[k] = A[j], j, 1.0
    y = np.zeros(m)
    np.add.at(y, row, sign * x)
    return pi * scale, y


def charge_zero_lp(ber: Berezin, N: int, M: int,
                   norm_truncation: int) -> ChargeZeroLP:
    """The charge-0 search at level N over spins 1..M.

    Below q = 1 the rows come from the derivation matrices at the size
    lip_norm scores a degree-2M witness at; at q = 1 from the classical
    grid that lip_norm reads there.
    """
    gns = ber.gns
    alg = gns.alg
    basis = selfadjoint_basis(gns, M, charge_zero=True)
    eta = np.array([_real_value(ber.h_twisted(u, N) - alg.counit(u))
                    for u in basis])
    q = alg.field.float_q()
    if q == 1.0:
        R = _grid_rows(gns.actions, basis)
    else:
        R = _shift_rows(gns.actions, basis,
                        RepTruncation(q, max(norm_truncation, 2 * M + 2)))
    c, y = _simplex(R, eta)
    return ChargeZeroLP(tuple(basis), R, eta, c, y,
                        float(eta @ c) / float(np.abs(R @ c).max()))


# -- the general-span oracle ----------------------------------------------------


class _ShiftDenominator:
    """Truncated-representation seminorm of coordinate combinations.

    The ascent calls it thousands of times on slowly moving combinations;
    sigma(c) and its gradient come from specnorm.top_singular_triplet,
    about 0.55 ms and 11 to 12 Lanczos steps a call against about 30 ms
    for a dense SVD with vectors (q = 1/2, M = 4, norm truncation 200,
    one AMD EPYC core).  T(c) and the gradient are each one sparse
    product on a sparsity pattern fixed at construction, and the adjoint
    holds a permutation of T(c)'s entries.
    """

    def __init__(self, actions, basis: Sequence[AlgebraElement], M: int):
        q = basis[0].alg.field.float_q()
        trunc = RepTruncation(q, M, 0.0)
        self.M = M
        self.mats = [delta_block_matrix(actions, u, trunc) for u in basis]
        n = self.n = self.mats[0].shape[0]
        # union sparsity pattern, keyed row * n + col in CSR order; S has
        # one row per pattern entry and one column per basis matrix, so
        # S @ c holds the entries of T(c), and perm takes the pattern to
        # the CSR order of the adjoint
        ents = [D.entries() for D in self.mats]
        keys = np.concatenate([i * n + j for i, j, _v in ents])
        pattern = np.unique(keys)
        at = np.searchsorted(pattern, keys)
        basis_of = np.repeat(np.arange(len(ents)), [len(e[0]) for e in ents])
        vals = np.concatenate([v for *_ij, v in ents])
        self.S = PaddedRows.from_entries(at, basis_of, vals,
                                         (len(pattern), len(ents)))
        self.ST = PaddedRows.from_entries(basis_of, at, vals,
                                          (len(ents), len(pattern)))
        self.rows, self.cols = np.divmod(pattern, n)
        self.perm = np.lexsort((self.rows, self.cols))
        zeros = np.zeros(len(pattern))
        self.T = PaddedRows.from_entries(self.rows, self.cols, zeros, (n, n))
        self.TH = PaddedRows.from_entries(self.cols, self.rows, zeros, (n, n))
        self.slots = self.rows, row_slots(self.rows)
        self.adjoint_slots = self.cols[self.perm], row_slots(
            self.cols[self.perm])

    def sigma_and_grad(self, c: np.ndarray):
        # T(c) = sum_r c_r D_r: each pattern entry sums its terms in
        # basis order, the roundings of sequential sparse adds
        T, TH = self.T, self.TH
        vals = self.S @ c
        T.data[self.slots] = vals
        TH.data[self.adjoint_slots] = vals[self.perm].conj()
        sigma, u, v = top_singular_triplet(T, TH, M=self.M)
        if sigma < _TINY:
            return 0.0, np.zeros(len(self.mats)), v
        # d sigma / d c_r = Re(u^H D_r v), summed over the pattern
        grad = (self.ST @ (u.conj()[self.rows] * v[self.cols])).real
        return sigma, grad, v


def _ascend(eta: np.ndarray, denom, c0: np.ndarray, max_iters: int) -> tuple:
    """Projected subgradient ascent on |eta . c| / sigma(c): (best value,
    its coordinates).

    Polyak-style steps against a moving target slightly above the best
    value seen; coordinates are renormalized every step, which is the
    projection implementing scale invariance of the ratio.
    """
    scale, growth = 1.0, 0.05
    c = c0 / max(np.linalg.norm(c0), _TINY)
    best_f, best_c = -1.0, c.copy()
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
        if f > best_f:
            best_f, best_c = f, c.copy()
        gn2 = float(g @ g)
        if gn2 < 1e-28:
            break
        target = best_f * (1.0 + growth) + 1e-12
        step = scale * max(target - f, 1e-12) / gn2
        c = c + step * g
        c = c / max(np.linalg.norm(c), _TINY)
    return best_f, best_c


# -- the estimate ----------------------------------------------------------------


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


def estimate_distance(ber: Berezin, N: int, M: int, norm_truncation: int = 100,
                      mode: str = "certified",
                      probes: Sequence | None = None) -> DistanceEstimate:
    """Search the charge-0 fuzzy span for a distance witness.

    N is the level of the twisted state, M the fuzzy truncation whose
    charge-0 span is searched, norm_truncation the representation size
    of the seminorm values.  The candidate pool is the linear program's
    optimal witness plus the probes restricted to the span's degree:
    probes is a sequence of (element, its lip_norm estimate at the norm
    truncation) pairs, default_probes when omitted.  Both modes search
    alike, and every candidate is rescored from its exact element both
    ways: certified mode divides by the crude upper bound of the Lip
    seminorm, so its values stay true lower bounds of the distance,
    heuristic mode by the truncated-representation lower bound.  The
    result dominates the trivial witnesses; if the optimum does not beat
    them, or the linear program cannot be solved, the probe bound is
    returned with degraded=True.
    """
    if N < 1:
        raise ValueError("level N must be >= 1")
    if M < 1:
        raise ValueError("search truncation M must be >= 1")
    if mode not in ("certified", "heuristic"):
        raise ValueError("mode must be certified or heuristic")
    actions = ber.gns.actions

    def lip_of(w):
        return lip_norm(actions, w, norm_truncation, ladder=False).value

    if probes is None:
        probes = [(p, lip_of(p)) for p in default_probes(ber.alg)
                  if p.sphere_degree() <= M]
    candidates = [(f"probe{j}", p, (), lip) for j, (p, lip)
                  in enumerate(probes) if p.sphere_degree() <= M]
    try:
        lp = charge_zero_lp(ber, N, M, norm_truncation)
    except ValueError:
        # the float rows of high-degree elements can lose every digit
        # (spin 10 and up at q = 1/2); the probes still bound the distance
        pass
    else:
        w = _rationalize(lp.coords, lp.basis)
        candidates.insert(0, ("lp", w, tuple(lp.coords), lip_of(w)))

    scored = []
    for tag, w, coords, lip in candidates:
        num = abs(_real_value(ber.h_twisted(w, N) - ber.alg.counit(w)))
        # certified scale: the crude bound; truncated: the seminorm
        upper, lower = lip.upper_bound, lip.lower_bound
        if upper <= 1e-14 or lower <= 1e-14:
            continue
        scored.append((tag, w, coords, num / upper, num / lower))
    if not scored:
        raise ValueError("all witness candidates were scalar")

    cert_best = max(scored, key=lambda s: s[3])
    heur_best = max(scored, key=lambda s: s[4])
    pick = cert_best if mode == "certified" else heur_best
    tag, witness, coords, cval, hval = pick
    value = cval if mode == "certified" else hval
    degraded = tag.startswith("probe")
    return DistanceEstimate(
        value=value,
        witness=witness,
        certified_value=cert_best[3],
        heuristic_value=heur_best[4],
        degraded=degraded,
        coords=coords,
        source="samples" if degraded else tag,
    )


def approx_inequality_check(ber: Berezin, x: AlgebraElement, N: int,
                            d_estimate: DistanceEstimate, trunc: int,
                            lip_x: NormEstimate,
                            gap: float = 0.05) -> InequalityReport:
    """Certified transform-defect ratio of x against a distance estimate.

    r(x) = lower bound of the norm of x - (transform of x), divided by
    lip_x.upper_bound, the certified upper bound of Lip(x).  An r(x)
    above the heuristic estimate plus the gap marks an estimator-quality
    event; it is never a contradiction, because both numbers are
    approximations from the same side.  The norm is the dist_slack of
    theorem_b_approximant for the same x, N, truncation and lip_x (x's
    lip_norm estimate at that truncation), whose report comes along.
    """
    if all(m.is_unit() for m in x.terms) or x.is_zero():
        raise ValueError("scalar elements have no Lip scale")
    upper = lip_x.upper_bound
    if upper <= 1e-14:
        raise ValueError("scalar elements have no Lip scale")
    app = theorem_b_approximant(ber, x, N, trunc, lip_x)
    ratio = app.dist_slack / upper
    return InequalityReport(
        ratio=ratio,
        flagged=ratio > d_estimate.heuristic_value + gap,
        approximant=app,
    )


def theorem_b_approximant(ber: Berezin, x: AlgebraElement, N: int,
                          truncation: int,
                          lip_x: NormEstimate) -> ApproximantReport:
    """Smooth approximant of x at level N with seminorm and norm slacks.

    The approximant is the level-N transform; its Lip seminorm never
    exceeds that of x (lip_slack >= 0 up to estimator noise) and the
    norm of the difference quantifies the approximation error.  lip_x
    is x's lip_norm estimate at this truncation.
    """
    y = ber.via_coproduct(x, N)
    ly = lip_norm(ber.gns.actions, y, truncation, ladder=False).value
    diff = x - y
    dist = (0.0 if diff.is_zero()
            else operator_norm(diff, truncation, ladder=False).lower_bound)
    return ApproximantReport(
        approximant=y,
        lip_slack=lip_x.lower_bound - ly.lower_bound,
        dist_slack=dist,
    )
