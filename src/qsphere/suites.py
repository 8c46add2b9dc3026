"""Verification suites: the runnable form of every contract in the package.

A suite is a generator over a SessionConfig: it builds its own contexts
and yields one (name, ok, residual) tuple per check, in report order.
`run_suite` is the one runner.  It times each check from the one before
it (the first from the suite's start, so it includes the set-up), gives
it its status and builds the VerificationReport.  A check that does not
hold fails, except the convergence bookkeeping named in WARN_ONLY, which
warns.  The CLI `verify` subcommand and the acceptance tests call the
same runner, so a green suite here and a green test run are the same
statement.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import mkdist, specnorm
from .berezin import Berezin, LayerInconsistency
from .gns import GnsContext
from .qhopf import Algebra, AlgebraElement, make_algebra, monomials
from .session import SCHEMA, SessionConfig
from .uq_actions import ACTIONS, UqActions, sphere_monomials

# exact-mode identity failures must surface as fail, never warn; warn is
# reserved for this convergence check
WARN_ONLY = frozenset({"slice-estimates-converged"})


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | warn
    residual: float
    seconds: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple
    config: SessionConfig
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_obj(self, include_timings: bool = False) -> dict:
        checks = []
        for c in self.checks:
            obj: dict = {"name": c.name, "status": c.status,
                         "residual": c.residual}
            if c.detail:
                obj["detail"] = c.detail
            if include_timings:
                obj["seconds"] = round(c.seconds, 3)
            checks.append(obj)
        out = {
            "schema": SCHEMA,
            "suite": self.suite,
            "passed": self.passed,
            "checks": checks,
            "config": self.config.to_obj(),
        }
        if include_timings:
            out["seconds"] = round(self.seconds, 3)
        return out


def _exact(name: str, ok: bool) -> tuple:
    """A check without a magnitude: residual 0 when it holds, else 1."""
    return name, ok, 0.0 if ok else 1.0


# -- seeded element suites ------------------------------------------------


def _rand_fraction(rng) -> Fraction:
    num = int(rng.integers(-9, 10))
    if num == 0:
        num = 1
    return Fraction(num, int(rng.integers(1, 8)))


def random_elements(alg: Algebra, count: int, max_degree: int, seed: int,
                    sphere: bool = False) -> list:
    """Seeded random elements with small rational(+imaginary) coefficients."""
    rng = np.random.default_rng([seed, 977 if sphere else 499])
    if sphere:
        pool = sphere_monomials(alg, max_degree)
    else:
        pool = [AlgebraElement(alg, {m: alg.field.one})
                for m in monomials(max_degree)]
    out = []
    while len(out) < count:
        k = int(rng.integers(1, 4))
        idx = rng.choice(len(pool), size=k, replace=False)
        x = alg.scalar_element(alg.field.zero)
        for i in idx:
            im = _rand_fraction(rng) if int(rng.integers(0, 2)) else 0
            c = alg.field.from_parts(_rand_fraction(rng), im)
            x = x + pool[int(i)].scale(c)
        if not x.is_zero():
            out.append(x)
    return out


# -- individual suites ------------------------------------------------------


def hopf_suite(cfg: SessionConfig):
    """Bialgebra and Haar axioms on every monomial of degree <= 5; Haar
    invariance also on (b b*)^l up to l = 8, which pins the closed-form
    weights h((b b*)^l) against invariance."""
    alg = cfg.build_algebra()
    monos = monomials(5)
    elems = [AlgebraElement(alg, {m: alg.field.one}) for m in monos]
    by_deg: dict = {}
    for x, m in zip(elems, monos):
        by_deg.setdefault(m.total_degree(), []).append(x)

    yield _exact("associativity-deg5", all(
        (x * y) * z == x * (y * z)
        for d1, xs in by_deg.items() for d2, ys in by_deg.items()
        for d3, zs in by_deg.items() if d1 + d2 + d3 <= 5
        for x in xs for y in ys for z in zs))

    bad = []
    for m in monos:
        co = alg.coproduct_mono(m)
        left: dict = {}
        right: dict = {}
        for (ml, mr), c in co.items():
            for (l1, l2), c1 in alg.coproduct_mono(ml).items():
                key = (l1, l2, mr)
                left[key] = left.get(key, alg.field.zero) + c * c1
            for (r1, r2), c1 in alg.coproduct_mono(mr).items():
                key = (ml, r1, r2)
                right[key] = right.get(key, alg.field.zero) + c * c1
        for k in set(left) | set(right):
            diff = left.get(k, alg.field.zero) - right.get(k, alg.field.zero)
            if not diff.is_zero():
                bad.append(abs(diff.to_complex()))
    yield "coassociativity-deg5", not bad, max([0.0, *bad])

    def counit(m):
        return alg.counit(AlgebraElement(alg, {m: alg.field.one}))

    def haar(m):
        return alg.haar(AlgebraElement(alg, {m: alg.field.one}))

    def both_legs(x, pair, target) -> bool:
        t = alg.coproduct(x)
        return t.pair_left(pair) == target and t.pair_right(pair) == target

    def antipode_holds(m) -> bool:
        # sum S(m1) m2 = sum m1 S(m2) = counit(m) 1 over Delta(m)
        target = alg.unit.scale(counit(m))
        left = right = alg.scalar_element(alg.field.zero)
        for (m1, m2), c in alg.coproduct_mono(m).items():
            x1 = AlgebraElement(alg, {m1: c})
            x2 = AlgebraElement(alg, {m2: alg.field.one})
            left = left + alg.antipode(x1) * x2
            right = right + x1 * alg.antipode(x2)
        return left == target and right == target

    yield _exact("counit-axiom-deg5",
                 all(both_legs(x, counit, x) for x in elems))
    yield _exact("antipode-axiom-deg5", all(map(antipode_holds, monos)))
    yield _exact("haar-bi-invariance-deg5-bbs8", all(
        both_legs(x, haar, alg.unit.scale(alg.haar(x)))
        for x in elems + [alg.monomial(0, l, l) for l in range(3, 9)]))


def leibniz_holds(actions: UqActions, x: AlgebraElement,
                  y: AlgebraElement) -> bool:
    """delta1, delta2 and delta3 each obey the twisted Leibniz rule
    D(x y) = D(x) K(y) + K^-1(x) D(y) on the pair x, y."""
    der = actions.twisted_derivation
    xy = x * y
    kx = der("deltaKinv", x)
    ky = der("deltaK", y)
    return all(der(label, xy) == der(label, x) * ky + kx * der(label, y)
               for label in ("delta1", "delta2", "delta3"))


def derivations_suite(cfg: SessionConfig):
    """The actions of uq_actions against the identities that pin its
    pairing table.  Twisted Leibniz and the twisted trace on 100 seeded
    random pairs of degree <= 3; symbolically on every monomial, or
    monomial pair, of total degree <= 4: twisted Leibniz,
    multiplicativity of deltaK, the star rules, Haar annihilation, Haar
    invariance under deltaK and the grading of every action; conjugation
    by the fundamental corepresentation on the sphere monomials of
    degree <= 3.  The star rules and Haar annihilation are linear in x,
    so their monomial form covers every element of degree <= 4."""
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    der = actions.twisted_derivation
    pairs = list(zip(random_elements(alg, 100, 3, cfg.seed),
                     random_elements(alg, 100, 3, cfg.seed + 1)))
    yield _exact("twisted-leibniz-100pairs",
                 all(leibniz_holds(actions, x, y) for x, y in pairs))
    yield _exact("twisted-trace-100pairs", all(
        alg.haar(x * y) == alg.haar(alg.modular_twist(y) * x)
        for x, y in pairs))

    monos = monomials(4)
    elems = [AlgebraElement(alg, {m: alg.field.one}) for m in monos]
    mono_pairs = [(x, y) for m1, x in zip(monos, elems)
                  for m2, y in zip(monos, elems)
                  if m1.total_degree() + m2.total_degree() <= 4]
    yield _exact("twisted-leibniz-deg4",
                 all(leibniz_holds(actions, x, y) for x, y in mono_pairs))
    yield _exact("k-multiplicative-deg4", all(
        der("deltaK", x * y) == der("deltaK", x) * der("deltaK", y)
        for x, y in mono_pairs))
    yield _exact("star-rules-deg4", all(
        der("delta1", x.star()) == -(der("delta2", x).star())
        and der("delta3", x.star()) == -(der("delta3", x).star())
        for x in elems))
    yield _exact("haar-annihilation-deg4", all(
        alg.haar(der(label, x)).is_zero()
        for x in elems for label in ("delta1", "delta2", "delta3")))
    yield _exact("k-haar-invariance-deg4", all(
        (alg.haar(der("deltaK", x)) - alg.haar(x)).is_zero() for x in elems))
    # left actions act on the left tensor leg, so they keep the right
    # degree; right actions keep the left degree
    yield _exact("grading-deg4", all(
        (n.left_degree() == m.left_degree() if side == "right"
         else n.right_degree() == m.right_degree())
        for m, x in zip(monos, elems)
        for label, (side, _, _) in ACTIONS.items()
        for n in der(label, x).terms))

    # delta_matrix(x) = u [[0, p2], [p1, 0]] u* with u the fundamental
    # corepresentation and (p1, p2) the right actions' Dirac components
    u = alg.fundamental_corep()

    def conjugates(x) -> bool:
        lhs = actions.delta_matrix(x)
        p1, p2 = actions.dirac_components(x)
        return all(lhs[i][j] == u[i][0] * p2 * u[j][1].star()
                   + u[i][1] * p1 * u[j][0].star()
                   for i in (0, 1) for j in (0, 1))

    yield _exact("corep-conjugation-deg3",
                 all(map(conjugates, sphere_monomials(alg, 3))))


def projections_suite(cfg: SessionConfig):
    """Compression matrix patterns and projection commutation, levels <= 5.

    The derivations preserve spin layers, so the level-M compressions
    are the leading blocks of the level-5 ones; a pattern check on the
    level-5 matrix covers every prefix block, and its vanishing
    cross-spin entries are [P_N, D] = 0 for every N <= M <= 5.
    """
    alg = cfg.build_algebra()
    gns = GnsContext(alg)
    t1, t2, t3 = (gns.operator_matrix_of(f"delta{i}", 5) for i in (1, 2, 3))
    basis = gns.fuzzy_basis(5)
    s = [v.snorm for v in basis]
    pairs = [(i, j) for i in range(len(s)) for j in range(len(s))]

    def prefix_residual(T, S, scal) -> float:
        # T - scal * adjoint(S), adjoint(S)_ij = conj(S_ji) s_j / s_i; the
        # adjoint weights depend only on the vector norms, so prefix
        # blocks of the adjoint are adjoints of prefix blocks
        return max(abs((T[i][j] - (S[j][i].conjugate() * s[j]) / s[i] * scal)
                       .to_complex()) for i, j in pairs)

    r12 = prefix_residual(t1, t2, alg.field.one / alg.field.q)
    yield "adjoint-pattern-delta12-M5", r12 == 0.0, r12
    r33 = prefix_residual(t3, t3, alg.field.one)
    yield "selfadjoint-delta3-M5", r33 == 0.0, r33

    worst = max([0.0, *(abs(T[i][j].to_complex()) for T in (t1, t2, t3)
                        for i, j in pairs if basis[i].spin != basis[j].spin)])
    yield "projection-commutation-M5", worst == 0.0, worst


def berezin_suite(cfg: SessionConfig):
    """Dual-route transform agreement on 50 seeded sphere elements of
    degree <= 4, with the spectrum endpoint identities."""
    alg = cfg.build_algebra()
    ber = Berezin(GnsContext(alg))
    elems = random_elements(alg, 50, 4, cfg.seed, sphere=True)
    for N in (1, 2, 3):
        yield _exact(f"dual-route-N{N}-50elems", all(
            ber.via_coproduct(x, N) == ber.via_spectrum(x, N)
            for x in elems))

    devs = [0.0]
    for N in (1, 2, 3):
        spec = ber.spectrum(N, max_spin=4)
        devs.append(abs((spec.eigenvalues[0] - alg.field.one).to_complex()))
        devs += [abs(spec.eigenvalues[n].to_complex()) for n in range(N + 1, 5)]
    worst = max(devs)
    yield "spectrum-endpoints", worst == 0.0, worst


def lipcontract_suite(cfg: SessionConfig):
    """Seminorm contraction of the transform on the 50-element suite,
    levels 1..5, at the configured norm truncation."""
    alg = cfg.build_algebra()
    ber = Berezin(GnsContext(alg))

    def lip(x):
        return specnorm.lip_norm(ber.gns.actions, x, cfg.norm_truncation,
                                 ladder=False).value

    elems = random_elements(alg, 50, 4, cfg.seed, sphere=True)
    lips = [lip(x) for x in elems]
    cross_worst = tight_worst = -math.inf
    for N in range(1, 6):
        for x, lx in zip(elems, lips):
            ly = lip(ber.via_coproduct(x, N))
            cross_worst = max(cross_worst,
                              ly.lower_bound - lx.upper_bound)
            tight_worst = max(tight_worst,
                              ly.lower_bound - lx.lower_bound * (1 + 1e-6))
    yield ("contraction-lower-vs-upper", cross_worst <= 0.0,
           max(cross_worst, 0.0))
    yield ("contraction-tight-1e-6", tight_worst <= 0.0,
           max(tight_worst, 0.0))


def normoracles_suite(cfg: SessionConfig):
    """The two seminorm routes agree on the standard suite."""
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    M = cfg.norm_truncation
    rels = [0.0]
    for x in mkdist.default_probes(alg):
        shift = specnorm.lip_norm(actions, x, M, ladder=False).value
        gram = specnorm.lip_norm_gram_oracle(actions, x, basis_size=M)
        rels.append(abs(shift.lower_bound - gram.lower_bound) / max(
            shift.lower_bound, gram.lower_bound, 1e-300))
    worst = max(rels)
    yield "dual-norm-oracles-rel-1e-4", worst <= 1e-4, worst


def theoremb_rows(cfg: SessionConfig, n_values) -> list:
    """Distance-trend harness rows: one dict per level N.

    Each row carries the certified and heuristic distance lower bounds,
    the worst probe transform-defect ratio with its flag, and the mean
    seminorm slack of the approximant construction.  Each probe's Lip
    seminorm is computed once and serves every level.
    """
    alg = cfg.build_algebra()
    ber = Berezin(GnsContext(alg))
    probes = [(p, specnorm.lip_norm(ber.gns.actions, p, cfg.norm_truncation,
                                    ladder=False).value)
              for p in mkdist.default_probes(alg)]
    rows = []
    for N in n_values:
        est = mkdist.estimate_distance(ber, N, cfg.search_truncation,
                                       cfg.norm_truncation, probes=probes)
        ratios = []
        flags = []
        slacks = []
        for p, lip in probes:
            rep = mkdist.approx_inequality_check(
                ber, p, N, est, cfg.norm_truncation, lip_x=lip)
            ratios.append(rep.ratio)
            flags.append(rep.flagged)
            slacks.append(rep.approximant.lip_slack)
        rows.append({
            "N": N,
            "dist_lb": est.value,
            "dist_heuristic": est.heuristic_value,
            "max_probe_ratio": max(ratios),
            "mean_lipSlack": sum(slacks) / len(slacks),
            "min_lipSlack": min(slacks),
            "probe_flagged": any(flags),
            "degraded": est.degraded,
        })
    return rows


def trend_checks(rows: list, tol: float) -> list:
    """(name, ok, residual) of each distance-trend check on theoremb_rows
    output: the theoremb suite yields them, `verify --N` exits on them."""
    out = []
    for key, name in (("dist_lb", "dist-lb-non-increasing"),
                      ("max_probe_ratio", "probe-ratio-non-increasing")):
        vals = [r[key] for r in rows]
        up = max((vals[i + 1] - vals[i] for i in range(len(vals) - 1)),
                 default=0.0)
        out.append((name, up <= tol, max(up, 0.0)))
    flagged = any(r["probe_flagged"] for r in rows)
    out.append(("probe-ratios-within-gap", not flagged,
                1.0 if flagged else 0.0))
    worst_slack = min(r["min_lipSlack"] for r in rows)
    out.append(("approximant-lip-slack", worst_slack >= -1e-6,
                max(-worst_slack, 0.0)))
    return out


def theoremb_suite(cfg: SessionConfig):
    """Distance and defect-ratio trends over levels 1..5."""
    yield from trend_checks(theoremb_rows(cfg, range(1, 6)), cfg.trend_tol)


def slice_suite(cfg: SessionConfig):
    """Slices of the coproduct contract the seminorm: 20 seeded triples."""
    alg = cfg.build_algebra()
    ber = Berezin(GnsContext(alg))
    trunc = max(80, min(cfg.norm_truncation, 120))
    checks = [ber.slice_lip_check(x, xi, zeta, truncation=trunc)
              for x, xi, zeta in zip(
                  random_elements(alg, 20, 2, cfg.seed, sphere=True),
                  random_elements(alg, 20, 2, cfg.seed + 7),
                  random_elements(alg, 20, 2, cfg.seed + 13))]
    worst = max(chk.lip_slice - chk.bound * (1 + 1e-4) for chk in checks)
    yield "slice-contraction-20triples", worst <= 1e-12, max(worst, 0.0)
    yield _exact("slice-estimates-converged",
                 all(chk.converged for chk in checks))


def classical_suite(cfg: SessionConfig):
    """q = 1 spectrum: eigenvalues in [0, 1], increasing toward 1."""
    ber = Berezin(GnsContext(make_algebra(1, 1)))
    vals: dict = {}
    complex_value = False
    for N in range(1, 6):
        spec = ber.spectrum(N, max_spin=max(2, N))
        for n in range(3):
            c = spec.eigenvalues[n].to_complex()
            vals[N, n] = c.real
            complex_value = complex_value or abs(c.imag) > 0
    outside = [max(-v, v - 1.0) for v in vals.values()
               if not 0.0 <= v <= 1.0]
    yield ("spectrum-in-unit-interval", not (complex_value or outside),
           max([0.0, *outside]))

    drops = [vals[N, n] - vals[N + 1, n] for n in range(3) for N in range(1, 5)]
    yield ("spectrum-increasing-in-N", all(d <= 1e-3 for d in drops),
           max([0.0, *drops]))
    yield _exact("unit-eigenvalue-one",
                 all(vals[N, 0] == 1.0 for N in range(1, 6)))


SUITES = {
    "hopf": hopf_suite,
    "derivations": derivations_suite,
    "projections": projections_suite,
    "berezin": berezin_suite,
    "lipcontract": lipcontract_suite,
    "normoracles": normoracles_suite,
    "theoremb": theoremb_suite,
    "slice": slice_suite,
    "classical": classical_suite,
}


def run_suite(name: str, cfg: SessionConfig) -> VerificationReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    checks = []
    t0 = lap = time.perf_counter()
    try:
        for check, ok, residual in SUITES[name](cfg):
            now = time.perf_counter()
            status = ("pass" if ok else
                      "warn" if check in WARN_ONLY else "fail")
            checks.append(CheckResult(check, status, float(residual),
                                      now - lap))
            lap = now
    except LayerInconsistency as exc:
        return layer_failure(name, cfg, exc, time.perf_counter() - t0)
    return VerificationReport(name, tuple(checks), cfg,
                              time.perf_counter() - t0)


def layer_failure(name: str, cfg: SessionConfig, exc: LayerInconsistency,
                  seconds: float = 0.0) -> VerificationReport:
    """A convention bug is a failed verification, not a crash: the
    report of one failed layer-consistency check."""
    check = CheckResult("layer-consistency", "fail", 1.0, 0.0, str(exc))
    return VerificationReport(name, (check,), cfg, seconds)
