"""Verification suites: the runnable form of every contract in the package.

Each suite builds its own contexts from a SessionConfig, runs a list of
named checks, and returns a VerificationReport.  The CLI `verify`
subcommand and the acceptance tests call the same functions, so a green
suite here and a green test run are the same statement.
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
from .uq_actions import (UqActions, haar_annihilates, leibniz_holds,
                         sphere_monomials, star_rules_hold)


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


class _Collector:
    def __init__(self):
        self.checks: list = []
        self._t = time.perf_counter()

    def _lap(self) -> float:
        now = time.perf_counter()
        dt = now - self._t
        self._t = now
        return dt

    def add(self, name: str, ok: bool, residual: float = 0.0,
            detail: str = "", warn_only: bool = False):
        # exact-mode identity failures must surface as fail, never warn;
        # warn_only is reserved for convergence bookkeeping
        status = "pass" if ok else ("warn" if warn_only else "fail")
        self.checks.append(CheckResult(name, status, float(residual),
                                       self._lap(), detail))


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


def hopf_suite(cfg: SessionConfig) -> VerificationReport:
    """Bialgebra and Haar axioms on every monomial of degree <= 5; Haar
    invariance also on (b b*)^l up to l = 8, which pins the closed-form
    weights h((b b*)^l) against invariance."""
    t0 = time.perf_counter()
    alg = cfg.build_algebra()
    col = _Collector()
    monos = monomials(5)
    elems = [AlgebraElement(alg, {m: alg.field.one}) for m in monos]
    by_deg: dict = {}
    for x, m in zip(elems, monos):
        by_deg.setdefault(m.total_degree(), []).append(x)

    worst = 0.0
    ok = True
    for d1, xs in by_deg.items():
        for d2, ys in by_deg.items():
            for d3, zs in by_deg.items():
                if d1 + d2 + d3 > 5:
                    continue
                for x in xs:
                    for y in ys:
                        for z in zs:
                            if (x * y) * z != x * (y * z):
                                ok = False
    col.add("associativity-deg5", ok, 0.0 if ok else 1.0)

    ok = True
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
        keys = set(left) | set(right)
        for k in keys:
            diff = left.get(k, alg.field.zero) - right.get(k, alg.field.zero)
            if not diff.is_zero():
                ok = False
                worst = max(worst, abs(diff.to_complex()))
    col.add("coassociativity-deg5", ok, worst)

    ok = True
    for x in elems:
        t = alg.coproduct(x)
        lx = t.pair_left(lambda m: alg.counit(
            AlgebraElement(alg, {m: alg.field.one})))
        rx = t.pair_right(lambda m: alg.counit(
            AlgebraElement(alg, {m: alg.field.one})))
        if lx != x or rx != x:
            ok = False
    col.add("counit-axiom-deg5", ok, 0.0 if ok else 1.0)

    ok = True
    for x in elems:
        target = alg.unit.scale(alg.counit(x))
        t = alg.coproduct(x)
        if t.map_left(alg.antipode).multiply_legs() != target:
            ok = False
        if t.map_right(alg.antipode).multiply_legs() != target:
            ok = False
    col.add("antipode-axiom-deg5", ok, 0.0 if ok else 1.0)

    ok = True
    for x in elems + [alg.monomial(0, l, l) for l in range(3, 9)]:
        t = alg.coproduct(x)
        hval = alg.haar(x)
        left = t.pair_left(lambda m: alg.haar(
            AlgebraElement(alg, {m: alg.field.one})))
        right = t.pair_right(lambda m: alg.haar(
            AlgebraElement(alg, {m: alg.field.one})))
        target = alg.unit.scale(hval)
        if left != target or right != target:
            ok = False
    col.add("haar-bi-invariance-deg5-bbs8", ok, 0.0 if ok else 1.0)

    return VerificationReport("hopf", tuple(col.checks), cfg,
                              time.perf_counter() - t0)


def derivations_suite(cfg: SessionConfig) -> VerificationReport:
    """Twisted Leibniz, star rules, Haar annihilation, twisted trace on
    100 seeded random pairs of degree <= 3."""
    t0 = time.perf_counter()
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    col = _Collector()
    xs = random_elements(alg, 100, 3, cfg.seed)
    ys = random_elements(alg, 100, 3, cfg.seed + 1)

    leib_ok = star_ok = ann_ok = trace_ok = True
    for x, y in zip(xs, ys):
        if not leibniz_holds(actions, x, y):
            leib_ok = False
        if not star_rules_hold(actions, x):
            star_ok = False
        if not haar_annihilates(actions, x):
            ann_ok = False
        if alg.haar(x * y) != alg.haar(alg.modular_twist(y) * x):
            trace_ok = False
    col.add("twisted-leibniz-100pairs", leib_ok, 0.0 if leib_ok else 1.0)
    col.add("star-compatibility-100pairs", star_ok, 0.0 if star_ok else 1.0)
    col.add("haar-annihilation-100pairs", ann_ok, 0.0 if ann_ok else 1.0)
    col.add("twisted-trace-100pairs", trace_ok, 0.0 if trace_ok else 1.0)
    return VerificationReport("derivations", tuple(col.checks), cfg,
                              time.perf_counter() - t0)


def projections_suite(cfg: SessionConfig) -> VerificationReport:
    """Compression matrix patterns and projection commutation, levels <= 5.

    The derivations preserve spin layers, so the level-M compressions
    are the leading blocks of the level-5 ones; a pattern check on the
    level-5 matrix covers every prefix block.
    """
    t0 = time.perf_counter()
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    gns = GnsContext(alg, actions)
    col = _Collector()

    top = 5
    t1 = gns.operator_matrix_of("delta1", top)
    t2 = gns.operator_matrix_of("delta2", top)
    t3 = gns.operator_matrix_of("delta3", top)
    inv_q = alg.field.one / alg.field.q
    spins = [v.spin for v in t1.basis.vectors]

    def prefix_residual(T, S, scal) -> float:
        # T - scal * adjoint(S); the adjoint weights depend only on the
        # vector norms, so prefix blocks of the adjoint are adjoints of
        # prefix blocks
        R = T.sub(S.adjoint().scale(scal))
        return max(abs(e.to_complex()) for row in R.entries for e in row)

    r12 = prefix_residual(t1, t2, inv_q)
    col.add("adjoint-pattern-delta12-M5", r12 == 0.0, r12)
    r33 = prefix_residual(t3, t3, alg.field.one)
    col.add("selfadjoint-delta3-M5", r33 == 0.0, r33)

    worst = 0.0
    for T in (t1, t2, t3):
        n = T.dim()
        for i in range(n):
            for j in range(n):
                if spins[i] != spins[j]:
                    worst = max(worst, abs(T.entries[i][j].to_complex()))
    col.add("projection-commutation-M5", worst == 0.0, worst)

    r = gns.pn_commutation_check("delta1", 1, 2)
    col.add("pn-commutation-api-M2", r == 0.0, r)
    return VerificationReport("projections", tuple(col.checks), cfg,
                              time.perf_counter() - t0)


def berezin_suite(cfg: SessionConfig) -> VerificationReport:
    """Dual-route transform agreement on 50 seeded sphere elements of
    degree <= 4, with the spectrum endpoint identities."""
    t0 = time.perf_counter()
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    gns = GnsContext(alg, actions)
    ber = Berezin(gns)
    col = _Collector()

    elems = random_elements(alg, 50, 4, cfg.seed, sphere=True)
    for N in (1, 2, 3):
        ok = True
        for x in elems:
            if ber.via_coproduct(x, N) != ber.via_spectrum(x, N):
                ok = False
        col.add(f"dual-route-N{N}-50elems", ok, 0.0 if ok else 1.0)

    ok = True
    worst = 0.0
    for N in (1, 2, 3):
        spec = ber.spectrum(N, max_spin=4)
        c0 = spec.eigenvalue(0)
        d = abs((c0 - alg.field.one).to_complex())
        worst = max(worst, d)
        if d != 0.0:
            ok = False
        for n in range(N + 1, 5):
            d = abs(spec.eigenvalue(n).to_complex())
            worst = max(worst, d)
            if d != 0.0:
                ok = False
    col.add("spectrum-endpoints", ok, worst)
    return VerificationReport("berezin", tuple(col.checks), cfg,
                              time.perf_counter() - t0)


def lipcontract_suite(cfg: SessionConfig) -> VerificationReport:
    """Seminorm contraction of the transform on the 50-element suite,
    levels 1..5, at the configured norm truncation."""
    t0 = time.perf_counter()
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    gns = GnsContext(alg, actions)
    ber = Berezin(gns)
    col = _Collector()
    M = cfg.norm_truncation

    elems = random_elements(alg, 50, 4, cfg.seed, sphere=True)
    lips = [specnorm.lip_norm(actions, x, M, ladder=False).value
            for x in elems]

    cross_worst = -math.inf
    tight_worst = -math.inf
    all_conv = True
    for N in range(1, 6):
        for x, lx in zip(elems, lips):
            y = ber.via_coproduct(x, N)
            ly = specnorm.lip_norm(actions, y, M, ladder=False).value
            cross_worst = max(cross_worst,
                              ly.lower_bound - lx.upper_bound)
            if lx.iteration_converged and ly.iteration_converged:
                tight_worst = max(
                    tight_worst,
                    ly.lower_bound - lx.lower_bound * (1 + 1e-6))
            else:
                all_conv = False
    col.add("contraction-lower-vs-upper", cross_worst <= 0.0,
            max(cross_worst, 0.0))
    col.add("contraction-tight-1e-6", tight_worst <= 0.0,
            max(tight_worst, 0.0))
    col.add("norm-estimates-converged", all_conv, 0.0 if all_conv else 1.0,
            warn_only=True)
    return VerificationReport("lipcontract", tuple(col.checks), cfg,
                              time.perf_counter() - t0)


def normoracles_suite(cfg: SessionConfig) -> VerificationReport:
    """The two seminorm routes agree on the standard suite."""
    t0 = time.perf_counter()
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    col = _Collector()
    M = cfg.norm_truncation

    worst = 0.0
    ok = True
    for x in mkdist.default_probes(alg):
        shift = specnorm.lip_norm(actions, x, M, ladder=False).value
        gram = specnorm.lip_norm_gram_oracle(actions, x, basis_size=M)
        rel = abs(shift.lower_bound - gram.lower_bound) / max(
            shift.lower_bound, gram.lower_bound, 1e-300)
        worst = max(worst, rel)
        if rel > 1e-4:
            ok = False
    col.add("dual-norm-oracles-rel-1e-4", ok, worst)
    return VerificationReport("normoracles", tuple(col.checks), cfg,
                              time.perf_counter() - t0)


def theoremb_rows(cfg: SessionConfig, n_values) -> list:
    """Distance-trend harness rows: one dict per level N.

    Each row carries the certified and heuristic distance lower bounds,
    the worst probe transform-defect ratio with its flag, and the mean
    seminorm slack of the approximant construction.  Each probe's Lip
    seminorm is computed once and serves every level.
    """
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    gns = GnsContext(alg, actions)
    ber = Berezin(gns)
    probes = [(p, specnorm.lip_norm(actions, p, cfg.norm_truncation,
                                    ladder=False).value)
              for p in mkdist.default_probes(alg)]
    rows = []
    for N in n_values:
        prob = mkdist.OptimizationProblem(
            N=N, M=cfg.search_truncation,
            norm_truncation=cfg.norm_truncation, mode="certified")
        est = mkdist.estimate_distance(ber, prob, probes)
        ratios = []
        flags = []
        slacks = []
        for p, lip in probes:
            rep = mkdist.approx_inequality_check(
                ber, p, N, est, cfg.norm_truncation, gap=cfg.estimator_gap,
                lip_x=lip)
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
    output: the theoremb suite records them, `verify --N` exits on them."""
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


def theoremb_suite(cfg: SessionConfig) -> VerificationReport:
    """Distance and defect-ratio trends over levels 1..5."""
    t0 = time.perf_counter()
    col = _Collector()
    rows = theoremb_rows(cfg, range(1, 6))
    for name, ok, residual in trend_checks(rows, cfg.trend_tol):
        col.add(name, ok, residual)
    return VerificationReport("theoremb", tuple(col.checks), cfg,
                              time.perf_counter() - t0)


def slice_suite(cfg: SessionConfig) -> VerificationReport:
    """Slices of the coproduct contract the seminorm: 20 seeded triples."""
    t0 = time.perf_counter()
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    gns = GnsContext(alg, actions)
    ber = Berezin(gns)
    col = _Collector()

    xs = random_elements(alg, 20, 2, cfg.seed, sphere=True)
    xis = random_elements(alg, 20, 2, cfg.seed + 7)
    zetas = random_elements(alg, 20, 2, cfg.seed + 13)
    trunc = max(80, min(cfg.norm_truncation, 120))

    worst = -math.inf
    ok = True
    all_conv = True
    for x, xi, zeta in zip(xs, xis, zetas):
        chk = ber.slice_lip_check(x, xi, zeta, truncation=trunc)
        gap = chk.lip_slice - chk.bound * (1 + 1e-4)
        worst = max(worst, gap)
        if gap > 1e-12:
            ok = False
        if not chk.converged:
            all_conv = False
    col.add("slice-contraction-20triples", ok, max(worst, 0.0))
    col.add("slice-estimates-converged", all_conv,
            0.0 if all_conv else 1.0, warn_only=True)
    return VerificationReport("slice", tuple(col.checks), cfg,
                              time.perf_counter() - t0)


def classical_suite(cfg: SessionConfig) -> VerificationReport:
    """q = 1 spectrum: eigenvalues in [0, 1], increasing toward 1."""
    t0 = time.perf_counter()
    alg = make_algebra(1, 1)
    actions = UqActions(alg)
    gns = GnsContext(alg, actions)
    ber = Berezin(gns)
    col = _Collector()

    vals: dict = {}
    inrange = True
    worst = 0.0
    for N in range(1, 6):
        spec = ber.spectrum(N, max_spin=max(2, N))
        for n in range(3):
            c = spec.eigenvalue(n).to_complex()
            if abs(c.imag) > 0:
                inrange = False
            v = c.real
            vals[(N, n)] = v
            if not 0.0 <= v <= 1.0:
                inrange = False
                worst = max(worst, max(-v, v - 1.0))
    col.add("spectrum-in-unit-interval", inrange, worst)

    ok = True
    worst = 0.0
    for n in range(3):
        for N in range(1, 5):
            drop = vals[(N, n)] - vals[(N + 1, n)]
            if drop > 1e-3:
                ok = False
            worst = max(worst, drop)
    col.add("spectrum-increasing-in-N", ok, max(worst, 0.0))

    ok = all(vals[(N, 0)] == 1.0 for N in range(1, 6))
    col.add("unit-eigenvalue-one", ok, 0.0 if ok else 1.0)
    return VerificationReport("classical", tuple(col.checks), cfg,
                              time.perf_counter() - t0)


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
    t0 = time.perf_counter()
    try:
        return SUITES[name](cfg)
    except LayerInconsistency as exc:
        return layer_failure(name, cfg, exc, time.perf_counter() - t0)


def layer_failure(name: str, cfg: SessionConfig, exc: LayerInconsistency,
                  seconds: float = 0.0) -> VerificationReport:
    """A convention bug is a failed verification, not a crash: the
    report of one failed layer-consistency check."""
    check = CheckResult("layer-consistency", "fail", 1.0, 0.0, str(exc))
    return VerificationReport(name, (check,), cfg, seconds)
