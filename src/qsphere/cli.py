"""Command line surface: one binary, subcommands per operation.

Every artifact embeds the full session configuration and the schema tag
"qsphere/3" (session.SCHEMA); reruns with identical configuration and
seed reproduce the bytes.  Wall-clock timings never enter artifacts
unless asked for, so they do not break reproducibility.

Exit codes: 0 success, 1 usage or input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import replace

from . import exprs
from .berezin import Berezin, LayerInconsistency
from .exprs import QExprError, canonical_json
from .gns import GnsContext
from .qhopf import Algebra
from .session import SCHEMA, SessionConfig
from .uq_actions import ACTIONS, UqActions


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", default="1/2",
                        help="deformation parameter, rational p/r or decimal")
    common.add_argument("--scalar-mode", default="exact",
                        choices=("exact", "float"))
    common.add_argument("--precision", type=int, default=50,
                        help="working digits in float mode")
    common.add_argument("--trunc", type=int, default=200,
                        help="representation size for norm estimates")
    common.add_argument("--M", type=int, default=4, dest="M",
                        help="fuzzy truncation level for search spaces")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--gap", type=float, default=0.05,
                        help="estimator-quality gap for probe ratios")
    common.add_argument("--cache-dir", default="",
                        help="cache directory (default: QSPHERE_CACHE)")
    # None when not given: verify --N and sweep refuse an explicit json
    common.add_argument("--format", choices=("json", "csv"),
                        help="artifact format (default json; verify --N "
                             "and sweep write only CSV)")
    common.add_argument("--out", default="",
                        help="write the artifact to this path instead of stdout")
    common.add_argument("--print-config", action="store_true",
                        help="dump the resolved configuration and exit")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in verify reports "
                             "(non-reproducible)")

    p = _Parser(prog="qsphere", description=__doc__)
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("expand", parents=[common],
                        help="parse an expression and emit its normal form")
    sp.add_argument("--expr", required=True)

    sp = sub.add_parser("haar", parents=[common],
                        help="Haar state of an expression")
    sp.add_argument("--expr", required=True)

    sp = sub.add_parser("coproduct", parents=[common],
                        help="coproduct of an expression")
    sp.add_argument("--expr", required=True)

    sp = sub.add_parser("act", parents=[common],
                        help="apply a derivation or character action")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--action", required=True, choices=tuple(ACTIONS))

    sp = sub.add_parser("berezin", parents=[common],
                        help="level-N transform of a sphere expression")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--N", type=int, required=True)

    sp = sub.add_parser("spectrum", parents=[common],
                        help="transform eigenvalues by spin layer")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--max-spin", type=int, default=4)

    sp = sub.add_parser("lipnorm", parents=[common],
                        help="Lip seminorm estimate with provenance")
    sp.add_argument("--expr", required=True)

    sp = sub.add_parser("dist", parents=[common],
                        help="distance lower bound between the level-N "
                             "state and the counit")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--mode", default="certified",
                    choices=("certified", "heuristic"))

    sp = sub.add_parser("verify", parents=[common],
                        help="run a verification suite, or the trend "
                             "harness over a level range")
    sp.add_argument("--suite", default="",
                    help="suite name or 'all' (see --list-suites)")
    sp.add_argument("--N", default="", dest="n_range",
                    help="level range like 1..5 for the trend harness")
    sp.add_argument("--list-suites", action="store_true")

    sp = sub.add_parser("sweep", parents=[common],
                        help="grid run over (q, N, M) cells, resumable")
    sp.add_argument("--q-list", required=True,
                    help="comma-separated q values, e.g. 1/2,9/10")
    sp.add_argument("--N", required=True, dest="n_range",
                    help="level range like 1..3")
    sp.add_argument("--M-range", required=True,
                    help="search truncation range like 2..4")
    return p


def _config_from(ns) -> SessionConfig:
    try:
        return SessionConfig(
            q_text=ns.q,
            scalar_mode=ns.scalar_mode,
            precision=ns.precision,
            norm_truncation=ns.trunc,
            search_truncation=ns.M,
            estimator_gap=ns.gap,
            seed=ns.seed,
            cache_dir=ns.cache_dir,
            output_format=ns.format or "json",
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _emit(ns, text: str) -> None:
    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {ns.out!r}: "
                             f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _artifact(cfg: SessionConfig, kind: str, payload: dict) -> dict:
    out = {"schema": SCHEMA, "kind": kind, "config": cfg.to_obj()}
    out.update(payload)
    return out


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _parse_range(text: str) -> list:
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise UsageError(f"bad range {text!r}, expected like 1..5")


def _parse_expr(alg: Algebra, text: str):
    try:
        return exprs.parse_expression(alg, text)
    except QExprError as exc:
        # message already carries the 1-based line and column
        raise UsageError(str(exc)) from exc


def _scalar_payload(field, value) -> dict:
    out = {"scalar": exprs.scalar_to_obj(value, field)}
    z = complex(value.to_complex())   # exact mode: OverflowError
    if not cmath.isfinite(z):           # float mode: 1e400 reads as inf
        raise OverflowError
    out["float"] = z.real if z.imag == 0 else [z.real, z.imag]
    return out


def _element_payload(x) -> dict:
    return {"element": exprs.element_to_obj(x),
            "text": exprs.element_to_text(x)}


def _norm_payload(est) -> dict:
    return {
        "lowerBound": est.lower_bound,
        "upperBound": est.upper_bound,
        "converged": est.converged,
        "MUsed": est.M_used,
        "ladder": list(est.ladder),
        "notes": list(est.notes),
    }


# -- subcommand bodies -------------------------------------------------------


def _cmd_expand(ns, cfg: SessionConfig) -> int:
    alg = cfg.build_algebra()
    x = _parse_expr(alg, ns.expr)
    _emit(ns, canonical_json(_artifact(cfg, "element", _element_payload(x))))
    return 0


def _cmd_haar(ns, cfg: SessionConfig) -> int:
    alg = cfg.build_algebra()
    x = _parse_expr(alg, ns.expr)
    payload = _scalar_payload(alg.field, alg.haar(x))
    _emit(ns, canonical_json(_artifact(cfg, "haar", payload)))
    return 0


def _cmd_coproduct(ns, cfg: SessionConfig) -> int:
    alg = cfg.build_algebra()
    x = _parse_expr(alg, ns.expr)
    t = alg.coproduct(x)
    terms = []
    for (ml, mr) in sorted(t.terms):
        c = t.terms[(ml, mr)]
        terms.append({
            "left": {"aExp": ml.a_exp, "bExp": ml.b_exp,
                     "bStarExp": ml.bs_exp},
            "right": {"aExp": mr.a_exp, "bExp": mr.b_exp,
                      "bStarExp": mr.bs_exp},
            "coeff": exprs.scalar_to_obj(c, alg.field),
        })
    _emit(ns, canonical_json(_artifact(cfg, "coproduct", {"terms": terms})))
    return 0


def _cmd_act(ns, cfg: SessionConfig) -> int:
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    x = _parse_expr(alg, ns.expr)
    payload = _element_payload(actions.twisted_derivation(ns.action, x))
    payload["action"] = ns.action
    _emit(ns, canonical_json(_artifact(cfg, "action", payload)))
    return 0


def _emit_spectrum(ns, cfg: SessionConfig, ber: Berezin, top: int,
                   kind: str, payload: dict) -> int:
    """Emit the level-N eigenvalues of spins 0..top: as an n,c CSV, or
    added to payload as the artifact of the given kind.  A spin layer
    that fails the coproduct check emits the failed layer-consistency
    report instead and exits 2, as `verify` does."""
    try:
        spec = ber.spectrum(ns.N, max_spin=max(top, ns.N))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    except LayerInconsistency as exc:
        from . import suites
        report = suites.layer_failure(kind, cfg, exc)
        _emit(ns, canonical_json(report.to_obj()))
        return 2
    rows = [(n, float(spec.eigenvalue(n).to_complex().real))
            for n in range(top + 1)]
    if cfg.output_format == "csv":
        _emit(ns, _csv_text(["n", "c"],
                            [(n, _fmt_float(c)) for n, c in rows]))
        return 0
    payload["N"] = ns.N
    payload["spectrum"] = [
        {"n": n, "c": exprs.scalar_to_obj(spec.eigenvalue(n), ber.alg.field),
         "float": c} for n, c in rows]
    _emit(ns, canonical_json(_artifact(cfg, kind, payload)))
    return 0


def _cmd_berezin(ns, cfg: SessionConfig) -> int:
    alg = cfg.build_algebra()
    ber = Berezin(GnsContext(alg))
    x = _parse_expr(alg, ns.expr)
    try:
        y = ber.via_coproduct(x, ns.N)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return _emit_spectrum(ns, cfg, ber, max(x.sphere_degree(), 1),
                          "berezin", _element_payload(y))


def _cmd_spectrum(ns, cfg: SessionConfig) -> int:
    if ns.max_spin < 0:
        raise UsageError("--max-spin must be non-negative")
    ber = Berezin(GnsContext(cfg.build_algebra()))
    return _emit_spectrum(ns, cfg, ber, ns.max_spin, "spectrum", {})


def _cmd_lipnorm(ns, cfg: SessionConfig) -> int:
    from . import specnorm
    alg = cfg.build_algebra()
    actions = UqActions(alg)
    x = _parse_expr(alg, ns.expr)
    res = specnorm.lip_norm(actions, x, cfg.norm_truncation)
    payload = _norm_payload(res.value)
    payload["components"] = {
        k: exprs.element_to_text(v) for k, v in res.components.items()}
    _emit(ns, canonical_json(_artifact(cfg, "lipnorm", payload)))
    return 0


def _cmd_dist(ns, cfg: SessionConfig) -> int:
    from . import mkdist
    ber = Berezin(GnsContext(cfg.build_algebra()))
    est = mkdist.estimate_distance(ber, ns.N, cfg.search_truncation,
                                   cfg.norm_truncation, ns.mode)
    payload = {
        "value": est.value,
        "mode": ns.mode,
        "N": ns.N,
        "M": cfg.search_truncation,
        "normTruncation": cfg.norm_truncation,
        "certifiedValue": est.certified_value,
        "heuristicValue": est.heuristic_value,
        "degraded": est.degraded,
        "source": est.source,
        "witness": exprs.element_to_obj(est.witness),
        "witnessText": exprs.element_to_text(est.witness),
    }
    _emit(ns, canonical_json(_artifact(cfg, "distance", payload)))
    return 0


def _cmd_verify(ns, cfg: SessionConfig) -> int:
    from . import suites
    if ns.list_suites:
        _emit(ns, "\n".join(sorted(suites.SUITES)) + "\n")
        return 0
    if ns.suite:
        names = sorted(suites.SUITES) if ns.suite == "all" else [ns.suite]
        reports = []
        for name in names:
            try:
                reports.append(suites.run_suite(name, cfg))
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        if len(reports) == 1:
            obj = reports[0].to_obj(include_timings=ns.timings)
        else:
            obj = {"schema": SCHEMA,
                   "kind": "verify-all",
                   "config": cfg.to_obj(),
                   "suites": [r.to_obj(include_timings=ns.timings)
                              for r in reports]}
        _emit(ns, canonical_json(obj))
        return 0 if all(r.passed for r in reports) else 2
    if ns.n_range:
        levels = _parse_range(ns.n_range)
        rows = suites.theoremb_rows(cfg, levels)
        text = _csv_text(
            ["N", "dist_lb", "max_probe_ratio", "mean_lipSlack"],
            [(r["N"], _fmt_float(r["dist_lb"]),
              _fmt_float(r["max_probe_ratio"]),
              _fmt_float(r["mean_lipSlack"])) for r in rows])
        _emit(ns, text)
        checks = suites.trend_checks(rows, cfg.trend_tol)
        return 0 if all(ok for _name, ok, _res in checks) else 2
    raise UsageError("verify needs --suite NAME or --N RANGE")


_SWEEP_COLUMNS = ("q", "N", "M", "dist_lb", "dist_heuristic",
                  "max_probe_ratio", "mean_lipSlack", "c0", "c1", "c2", "c3",
                  "status")
# the float columns: printed with _fmt_float, blank in an error row
_SWEEP_FLOATS = _SWEEP_COLUMNS[3:-1]


def _sweep_cell(cfg: SessionConfig, N: int, M: int) -> dict:
    """One sweep row: the distance-trend row at search level M, plus the
    first four transform eigenvalues."""
    from . import suites
    row = suites.theoremb_rows(replace(cfg, search_truncation=M), [N])[0]
    spec = Berezin(GnsContext(cfg.build_algebra())).spectrum(
        N, max_spin=max(3, N))
    cs = [float(spec.eigenvalue(n).to_complex().real) for n in range(4)]
    return {
        "q": cfg.q_text, "N": N, "M": M,
        "dist_lb": row["dist_lb"],
        "dist_heuristic": row["dist_heuristic"],
        "max_probe_ratio": row["max_probe_ratio"],
        "mean_lipSlack": row["mean_lipSlack"],
        "c0": cs[0], "c1": cs[1], "c2": cs[2], "c3": cs[3],
        "status": "ok",
    }


def _read_cell(path: str) -> dict | None:
    """Cached sweep row; None when the cell is missing or unreadable,
    so a damaged cell is recomputed and overwritten."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _write_cell(path: str, row: dict) -> None:
    """Write through a temp file and rename, so a killed run never
    leaves half a cell behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(row))
    os.replace(tmp, path)


def _package_digest() -> str:
    """sha256 over the names and bytes of the package's source files, so
    a sweep cell is keyed by the code that computed it."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(b"%s\0%s\0" % (name.encode(), fh.read()))
    return h.hexdigest()


def _cmd_sweep(ns, cfg: SessionConfig) -> int:
    q_texts = [t.strip() for t in ns.q_list.split(",") if t.strip()]
    if not q_texts:
        raise UsageError("empty --q-list")
    levels = _parse_range(ns.n_range)
    m_values = _parse_range(ns.M_range)

    cache_dir = cfg.resolved_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    code = _package_digest()

    rows = []
    for q_text in q_texts:
        try:
            qcfg = cfg.with_q(q_text)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        for N in levels:
            for M in m_values:
                key_src = canonical_json({
                    "cell": [q_text, N, M],
                    "config": {k: v for k, v in qcfg.to_obj().items()
                               if k not in ("cacheDir", "outputFormat")},
                    "code": code,
                })
                key = hashlib.sha256(key_src.encode()).hexdigest()[:24]
                path = os.path.join(cache_dir, f"sweep-{key}.json")
                row = _read_cell(path)
                if row is None:
                    try:
                        row = _sweep_cell(qcfg, N, M)
                    except Exception as exc:  # flagged row, run continues
                        row = dict.fromkeys(_SWEEP_FLOATS, "")
                        row.update(q=q_text, N=N, M=M,
                                   status=f"error: {exc}")
                    else:
                        _write_cell(path, row)
                rows.append(row)

    csv_rows = [[_fmt_float(r[k]) if k in _SWEEP_FLOATS and r[k] != ""
                 else r[k] for k in _SWEEP_COLUMNS] for r in rows]
    _emit(ns, _csv_text(list(_SWEEP_COLUMNS), csv_rows))
    return 0


_COMMANDS = {
    "expand": _cmd_expand,
    "haar": _cmd_haar,
    "coproduct": _cmd_coproduct,
    "act": _cmd_act,
    "berezin": _cmd_berezin,
    "spectrum": _cmd_spectrum,
    "lipnorm": _cmd_lipnorm,
    "dist": _cmd_dist,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise UsageError("a subcommand is required")
        cfg = _config_from(ns)
        if ns.print_config:
            _emit(ns, canonical_json(
                {"schema": SCHEMA, "kind": "config",
                 "config": cfg.to_obj()}))
            return 0
        if cfg.output_format == "csv" and not (
                ns.command in ("spectrum", "sweep")
                or ns.command == "verify" and not ns.suite):
            raise UsageError(f"{ns.command} writes no CSV; --format csv is "
                             "for spectrum, sweep and verify --N")
        if ns.format == "json" and (
                ns.command == "sweep" or ns.command == "verify"
                and ns.n_range and not (ns.suite or ns.list_suites)):
            what = "sweep" if ns.command == "sweep" else "verify --N"
            raise UsageError(f"{what} writes only CSV; omit --format or "
                             "give --format csv")
        return _COMMANDS[ns.command](ns, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError:
        # a value the float layers cannot hold, e.g. a coefficient 1e400
        print("error: value beyond float range", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
