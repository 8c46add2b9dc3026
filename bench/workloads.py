"""The three benchmark workloads.

Each workload does its set-up in `__init__`, runs one round of
operations in `run_round`, which returns the outputs and the wall time
of each operation, and checks a round's outputs against the references
in `check`, outside the timed operations.  Every round repeats
the same operations on the same inputs, so the share of failed
operations is the same in every run.  Program functions are always
looked up through their module at call time, so the tracer's wrappers
see every call.  The importer puts the program's src/ on sys.path.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction

import numpy as np
from qsphere import cli, exprs, mkdist, session, specnorm, suites

import refs
from setup_probe import contexts

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
TRUNCATION = 200


class Outcome:
    """Tally of one checked round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []       # failed checks other than the known fault
        self.notes = []

    def op(self, known_fault: bool = False, problem: str = "") -> None:
        """Count one operation; it failed if it hit the known converged-flag
        fault or any check, and a failed check makes the run incorrect."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)
        elif known_fault:
            self.failed += 1


class OpTimer:
    """Calls functions and keeps each call's wall time, in call order."""

    def __init__(self):
        self.times = []

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times.append(time.perf_counter() - t0)
        return out


def _rand_fraction(rng) -> Fraction:
    num = int(rng.integers(1, 10)) * (1 if rng.integers(0, 2) else -1)
    return Fraction(num, int(rng.integers(1, 8)))


def sphere_specs(rng, count: int, min_degree: int, max_degree: int,
                 imaginary: bool) -> list:
    """Seeded sphere elements as data: lists of (re, im, i, j, star) terms
    standing for (re + i*im) * (B or Bs)^i * A^j, with
    min_degree <= i + j <= max_degree."""
    pool = []
    for d in range(min_degree, max_degree + 1):
        for i in range(d + 1):
            pool.append((i, d - i, False))
            if i:
                pool.append((i, d - i, True))
    out = []
    for _ in range(count):
        k = int(rng.integers(2, 5))
        picks = rng.choice(len(pool), size=k, replace=False)
        terms = []
        for p in picks:
            re = _rand_fraction(rng)
            im = (_rand_fraction(rng) if imaginary and rng.integers(0, 2)
                  else Fraction(0))
            terms.append((re, im) + pool[int(p)])
        out.append(terms)
    return out


def build_sphere(alg, terms: list):
    x = alg.scalar_element(alg.field.zero)
    for re, im, i, j, star in terms:
        gen = alg.sphere_B_star if star else alg.sphere_B
        x = x + ((gen ** i) * (alg.sphere_A ** j)).scale(
            alg.field.from_parts(re, im))
    return x


def sphere_text(terms: list) -> str:
    """Expression-grammar text of real-coefficient sphere terms."""
    bits = []
    for re, _im, i, j, star in terms:
        factors = [f"({re})"]
        if i:
            factors.append(("Bs" if star else "B") + (f"^{i}" if i > 1 else ""))
        if j:
            factors.append("A" + (f"^{j}" if j > 1 else ""))
        bits.append("*".join(factors))
    return " + ".join(bits)


# -- contraction -------------------------------------------------------------------


class Contraction:
    """Lip seminorm of sphere elements and of their level-N transforms, q = 9/10.

    The fixed elements run levels 0..5; six of their level-1 images sit on
    a near-degenerate top singular pair, where the power iteration stops
    while 1e-7 low and still reports convergence.  Those six estimates
    are the operations counted as failed.  Seeded elements have terms of
    degree 2..4 and run levels 0 and 2..5.  Level-1 images are spin-1
    elements and seeded degree-1 terms make spin-1 parts dominate; there
    an estimate takes 0.01 s or stalls for 3.5 s, and passes or
    mis-reports convergence, depending on the coefficients, so seeded
    inputs of that kind would make both the run time and the failure
    count depend on the seed.  One fixed element, `B + 2*Bs`, stalls on
    its own: its level-0 estimate runs the power iteration to its
    100 000-iteration cap (about 3.5 s) and reports no convergence, which
    is correct, so it passes; it keeps the cost of the stall in `wall_s`.
    """

    q_text = "9/10"
    FIXED = [
        "A*B + Bs*A", "B*A^2 + Bs^2*A", "2*B*A + Bs^2", "A*Bs + 1/2*B^3",
        "A*B*A", "Bs*A^3 - B^2", "3*A - B + Bs", "A^3 + B^2*Bs",
    ]
    FIXED_LEVELS = (0, 1, 2, 3, 4, 5)
    STALLED = "B + 2*Bs"
    SEEDED = 8
    SEEDED_LEVELS = (0, 2, 3, 4, 5)

    def __init__(self, seed: int):
        self.cfg = session.SessionConfig(q_text=self.q_text,
                                         norm_truncation=TRUNCATION)
        self.alg, self.actions, _ctx, self.ber = contexts(self.cfg)
        rng = np.random.default_rng([seed, 11])
        self.inputs = []       # (label, element, levels, fixed)
        for text in self.FIXED:
            self.inputs.append((text, exprs.parse_expression(self.alg, text),
                                self.FIXED_LEVELS, True))
        self.inputs.append((self.STALLED,
                            exprs.parse_expression(self.alg, self.STALLED),
                            (0,), True))
        for n, terms in enumerate(sphere_specs(rng, self.SEEDED, 2, 4, True)):
            self.inputs.append((f"seeded{n}", build_sphere(self.alg, terms),
                                self.SEEDED_LEVELS, False))
        self._refs = {}        # (input index, N) -> (image, dense sigma)

    def _estimate(self, x, N: int):
        y = x if N == 0 else self.ber.via_coproduct(x, N)
        return y, specnorm.lip_norm(self.actions, y, TRUNCATION,
                                    ladder=False).value

    def run_round(self) -> tuple:
        timer = OpTimer()
        out = []
        for idx, (_label, x, levels, _fixed) in enumerate(self.inputs):
            for N in levels:
                y, est = timer(self._estimate, x, N)
                out.append((idx, N, y, est.lower_bound,
                            est.iteration_converged))
        return out, timer.times

    def _reference(self, idx: int, N: int, y):
        hit = self._refs.get((idx, N))
        if hit is None:
            hit = (y, refs.dense_sigma(self.actions, y, TRUNCATION))
            self._refs[(idx, N)] = hit
        return hit

    def check(self, outputs: list) -> Outcome:
        res = Outcome()
        sigma0 = {}
        mismatches = 0
        unconverged = 0
        for idx, N, y, lower, converged in outputs:
            label, _x, _levels, fixed = self.inputs[idx]
            first_y, sigma = self._reference(idx, N, y)
            where = f"{label} N={N}"
            if N == 0:
                sigma0[idx] = sigma
            problem = ""
            if y != first_y:
                problem = f"{where}: transform differs between rounds"
            elif not refs.lower_bound_ok(lower, sigma):
                problem = f"{where}: lower bound {lower!r} above dense {sigma!r}"
            elif N > 0 and not refs.contracts(sigma, sigma0[idx]):
                problem = (f"{where}: transform raised the seminorm "
                           f"{sigma0[idx]!r} -> {sigma!r}")
            unconverged += not converged
            fault = refs.flag_mismatch(lower, converged, sigma)
            if fault and not fixed:
                mismatches += 1
            res.op(known_fault=fault and fixed, problem=problem)
        if mismatches:
            res.notes.append(f"{mismatches} seeded estimates report convergence "
                             f"off the dense SVD (not counted as failed)")
        if unconverged:
            res.notes.append(f"estimates stopped at the iteration cap, "
                             f"reporting no convergence: {unconverged}")
        return res


# -- distance ----------------------------------------------------------------------


class Distance:
    """Distance-trend rows at q = 1/2 with the default search settings."""

    q_text = "1/2"
    LEVELS = (1, 2)

    def __init__(self, seed: int):
        self.cfg = session.SessionConfig(q_text=self.q_text,
                                         norm_truncation=TRUNCATION,
                                         seed=seed)
        contexts(self.cfg)

    def run_round(self) -> tuple:
        timer = OpTimer()
        return timer(suites.theoremb_rows, self.cfg, self.LEVELS), timer.times

    def check(self, rows: list) -> Outcome:
        res = Outcome()
        tol = self.cfg.trend_tol
        prev = None
        for row in rows:
            where = f"N={row['N']}"
            problem = ""
            if not row["dist_lb"] > 0:
                problem = f"{where}: dist_lb {row['dist_lb']!r} not positive"
            elif prev is not None and row["dist_lb"] > prev + tol:
                problem = f"{where}: dist_lb rose {prev!r} -> {row['dist_lb']!r}"
            elif row["dist_lb"] > row["dist_heuristic"]:
                problem = f"{where}: certified above heuristic value"
            elif row["probe_flagged"]:
                problem = f"{where}: a probe ratio was flagged"
            elif row["min_lipSlack"] < -1e-6:
                problem = f"{where}: approximant raised the seminorm"
            prev = row["dist_lb"]
            res.op(problem=problem)
        degraded = sum(1 for r in rows if r["degraded"])
        if degraded:
            res.notes.append(f"{degraded} of {len(rows)} certified searches "
                             f"fell back to the probe witnesses")
        return res


# -- symbolic ----------------------------------------------------------------------


class Symbolic:
    """Exact-arithmetic stack at q = 1/2: Gram oracle, spectrum, both
    transform routes and four in-process CLI calls, on a fresh algebra
    every round so that no product, coproduct or chain cache carries over."""

    q_text = "1/2"
    GRAM_BASIS = 100
    SPECTRUM_LEVELS = (1, 2, 3, 4, 5, 6)
    DUAL_LEVELS = (1, 2, 3)
    CLI_SPECTRUM = (4, 5)       # level and max spin of the spectrum call
    CLI_BEREZIN_LEVEL = 3

    def __init__(self, seed: int):
        self.cfg = session.SessionConfig(q_text=self.q_text,
                                         norm_truncation=TRUNCATION)
        self.q = self.cfg.q
        self.alg, self.actions, self.gns, _ber = contexts(self.cfg)
        self._probe_sigma = None    # dense references, made at the first check
        rng = np.random.default_rng([seed, 23])
        self.dual_specs = sphere_specs(rng, 4, 1, 4, True)
        ls = rng.choice(7, size=3, replace=False)
        self.haar_terms = [(_rand_fraction(rng), int(l)) for l in ls]
        zero_term = (_rand_fraction(rng), int(rng.integers(1, 3)))
        haar_text = " + ".join(f"({c})*A^{l}" if l else f"({c})"
                               for c, l in self.haar_terms)
        haar_text += f" + ({zero_term[0]})*B^{zero_term[1]}"
        self.berezin_terms = sphere_specs(rng, 1, 1, 3, False)[0]
        self.word = [str(w) for w in rng.choice(["a", "as", "b", "bs"], size=6)]
        tag = f"symbolic-{os.getpid()}"
        self.paths = {k: os.path.join(OUT_DIR, f"{tag}-{k}.json")
                      for k in ("haar", "spectrum", "berezin", "expand")}
        N, spin = self.CLI_SPECTRUM
        self.cli_args = {
            "haar": ["haar", "--expr", haar_text],
            "spectrum": ["spectrum", "--N", str(N), "--max-spin", str(spin)],
            "berezin": ["berezin", "--N", str(self.CLI_BEREZIN_LEVEL),
                        "--expr", sphere_text(self.berezin_terms)],
            "expand": ["expand", "--expr", "*".join(self.word)],
        }
        os.makedirs(OUT_DIR, exist_ok=True)

    def run_round(self) -> tuple:
        timer = OpTimer()
        alg, actions, _ctx, ber = timer(contexts, self.cfg)
        gram = [timer(specnorm.lip_norm_gram_oracle, actions, p,
                      basis_size=self.GRAM_BASIS)
                for p in mkdist.default_probes(alg)]
        spectra = {N: timer(ber.spectrum, N, N, verify=True)
                   for N in self.SPECTRUM_LEVELS}
        dual = []
        for terms in self.dual_specs:
            x = build_sphere(alg, terms)
            for N in self.DUAL_LEVELS:
                dual.append(timer(lambda: (ber.via_coproduct(x, N),
                                           ber.via_spectrum(x, N))))
        codes = {k: timer(cli.main, args + ["--q", self.q_text, "--out",
                                            self.paths[k]])
                 for k, args in self.cli_args.items()}
        return {"gram": gram, "spectra": spectra, "dual": dual,
                "codes": codes}, timer.times

    def _artifact(self, key: str):
        try:
            with open(self.paths[key], encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            return exc
        finally:
            if os.path.exists(self.paths[key]):
                os.remove(self.paths[key])

    def _spectrum_problem(self, N: int, entries: list) -> str:
        for n, c in entries:
            if c is None or c != refs.spectrum_value(self.q, N, n):
                return f"spectrum N={N} n={n}: {c} differs from the closed form"
        return ""

    def check(self, out: dict) -> Outcome:
        res = Outcome()
        if self._probe_sigma is None:
            self._probe_sigma = [refs.dense_sigma(self.actions, p, TRUNCATION)
                                 for p in mkdist.default_probes(self.alg)]
        for j, (est, sigma) in enumerate(zip(out["gram"], self._probe_sigma)):
            rel = abs(est.lower_bound - sigma) / max(sigma, 1e-300)
            res.op(problem="" if rel <= refs.GRAM_REL_TOL else
                   f"gram oracle probe {j}: relative gap {rel:.3g}")
        for N, spec in out["spectra"].items():
            problem = self._spectrum_problem(N, [
                (n, refs.exact_fraction(spec.eigenvalues[n]))
                for n in range(N + 1)])
            if not problem and spec.verified_to != N:
                problem = f"spectrum N={N}: layers verified only to {spec.verified_to}"
            res.op(problem=problem)
        for k, (by_coproduct, by_spectrum) in enumerate(out["dual"]):
            res.op(problem="" if by_coproduct == by_spectrum else
                   f"dual route {k}: coproduct and spectrum routes differ")
        for key in ("haar", "spectrum", "berezin", "expand"):
            obj = self._artifact(key)
            if out["codes"][key] != 0 or not isinstance(obj, dict):
                res.op(problem=f"cli {key}: exit {out['codes'][key]}, {obj!r}")
                continue
            res.op(problem=getattr(self, "_check_" + key)(obj))
        return res

    def _check_haar(self, obj: dict) -> str:
        want = sum((c * refs.haar_moment(self.q, l) for c, l in self.haar_terms),
                   Fraction(0))
        got = refs.obj_fraction(obj["scalar"])
        return "" if got == want else f"cli haar: {got} != closed form {want}"

    def _check_spectrum(self, obj: dict) -> str:
        N, spin = self.CLI_SPECTRUM
        rows = obj["spectrum"]
        if [r["n"] for r in rows] != list(range(spin + 1)):
            return "cli spectrum: wrong spin rows"
        return self._spectrum_problem(
            N, [(r["n"], refs.obj_fraction(r["c"])) for r in rows])

    def _check_berezin(self, obj: dict) -> str:
        N = self.CLI_BEREZIN_LEVEL
        problem = self._spectrum_problem(
            N, [(r["n"], refs.obj_fraction(r["c"])) for r in obj["spectrum"]])
        if problem:
            return "cli berezin " + problem
        alg = self.alg
        x = build_sphere(alg, self.berezin_terms)
        want = alg.scalar_element(alg.field.zero)
        for n, layer in self.gns.spin_split(x).items():
            c = refs.spectrum_value(self.q, N, n)
            want = want + layer.scale(alg.field.from_rational(c.numerator,
                                                              c.denominator))
        got = exprs.obj_to_element(alg, obj["element"])
        return "" if got == want else "cli berezin: image differs from closed form"

    def _check_expand(self, obj: dict) -> str:
        gap = refs.normal_form_residual(float(self.q), self.word, obj["element"])
        return "" if gap <= 1e-9 else f"cli expand: shift-model gap {gap:.3g}"


WORKLOADS = {"contraction": Contraction, "distance": Distance,
             "symbolic": Symbolic}
