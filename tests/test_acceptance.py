"""End-to-end acceptance: each test runs one verification suite at its
contractual size and budget and reports one summary line.

Budgets are wall-clock seconds on a single core.  Sizes (element counts,
degrees, truncations, level ranges) live inside the suites themselves;
this module pins the configuration, the tolerances and each suite's
check names in report order.
"""

import time

import pytest

from qsphere.session import SessionConfig
from qsphere.suites import run_suite

from acceptance_log import record_acceptance


def _run(label: str, suite: str, cfg: SessionConfig, budget: float,
         names: list):
    t0 = time.perf_counter()
    report = run_suite(suite, cfg)
    dt = time.perf_counter() - t0
    assert [c.name for c in report.checks] == names
    fails = [c.name for c in report.checks if c.status == "fail"]
    detail = f"checks={len(report.checks)}"
    if fails:
        detail += " failing=" + ",".join(fails)
    ok = report.passed and dt < budget
    record_acceptance(label, ok, dt, detail)
    assert report.passed, f"{suite}: failing checks {fails}"
    assert dt < budget, f"{suite} took {dt:.1f}s, budget {budget}s"
    return report


@pytest.fixture(scope="module")
def cfg():
    return SessionConfig(q_text="1/2")


def test_c1_hopf_axioms_exact(cfg):
    # all words to degree 5: product associativity, coproduct axioms,
    # antipode identity, state invariance, exact arithmetic throughout
    _run("1 hopf-axioms-exact", "hopf", cfg, 60.0,
         ["associativity-deg5", "coassociativity-deg5", "counit-axiom-deg5",
          "antipode-axiom-deg5", "haar-bi-invariance-deg5-bbs8"])


def test_c2_twisted_derivations(cfg):
    # 100 random pairs to degree 3: twisted Leibniz, twisted trace; all
    # monomials to degree 4: Leibniz, deltaK multiplicative, star rules,
    # state annihilation and invariance, grading; conjugation by the
    # fundamental corepresentation on sphere monomials to degree 3
    _run("2 twisted-derivations", "derivations", cfg, 120.0,
         ["twisted-leibniz-100pairs", "twisted-trace-100pairs",
          "twisted-leibniz-deg4", "k-multiplicative-deg4", "star-rules-deg4",
          "haar-annihilation-deg4", "k-haar-invariance-deg4", "grading-deg4",
          "corep-conjugation-deg3"])


def test_c3_compression_adjoints(cfg):
    # exact adjoint pattern and spin-layer structure of the compressed
    # derivation matrices through level 5, whose prefix blocks are the
    # lower levels' compressions
    _run("3 compression-adjoints", "projections", cfg, 120.0,
         ["adjoint-pattern-delta12-M5", "selfadjoint-delta3-M5",
          "projection-commutation-M5"])


def test_c4_transform_dual_routes(cfg):
    # 50 random degree-4 sphere elements at levels 1..3 through both
    # transform routes, plus spectrum endpoint identities
    _run("4 transform-dual-routes", "berezin", cfg, 120.0,
         ["dual-route-N1-50elems", "dual-route-N2-50elems",
          "dual-route-N3-50elems", "spectrum-endpoints"])


def test_c5_transform_lip_contraction():
    # levels 1..5 on the 50-element suite at two deformation values;
    # the transform never raises the seminorm beyond tolerance
    t0 = time.perf_counter()
    for q_text in ("1/2", "9/10"):
        cfg_q = SessionConfig(q_text=q_text)
        report = run_suite("lipcontract", cfg_q)
        assert [c.name for c in report.checks] == [
            "contraction-lower-vs-upper", "contraction-tight-1e-6"]
        fails = [c.name for c in report.checks if c.status == "fail"]
        assert report.passed, f"lipcontract q={q_text}: {fails}"
        warns = [c.name for c in report.checks if c.status == "warn"]
        assert not warns, f"lipcontract q={q_text} warns: {warns}"
    dt = time.perf_counter() - t0
    record_acceptance("5 transform-lip-contraction", dt < 600.0, dt,
                      "q=1/2 and q=9/10")
    assert dt < 600.0


def test_c6_seminorm_dual_oracles(cfg):
    # shifted-representation route against the inner-product route,
    # relative agreement 1e-4 at truncation 200
    _run("6 seminorm-dual-oracles", "normoracles", cfg, 300.0,
         ["dual-norm-oracles-rel-1e-4"])


def test_c7_distance_trend(cfg):
    # certified distance bounds and probe defect ratios both decrease
    # across levels 1..5; every probe stays inside the estimator gap
    _run("7 distance-trend", "theoremb", cfg, 1200.0,
         ["dist-lb-non-increasing", "probe-ratio-non-increasing",
          "probe-ratios-within-gap", "approximant-lip-slack"])


def test_c8_slice_seminorm_bound(cfg):
    # 20 vector-pair slices of degree-2 elements obey the product bound
    _run("8 slice-seminorm-bound", "slice", cfg, 300.0,
         ["slice-contraction-20triples", "slice-estimates-converged"])


def test_c9_classical_limit():
    # at q=1 the spectrum lies in [0,1], increases with the level, and
    # is exactly 1 at layer zero
    cfg1 = SessionConfig(q_text="1")
    _run("9 classical-limit", "classical", cfg1, 120.0,
         ["spectrum-in-unit-interval", "spectrum-increasing-in-N",
          "unit-eigenvalue-one"])
