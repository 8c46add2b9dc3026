"""Session configuration: one record that pins down every default.

Each emitted artifact embeds the full configuration, so any number in a
report can be reproduced from the artifact alone.  Identical config and
seed must give bit-identical JSON; wall-clock timings are therefore kept
out of the canonical serialization.  No value is read off a dense SVD:
LAPACK sees only the Cholesky factorizations of b x b blocks behind the
character-norm certificate and the bisection bracket (b = 3-4 for the
seminorms, up to about 100 for Gram oracle matrices), the 2 x 2 SVDs
of the q = 1 grid and the M x M solves of the distance search's simplex.
`lipnorm --q 99/100 --expr "B + Bs" --trunc 100`
and `verify --q 9/10 --suite normoracles` give the same bytes under one
and two OpenBLAS threads; a factorization that rounded differently near
a bisection point could still move a bracketed value, by at most 1e-12.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction

from .qhopf import Algebra, make_algebra, make_algebra_float

# schema tag of every artifact; raised whenever an artifact's keys change
SCHEMA = "qsphere/3"


def parse_q(text: str) -> Fraction:
    """Deformation parameter from 'p/r' or a decimal literal."""
    try:
        q = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse q from {text!r}") from exc
    if not 0 < q <= 1:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    return q


@dataclass(frozen=True)
class SessionConfig:
    """All numeric defaults in one place.

    q_text keeps the user's literal spelling so the echo in artifacts
    round-trips; scalar_mode 'exact' uses rational/cyclotomic-free
    arithmetic, 'float' uses arbitrary-precision complex at `precision`
    digits.  norm_truncation is the representation size for norm
    estimates, search_truncation the fuzzy level for distance search.
    """

    q_text: str = "1/2"
    scalar_mode: str = "exact"
    precision: int = 50
    norm_truncation: int = 200
    search_truncation: int = 4
    trend_tol: float = 1e-3
    estimator_gap: float = 0.05
    seed: int = 0
    cache_dir: str = ""
    output_format: str = "json"

    def __post_init__(self):
        parse_q(self.q_text)
        if self.scalar_mode not in ("exact", "float"):
            raise ValueError("scalar_mode must be exact or float")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be json or csv")
        if self.precision < 15:
            raise ValueError("precision must be at least 15 digits")
        if self.norm_truncation < 2:
            raise ValueError("norm truncation must be at least 2")
        if not 0 <= self.estimator_gap < float("inf"):   # NaN fails too
            raise ValueError("estimator gap must be finite and "
                             f"non-negative, got {self.estimator_gap}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def q(self) -> Fraction:
        return parse_q(self.q_text)

    def with_q(self, q_text: str) -> "SessionConfig":
        return replace(self, q_text=q_text)

    def build_algebra(self) -> Algebra:
        q = self.q
        if self.scalar_mode == "exact":
            return make_algebra(q.numerator, q.denominator)
        return make_algebra_float(q.numerator / q.denominator,
                                  precision=self.precision)

    def resolved_cache_dir(self) -> str:
        if self.cache_dir:
            return self.cache_dir
        env = os.environ.get("QSPHERE_CACHE", "")
        if env:
            return env
        return os.path.join(os.path.expanduser("~"), ".cache", "qsphere")

    def to_obj(self) -> dict:
        return {
            "q": self.q_text,
            "scalarMode": self.scalar_mode,
            "precision": self.precision,
            "normTruncation": self.norm_truncation,
            "searchTruncation": self.search_truncation,
            "trendTol": self.trend_tol,
            "estimatorGap": self.estimator_gap,
            "seed": self.seed,
            "cacheDir": self.cache_dir,
            "outputFormat": self.output_format,
        }
