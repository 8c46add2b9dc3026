"""Session configuration: one record of the settings that change a number.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .qhopf import Algebra, make_algebra, make_algebra_float

# schema tag of every artifact; raised whenever an artifact's keys change
SCHEMA = "qsphere/4"


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
    """The six settings that change a number; output and deployment
    options live on the subcommands they affect.

    q_text keeps the user's literal spelling so the echo in artifacts
    round-trips; scalar_mode 'exact' uses rational/cyclotomic-free
    arithmetic, 'float' uses arbitrary-precision complex at `precision`
    digits.  norm_truncation is the representation size for norm
    estimates, search_truncation the fuzzy level for distance search.
    trend_tol, the slack of the distance-trend checks, is not a setting.
    """

    q_text: str = "1/2"
    scalar_mode: str = "exact"
    precision: int = 50
    norm_truncation: int = 200
    search_truncation: int = 4
    seed: int = 0
    trend_tol: ClassVar[float] = 1e-3

    def __post_init__(self):
        parse_q(self.q_text)
        if self.scalar_mode not in ("exact", "float"):
            raise ValueError("scalar_mode must be exact or float")
        if self.precision < 15:
            raise ValueError("precision must be at least 15 digits")
        if self.norm_truncation < 2:
            raise ValueError("norm truncation must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def q(self) -> Fraction:
        return parse_q(self.q_text)

    def build_algebra(self) -> Algebra:
        q = self.q
        if self.scalar_mode == "exact":
            return make_algebra(q.numerator, q.denominator)
        return make_algebra_float(q.numerator / q.denominator,
                                  precision=self.precision)

    def to_obj(self) -> dict:
        return {
            "q": self.q_text,
            "scalarMode": self.scalar_mode,
            "precision": self.precision,
            "normTruncation": self.norm_truncation,
            "searchTruncation": self.search_truncation,
            "seed": self.seed,
        }
