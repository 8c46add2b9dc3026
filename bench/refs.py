"""References computed apart from the program, and the checks built on them.

Closed forms run in `fractions.Fraction` with q^2-integers
[j] = sum_{k<j} q^(2k):

* transform spectrum  c_{N,n} = [N]! [N+1]! / ([N-n]! [N+n+1]!), zero for n > N;
* Haar moments        h((b b*)^l) = 1 / [l+1].

Seminorm references are the dense SVD of the program's truncated
derivation block matrix.  Normal forms are checked in a weighted-shift
model of the generators written here with numpy alone.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from qsphere import specnorm

# a seminorm estimate that reports convergence must sit this close to the
# dense SVD; the program's power iteration stops on a 1e-12 Ritz change
FLAG_REL_TOL = 1e-10
# the transform may not raise the seminorm by more than this share
CONTRACTION_TOL = 1e-6
# roundoff allowance for a lower bound measured against the dense SVD
LOWER_BOUND_SLACK = 1e-12
# Gram oracle against the dense SVD, the gate of the normoracles suite
GRAM_REL_TOL = 1e-4


def q_int(q: Fraction, j: int) -> Fraction:
    """[j] = 1 + q^2 + ... + q^(2(j-1))."""
    q2 = q * q
    return sum((q2 ** k for k in range(j)), Fraction(0))


def q_factorial(q: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(1, j + 1):
        out *= q_int(q, i)
    return out


def spectrum_value(q: Fraction, N: int, n: int) -> Fraction:
    """Closed-form eigenvalue c_{N,n} of the level-N transform on spin n."""
    if n > N:
        return Fraction(0)
    return (q_factorial(q, N) * q_factorial(q, N + 1)
            / (q_factorial(q, N - n) * q_factorial(q, N + n + 1)))


def haar_moment(q: Fraction, l: int) -> Fraction:
    """Closed-form Haar value h((b b*)^l) = 1 / [l+1]."""
    return 1 / q_int(q, l + 1)


def exact_fraction(scalar) -> Fraction | None:
    """The rational value of an exact scalar, or None if it is not rational."""
    if scalar.im or scalar.sre or scalar.sim:
        return None
    return scalar.re


def obj_fraction(obj: dict) -> Fraction | None:
    """The rational value of a scalar in artifact form, or None."""
    if any(k in obj for k in ("imNum", "surdNum", "surdImNum", "re", "im")):
        return None
    return Fraction(obj["num"], obj["den"])


# -- seminorm references -------------------------------------------------------


def dense_sigma(actions, x, truncation: int) -> float:
    """Largest singular value of the dense derivation block matrix of x."""
    q = x.alg.field.float_q()
    trunc = specnorm.RepTruncation(q, truncation, 0.0)
    mat = specnorm.delta_block_matrix(actions, x, trunc).toarray()
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def lower_bound_ok(estimate: float, sigma: float) -> bool:
    """No lower bound may exceed the dense singular value."""
    return estimate <= sigma * (1.0 + LOWER_BOUND_SLACK) + 1e-300


def flag_mismatch(estimate: float, converged: bool, sigma: float) -> bool:
    """True when an estimate claims convergence but sits off the dense SVD."""
    if not converged:
        return False
    if sigma == 0.0:
        return estimate != 0.0
    return abs(sigma - estimate) / sigma > FLAG_REL_TOL


def contracts(sigma_image: float, sigma_source: float) -> bool:
    """The transform does not raise the seminorm."""
    return sigma_image <= sigma_source * (1.0 + CONTRACTION_TOL)


# -- weighted-shift model for normal forms --------------------------------------


def shift_generators(q: float, dim: int, theta: float) -> dict:
    """Generators on l^2(0..dim-1): a raises with weights sqrt(1-q^(2n+2)),
    b is diagonal e^(i theta) q^n; both satisfy the defining relations
    away from the truncation edge."""
    n = np.arange(dim, dtype=float)
    a = np.zeros((dim, dim), dtype=complex)
    a[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(1.0 - q ** (2 * n[1:]))
    b = np.diag(np.exp(1j * theta) * q ** n)
    return {"a": a, "as": a.conj().T, "b": b, "bs": b.conj().T}


def word_matrix(gens: dict, word: list) -> np.ndarray:
    out = np.eye(gens["a"].shape[0], dtype=complex)
    for letter in word:
        out = out @ gens[letter]
    return out


def normal_form_matrix(gens: dict, terms: list) -> np.ndarray:
    """Matrix of a normal-form artifact: sum of c * a^k b^l b*^m, with
    negative k standing for (a*)^|k|."""
    dim = gens["a"].shape[0]
    out = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        k, l, m = t["aExp"], t["bExp"], t["bStarExp"]
        if "surd" in t or "coeffSurdNum" in t or "coeffSurdImNum" in t:
            raise ValueError("surd coefficient in a rational-q normal form")
        c = (t["coeffNum"] / t["coeffDen"]
             + 1j * t.get("coeffImNum", 0) / t.get("coeffImDen", 1))
        word = ["a" if k > 0 else "as"] * abs(k) + ["b"] * l + ["bs"] * m
        out = out + c * word_matrix(gens, word)
    return out


def normal_form_residual(q: float, word: list, terms: list,
                         dim: int = 48) -> float:
    """Relative gap between a generator word and its claimed normal form,
    on the basis vectors the truncation cannot reach."""
    worst = 0.0
    inner = dim - len(word) - 1
    for theta in (0.7, 2.3):
        gens = shift_generators(q, dim, theta)
        lhs = word_matrix(gens, word)[:, :inner]
        rhs = normal_form_matrix(gens, terms)[:, :inner]
        scale = max(float(np.abs(lhs).max()), 1e-300)
        worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    return worst
