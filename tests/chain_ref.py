"""A second route to the exact Gram oracle columns <w'_alpha, y w_j>.

gns._GradedOrtho.image_columns multiplies each symbol monomial into the
chain monomials and projects the products on integer columns.  This
route forms no product and reads no chain vector.  It moves a chain
vector through y = a^k b^l b*^n one generator at a time, by closed forms
in the chains' squared norms alone, and reads each squared norm off an
LDL^T of the chain's Gram matrix h(m_t* m_u), each entry the Haar state
of a product.

Chain k of right degree r starts at m_0 = a^k b^(r-k) if r >= k, and at
m_0 = a^k b*^(k-r) otherwise; w_t = m_0 P_t(A) is its t-th monic vector
and s_t = <w_t, w_t>.  Primes mark the target chain, and a term with
index -1 is absent.  Left multiplication by a generator maps chain
(k, r) to one chain:

  b   to (k, r+1):   q^k (w'_t + s_t/s'_(t-1) w'_(t-1))  if m_0 has no b*,
                     q^k (w'_(t+1) + s_t/s'_t w'_t)       otherwise;
  b*  to (k, r-1):   the same two forms, switched on whether m_0 has a b;
  a   to (k+1, r+1): w'_t - q^(2k+2) s_t/s'_(t-1) w'_(t-1)  for k >= 0,
                     -q^(2k+2) w'_(t+1) + s_t/s'_t w'_t     for k < 0;
  a*  to (k-1, r-1): w'_t - q^(2k) s_t/s'_(t-1) w'_(t-1)    for k <= 0,
                     -q^(2k) w'_(t+1) + s_t/s'_t w'_t       for k > 0.

The forms in w'_t and w'_(t-1) are Christoffel steps: the target
chain's weight is the source's times a linear factor in A (A itself for
b and b*).  The forms in w'_(t+1) and w'_t are the inverse, Geronimus,
steps.  y w_j applies b* n times, then b l times, then a or
a* |k| times, and <w'_alpha, y w_j> is s'_alpha times the coefficient of
w'_alpha.
"""

from fractions import Fraction

from qsphere.qhopf import AlgebraElement, Monomial


class ChainNorms:
    """Squared norms s_t of the chains of one exact algebra, per (k, r),
    as pivots of the LDL^T of h(m_t* m_u) over Fractions."""

    def __init__(self, alg):
        self.alg = alg
        self.q = alg.field.q_fraction
        self.norms: dict = {}            # (k, r) -> [s_0, s_1, ...]

    def start(self, k: int, r: int) -> Monomial:
        return Monomial(k, r - k, 0) if r >= k else Monomial(k, 0, k - r)

    def __call__(self, k: int, r: int, t: int) -> Fraction:
        s = self.norms.setdefault((k, r), [])
        if t >= len(s):
            s[:] = self._pivots(k, r, max(t + 1, 2 * len(s)))
        return s[t]

    def _pivots(self, k: int, r: int, size: int) -> list:
        alg, m0 = self.alg, self.start(k, r)
        one = alg.field.one
        monos = [AlgebraElement(alg, {Monomial(k, m0.b_exp + t,
                                               m0.bs_exp + t): one})
                 for t in range(size)]
        gram = [[alg.haar(x.star() * y).as_fraction() for y in monos]
                for x in monos]
        lower, s = [], []                # LDL^T's unit lower factor, D
        for t in range(size):
            row = []
            for u in range(t):
                row.append((gram[t][u] - sum(
                    row[i] * lower[u][i] * s[i] for i in range(u))) / s[u])
            lower.append(row)
            s.append(gram[t][t]
                     - sum(x * x * s[i] for i, x in enumerate(row)))
        return s


def _left_b(norms, k, r, vec, gen):
    """(target chain, vector) of b w (gen 'b') or b* w (gen 'bs') for the
    vector {t: coefficient} of chain (k, r)."""
    m0 = norms.start(k, r)
    r2 = r + 1 if gen == "b" else r - 1
    raise_a = not (m0.bs_exp if gen == "b" else m0.b_exp)
    qk, out = norms.q ** k, {}
    for t, c in vec.items():
        s = norms(k, r, t)
        if raise_a:                      # w'_t + s_t/s'_(t-1) w'_(t-1)
            _add(out, t, qk * c)
            if t:
                _add(out, t - 1, qk * c * s / norms(k, r2, t - 1))
        else:                            # w'_(t+1) + s_t/s'_t w'_t
            _add(out, t + 1, qk * c)
            _add(out, t, qk * c * s / norms(k, r2, t))
    return (k, r2), out


def _left_a(norms, k, r, vec, gen):
    """(target chain, vector) of a w (gen 'a') or a* w (gen 'as')."""
    if gen == "a":
        k2, r2, f, raise_a = k + 1, r + 1, norms.q ** (2 * k + 2), k >= 0
    else:
        k2, r2, f, raise_a = k - 1, r - 1, norms.q ** (2 * k), k <= 0
    out: dict = {}
    for t, c in vec.items():
        s = norms(k, r, t)
        if raise_a:                      # w'_t - f s_t/s'_(t-1) w'_(t-1)
            _add(out, t, c)
            if t:
                _add(out, t - 1, -f * c * s / norms(k2, r2, t - 1))
        else:                            # -f w'_(t+1) + s_t/s'_t w'_t
            _add(out, t + 1, -f * c)
            _add(out, t, c * s / norms(k2, r2, t))
    return (k2, r2), out


STEPS = {"b": _left_b, "bs": _left_b, "a": _left_a, "as": _left_a}


def _add(vec: dict, t: int, c: Fraction) -> None:
    c += vec.get(t, 0)
    if c:
        vec[t] = c
    else:
        vec.pop(t, None)


def monomial_image(norms, mono: Monomial, k: int, r: int, pos: int):
    """(target chain, {alpha: <w'_alpha, mono w_pos>}) for w_pos of
    chain (k, r)."""
    word = (["bs"] * mono.bs_exp + ["b"] * mono.b_exp
            + ["a" if mono.a_exp > 0 else "as"] * abs(mono.a_exp))
    vec = {pos: Fraction(1)}
    for gen in word:
        (k, r), vec = STEPS[gen](norms, k, r, vec, gen)
    return k, {alpha: c * norms(k, r, alpha) for alpha, c in vec.items()}


def image_columns(norms, y: AlgebraElement, rdeg: int, sel: list):
    """{j: {(kt, alpha): <w'_alpha, y w_j>}} for the selected chain
    vectors sel[j] = (k, pos) of right degree rdeg, zeros left out, as
    scalars of y's field."""
    F, out = norms.alg.field, {}
    for j, (k, pos) in enumerate(sel):
        col: dict = {}
        for mono, c in y.terms.items():
            kt, vals = monomial_image(norms, mono, k, rdeg, pos)
            for alpha, v in vals.items():
                key = (kt, alpha)
                col[key] = col.get(key, F.zero) + c * F.from_rational(
                    v.numerator, v.denominator)
        out[j] = {key: v for key, v in col.items() if not v.is_zero()}
    return out
