"""The L2 layer over the Haar state.

Everything here happens inside the GNS space of the Haar state h: the
inner product h(x* y), the orthogonal chains under it, the fuzzy bases
of the equator sphere's degree filtration as lists of FuzzyVector,
projections onto them, compressions of the twisted derivations as rows.

No inner product multiplies algebra elements.  h(m1* m2) vanishes
unless the monomials m1 = a^k b^l1 b*^n1 and m2 = a^k b^l2 b*^n2 share
the a-exponent k and the b-charge; then m1* m2 = P_k(A) A^s with
A = b b*, and h(m1* m2) is a sum against the closed-form weights
h(A^l) = 1/[l+1]_{q^2} (Podleś, Quantum spheres, 1987), read off
Algebra.poly_moment.  So the monomials of one right degree split into
mutually orthogonal chains of fixed a-exponent, and _GradedOrtho
orthogonalizes each chain on its own, in closed form at rational q
(_LittleQJacobi).  The Gram oracle in specnorm reads its bases off the
chains of right degree +-1; image_columns projects each symbol term
times each chain monomial once, on integers.

The fuzzy basis is read off the chains of right degree 0: B^i A^j and
B*^i A^j are single monomials up to a q-power, so the spin-d,
weight-2k vector is chain k at position d - |k|.  In exact mode the
construction is square-root-free: the stored vectors are monic and
orthogonal but unnormalized, with their exact squared norms kept
beside them, so orthogonality certificates are literal zeros and square
roots only ever appear in the float layer.  The level-N basis is a
prefix of the level-(N+1) basis.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .qhopf import Algebra, AlgebraElement, Monomial, _accumulate
from .uq_actions import UqActions


class PrecisionExhausted(RuntimeError):
    """A Gram-Schmidt squared norm cancelled below the float field's
    digits: the basis needs a higher working precision."""


class _LittleQJacobi:
    """Chain k in closed form (Koekoek, Lesky and Swarttouw,
    Hypergeometric orthogonal polynomials and their q-analogues, 2010,
    section 14.12).  With p = q^2, h weighs A = b b* = p^n by (1 - p) p^n
    and m_t* m_u = P_k(A) A^(s0+t+u), s0 = b_exp + bs_exp of m_0: the
    little q-Jacobi weight with a = p^s0, b = p^|k|, ab = p^e.  So the
    monic w_t = sum_j c_j m_j is P_t(A; a, b; p), in A / b if k < 0.
    With s_t = <w_t, w_t> = <w_t, m_t>, and each ratio times 1/b, b^2, b
    if k < 0:
      c_(j+1) / c_j = (1 - p^(j-t)) (1 - ab p^(t+1+j)) p
                      / ((1 - a p^(j+1)) (1 - p^(j+1))),
      s_t / s_(t-1) = A_(t-1) C_t, the recurrence coefficients of 14.12,
      <w_alpha, m_t> / <w_alpha, m_(t-1)> = (1 - a p^t) (1 - p^-t)
        (1 - p^(-t-1-e)) / ((1 - ab p^(t+1)) (1 - p^(alpha-t))
        (1 - p^(-alpha-t-1-e))) for alpha < t, by q-Pfaff-Saalschuetz.
    With p = P/Q in lowest terms, 1 - p^m = (Q - P) [m] / Q^m; each ratio
    has as many brackets [m] = (Q^m - P^m) / (Q - P) above as below, so
    the methods return it in integers, finite at q = 1, where [m] = m."""

    def __init__(self, q, k: int, s0: int, brackets: list):
        self.P, self.Q = q.numerator ** 2, q.denominator ** 2
        self.neg, self.K, self.s0, self.e = k < 0, abs(k), s0, s0 + abs(k)
        self.brackets = brackets         # [0], [1], ..., shared per q

    def bracket(self, m: int) -> int:
        vals = self.brackets             # [m + 1] = Q [m] + P^m
        while len(vals) <= m:
            vals.append(self.Q * vals[-1] + self.P ** (len(vals) - 1))
        return vals[m]

    def vector_ratio(self, t: int, j: int) -> tuple:
        """c_(j+1) / c_j of w_t as (num, den), j < t."""
        br, b = self.bracket, self.K if self.neg else 0
        return (-br(t - j) * br(self.e + t + 1 + j),
                br(self.s0 + j + 1) * br(j + 1) * self.P ** (t - j - 1 + b)
                * self.Q ** (t - j + self.K - b))

    def norm_ratio(self, t: int) -> tuple:
        """s_t / s_(t-1) as (num, den), t >= 1."""
        br, b, s0, e = self.bracket, self.K if self.neg else 0, self.s0, self.e
        return (br(s0 + t) * br(e + t) * br(t) * br(self.K + t)
                * self.P ** (2 * t + s0 - 1 + 2 * b)
                * self.Q ** (2 * t + s0 + 1 + 2 * self.K - 2 * b),
                br(e + 2 * t - 1) * br(e + 2 * t) ** 2 * br(e + 2 * t + 1))

    def column_ratio(self, t: int) -> tuple:
        """(f, [d_alpha]): <w_alpha, m_t> = <w_alpha, m_(t-1)> f / d_alpha."""
        br, b, e = self.bracket, self.K if self.neg else 0, self.e
        f = br(self.s0 + t) * br(t) * self.Q ** (self.K + 1 - b) * self.P ** b
        return f, [br(t - al) * br(al + t + 1 + e) for al in range(t)]


class _GradedOrtho:
    """Orthogonal chains of graded monomials of one right degree.

    Chain k holds the monomials m_t = m_0 A^t of a-exponent k, t = 0, 1,
    ..., with <m_t, m_u> = alg.poly_moment(k, s0 + t + u).  Each chain
    vector w_t is monic, m_t minus its projection on the earlier ones,
    so <w_t, w_t> = <w_t, m_t>; its terms come in the order m_t, m_0,
    m_1, ...  Per position t a chain keeps the column [(alpha,
    <w_alpha, m_t>)] of nonzero projections, ending in (t, snorm_t).  Raw
    monomial Gram matrices are singular far beyond double precision, so
    the chains are exact (or at a lifted precision) and the Gram oracle
    rounds each entry once, in field.whiten, against the inv_sqrt of
    each snorm that inv_root caches.

    At rational q (self.exact) _closed_step reads each position off
    _LittleQJacobi, with one Haar moment per chain: vector t as its
    primitive integer numerators over positions 0..t, the last one
    positive ("ints"), the columns as integer numerators over one lcm
    per chain ("den"), and the vector as an element at right degree 0
    only.  Float fields run Gram-Schmidt, _scalar_step.

    In exact mode a zero squared norm is a degenerate chain.  In float
    mode the squared norm must also stand above the field's negligible
    relative to the terms that cancelled in it; below that its digits
    are gone and the construction raises instead of returning noise.
    """

    def __init__(self, alg: Algebra, rdeg: int):
        self.alg = alg
        self.rdeg = rdeg
        self.exact = alg.field.mode == "exact"
        self.brackets = [0]              # _LittleQJacobi's, in exact mode
        self.sizes: dict = {}            # _size's cache
        # chain key k -> {"monos": [...], "index": {mono: pos},
        # "vecs": [(w, snorm)], "cols": [[(alpha, p)]], "roots": {alpha: r},
        # "ints": [[n]], "den": int, "jacobi": _LittleQJacobi}
        self.chains: dict = {}
        self.order: list = []            # (k, pos) in graded enumeration order
        self.built_degree = -1

    def ensure_degree(self, D: int) -> None:
        """Append the monomials of total degree up to D in graded order.
        At total degree d and a-exponent k the only one of right degree
        rdeg is a^k b^l b*^(d - |k| - l), l = (d - |k| + rdeg - k) / 2."""
        if D <= self.built_degree:
            return
        for d in range(self.built_degree + 1, D + 1):
            for k in range(-d, d + 1):
                rem = d - abs(k)
                l, odd = divmod(rem + self.rdeg - k, 2)
                if not odd and 0 <= l <= rem:
                    self._append(Monomial(k, l, rem - l))
        self.built_degree = D

    def _append(self, mono: Monomial) -> None:
        ch = self.chains.setdefault(mono.a_exp, {
            "monos": [], "index": {}, "vecs": [], "cols": [], "roots": {},
            "ints": [], "den": 1})
        if mono in ch["index"]:          # kept from a pass that raised
            return
        pos = len(ch["monos"])
        step = self._closed_step if self.exact else self._scalar_step
        vec, snorm, col, ints = step(ch, mono)
        if self._degenerate(vec, mono, snorm):
            raise PrecisionExhausted(
                "Haar Gram-Schmidt degenerated at %r (squared norm %g lost "
                "to cancellation)" % (mono, abs(snorm.to_complex())))
        if self.exact:                   # col is (den, numerators)
            ch["ints"].append(ints)
            E = lcm(ch["den"], col[0])
            up, ch["den"] = E // ch["den"], E
            if up != 1:
                ch["cols"] = [[(a, n * up) for a, n in c] for c in ch["cols"]]
            up = E // col[0]
            col = [(a, n * up) for a, n in enumerate(col[1])]
        ch["monos"].append(mono)
        ch["index"][mono] = pos
        ch["vecs"].append((vec, snorm))
        ch["cols"].append(col)
        self.order.append((mono.a_exp, pos))

    def _scalar_step(self, ch: dict, mono: Monomial) -> tuple:
        """(vector, squared norm, column, None) for mono."""
        alg = self.alg
        vec = e = AlgebraElement(alg, {mono: alg.field.one})
        col = []
        for alpha, (w, s) in enumerate(ch["vecs"]):
            p = haar_inner(alg, w, e)
            if not p.is_zero():
                col.append((alpha, p))
                vec = vec - w.scale(p / s)
        snorm = haar_inner(alg, vec, e)
        return vec, snorm, col + [(len(ch["vecs"]), snorm)], None

    def _closed_step(self, ch: dict, mono: Monomial) -> tuple:
        """(vector, squared norm, column as (den, numerators), integer
        view) of mono from _LittleQJacobi's ratios; the vector is an
        element only at right degree 0, where fuzzy_basis reads it."""
        F, monos, t = self.alg.field, ch["monos"], len(ch["monos"])
        if not t:
            ch["jacobi"] = jac = _LittleQJacobi(
                F.q_fraction, mono.a_exp, mono.b_exp + mono.bs_exp,
                self.brackets)
            s = self.alg.poly_moment(mono.a_exp, jac.s0).as_fraction()
            row, col = [1], (s.denominator, [s.numerator])
        else:
            jac = ch["jacobi"]
            # c_j prod_i up_i = prod_(i < j) up_i * prod_(i >= j) down_i
            ups, downs = zip(*(jac.vector_ratio(t, j) for j in range(t)))
            row = list(map(mul, accumulate(ups, mul, initial=1), reversed(
                list(accumulate(reversed(downs), mul, initial=1)))))
            div = gcd(*row) if row[-1] > 0 else -gcd(*row)
            row = [n // div for n in row]
            s = ch["vecs"][-1][1].as_fraction() * Fraction(*jac.norm_ratio(t))
            # cancel each small d_alpha against its n_alpha first: the one
            # gcd over the column then has only a small common part to find
            f, divs = jac.column_ratio(t)
            pairs = []
            for (_, n), d in zip(ch["cols"][-1], divs):
                g = gcd(n, d)
                pairs.append((n // g, d // g))
            L = lcm(*(d for _, d in pairs))
            EL = ch["den"] * L
            D = lcm(EL, s.denominator)
            f *= D // EL
            nums = [n * f * (L // d) for n, d in pairs]
            nums.append(s.numerator * (D // s.denominator))
            g = gcd(D, *nums)
            col = (D // g, [n // g for n in nums])
        vec = None
        if self.rdeg == 0:
            vec = AlgebraElement(self.alg, {mono: F.one, **{
                m: F.from_rational(n, row[-1]) for m, n in zip(monos, row)}})
        return vec, F.from_rational(s.numerator, s.denominator), col, row

    def _degenerate(self, vec: AlgebraElement, mono: Monomial, snorm) -> bool:
        F = self.alg.field
        if F.mode == "exact":
            return snorm.is_zero()
        size = sum(abs(c.val) * self._size(m.a_exp, m.bs_exp + mono.b_exp)
                   for m, c in vec.terms.items())
        return abs(snorm.val) < F.negligible * size

    def _size(self, k: int, s: int):
        """Float mode: sum_j |[P_k]_j| h(A^(j+s)), the magnitude of the
        terms that cancel in alg.poly_moment(k, s); cached."""
        hit = self.sizes.get((k, s))
        if hit is None:
            alg = self.alg
            hit = self.sizes[k, s] = sum(
                abs(c.val) * abs(alg.haar_weight(j + s).val)
                for j, c in enumerate(alg.contraction_poly(k)))
        return hit

    def _locate(self, mono: Monomial) -> tuple:
        """(chain, position) of a monomial of these chains."""
        ch = self.chains.get(mono.a_exp)
        pos = None if ch is None else ch["index"].get(mono)
        if pos is None:
            raise RuntimeError("image escaped the graded extension")
        return ch, pos

    def image_columns(self, y: AlgebraElement, domain: "_GradedOrtho",
                      sel: list):
        """Yield (j, {(kt, alpha): <w_alpha, y w_j>}) for each selected
        domain vector w_j = sel[j], zeros left out.  Float fields project
        each term of the image y w_j.  Exact chains go domain chain by
        chain: each term (m, c) of y projects m m_t once per position t
        of chain kj, into chain kt = a(m) + kj, as integers over one
        denominator times c's integer parts; w_j = sum_t L_jt m_t makes
        each entry integer dot products with L_j, kept unreduced as
        [a, b, c, d, den] for ExactField.whiten.  Only entries with
        |deg m_alpha - deg m_j| <= deg y are formed: <w_alpha, y w_j> =
        <y* w_alpha, w_j>, no product exceeds its factors' degrees, and
        each chain vector is orthogonal to its chain's lower degrees."""
        if not self.exact:
            for j, (kj, pos_j) in enumerate(sel):
                col: dict = {}
                w = domain.chains[kj]["vecs"][pos_j][0]
                for n, c in (y * w).terms.items():
                    ch, pos = self._locate(n)
                    for alpha, p in ch["cols"][pos]:
                        _accumulate(col, (n.a_exp, alpha), c * p)
                yield j, col
            return
        by_chain: dict = {}
        for j, (kj, pos_j) in enumerate(sel):
            by_chain.setdefault(kj, []).append((j, pos_j))
        reach = y.total_degree()
        for kj, vecs in by_chain.items():
            dom = domain.chains[kj]
            T = max(pos for _, pos in vecs) + 1
            terms: dict = {}             # kt -> [(c, P, den)]
            for m, c in y.terms.items():
                prods = [self.alg.mono_mul(m, m_t) for m_t in dom["monos"][:T]]
                D = lcm(*(s.den for p in prods for s in p.values()))
                P = [{} for _ in prods]  # P[t] = {alpha: numerator}
                for r, prod in zip(P, prods):
                    for n, s in prod.items():
                        ch, pos = self._locate(n)
                        v = s.a * (D // s.den)
                        for alpha, p in ch["cols"][pos]:
                            r[alpha] = r.get(alpha, 0) + v * p
                terms.setdefault(m.a_exp + kj, []).append(
                    (c, P, c.den * D * self.chains[m.a_exp + kj]["den"]))
            groups = []                  # (kt, den, degs, {(alpha, i): row})
            for kt, group in terms.items():
                G, R = lcm(*(d for *_, d in group)), {}
                degs = [m.total_degree() for m in self.chains[kt]["monos"]]
                for c, P, den in group:  # c's nonzero parts i scale P
                    xs = [(i, x * (G // den))
                          for i, x in enumerate((c.a, c.b, c.c, c.d)) if x]
                    for t, r in enumerate(P):
                        for alpha, v in r.items():
                            for i, x in xs:
                                R.setdefault((alpha, i), [0] * T)[t] += x * v
                groups.append((kt, G, degs, R))
            for j, pos_j in vecs:
                N, col = dom["ints"][pos_j], {}
                d_j = dom["monos"][pos_j].total_degree()
                for kt, G, degs, R in groups:
                    for (alpha, i), row in R.items():
                        if abs(degs[alpha] - d_j) <= reach and (
                                v := sum(map(mul, N, row))):
                            col.setdefault((kt, alpha),
                                           [0, 0, 0, 0, G * N[-1]])[i] = v
                yield j, col

    def inv_root(self, k: int, alpha: int):
        """field.inv_sqrt of chain k's squared norm alpha, made once."""
        ch = self.chains[k]
        if alpha not in ch["roots"]:
            ch["roots"][alpha] = self.alg.field.inv_sqrt(ch["vecs"][alpha][1])
        return ch["roots"][alpha]

    def basis_selection(self, count: int):
        """(chain, position) pairs of the first `count` graded monomials."""
        d = self.built_degree
        while len(self.order) < count:
            d += 1
            self.ensure_degree(d)
        return self.order[:count]


def _graded_ortho(alg: Algebra, rdeg: int) -> _GradedOrtho:
    """The chains of right degree rdeg, built once per algebra."""
    cache = getattr(alg, "_graded_ortho_cache", None)
    if cache is None:
        cache = alg._graded_ortho_cache = {}
    if rdeg not in cache:
        cache[rdeg] = _GradedOrtho(alg, rdeg)
    return cache[rdeg]


def haar_inner(alg: Algebra, x: AlgebraElement, y: AlgebraElement):
    """h(x* y); linear in the second slot, alg.haar(x.star() * y) with
    no product formed.  h(m1* m2) vanishes unless m1 = a^k b^l1 b*^n1
    and m2 = a^k b^l2 b*^n2 share the a-exponent k and the b-charge
    l1 - n1 = l2 - n2 (equal right degrees); then m1* m2 = P_k(A) A^s
    with A = b b*, s = n1 + l2 and P_k = a^(-k) a^k, and the value is
    alg.poly_moment(k, s) = sum_j [P_k]_j h(A^(j+s)) against Podleś'
    weights h(A^l) = 1/[l+1]_{q^2} (Quantum spheres, 1987)."""
    tot = alg.field.zero
    for m1, c1 in x.terms.items():
        c1 = c1.conjugate()
        for m2, c2 in y.terms.items():
            if (m1.a_exp == m2.a_exp
                    and m1.right_degree() == m2.right_degree()):
                tot = tot + c1 * c2 * alg.poly_moment(
                    m1.a_exp, m1.bs_exp + m2.b_exp)
    return tot


class FuzzyVector(NamedTuple):
    element: AlgebraElement
    snorm: object
    spin: int
    weight: int


class GnsContext:
    """Fuzzy bases, projections and derivation compressions for one
    algebra; the chains behind the bases are cached on the algebra."""

    def __init__(self, alg: Algebra, actions: UqActions | None = None):
        self.alg = alg
        self.actions = actions or UqActions(alg)

    # -- fuzzy basis -------------------------------------------------------

    def fuzzy_basis(self, N: int) -> list:
        """Spin <= N FuzzyVectors, by spin, then weight descending: the
        spin-d, weight-2k vector is right-degree-0 chain k at position
        d - |k|.  They are pairwise h-orthogonal, with exact squared
        norms snorm."""
        if N < 0:
            raise ValueError("level must be non-negative")
        ortho = _graded_ortho(self.alg, 0)
        ortho.ensure_degree(2 * N)
        vectors = []
        for d in range(N + 1):
            for k in range(d, -d - 1, -1):
                vec, snorm = ortho.chains[k]["vecs"][d - abs(k)]
                vectors.append(FuzzyVector(vec, snorm, d, 2 * k))
        return vectors

    # -- projections -------------------------------------------------------

    def spin_split(self, x: AlgebraElement, max_spin: int | None = None) -> dict:
        """Spin layers n <= max_spin of x's orthogonal projection, keyed
        by n, zero layers left out.  One projection coefficient
        <v, x> / <v, v> per vector v of the fuzzy basis, summed by spin.
        Layers beyond the element's degree vanish, so the default cap is
        the sphere filtration degree."""
        cap = x.sphere_degree() if max_spin is None else max_spin
        out: dict = {}
        for v in self.fuzzy_basis(cap):
            coeff = haar_inner(self.alg, v.element, x) / v.snorm
            _accumulate(out, v.spin, v.element.scale(coeff))
        return out

    # -- derivation compressions --------------------------------------------

    def operator_matrix_of(self, label: str, M: int) -> list:
        """Matrix of a twisted derivation on the level-M fuzzy subspace,
        as rows [[<v_i, D v_j> / s_i]] over fuzzy_basis(M).

        The entries are against the stored (orthogonal, unnormalized)
        basis, whose squared norms s_i carry the metric: the adjoint is
        (T+)_ij = conj(T_ji) s_j / s_i.  The derivations preserve each
        spin layer, so the compression is exact: a nonzero remainder
        outside the span signals a bug and raises.
        """
        basis = self.fuzzy_basis(M)
        alg = self.alg
        if alg.field.mode == "exact":
            leak_tol = 0.0
        else:
            # roundoff in the projection coefficients is amplified by the
            # small squared norms of high-spin vectors; genuine spillover
            # would sit many orders of magnitude above this
            leak_tol = float(alg.field.negligible) ** 0.5
        cols = []
        for v in basis:
            img = self.actions.twisted_derivation(label, v.element)
            col = []
            for w in basis:
                c = haar_inner(alg, w.element, img) / w.snorm
                col.append(c)
                if not c.is_zero():
                    img = img - w.element.scale(c)
            leak = max((abs(c.to_complex()) for c in img.terms.values()),
                       default=0.0)
            if leak > leak_tol:
                raise RuntimeError("derivation %s left the level-%d span "
                                   "(leak %g)" % (label, M, leak))
            cols.append(col)
        return [list(row) for row in zip(*cols)]
