"""Normal-ordered model of the deformed SU(2) coordinate algebra.

Generators a, b and their adjoints obey

    b a = q a b        b* a = q a b*       b b* = b* b
    b a* = q^-1 a* b   b* a* = q^-1 a* b*
    a* a = 1 - q^2 b b*        a a* = 1 - b b*

Every element is stored on the ordered monomial basis a^k b^l b*^m with
k in Z (negative k meaning (a*)^|k|) and l, m >= 0.  The product of
two basis monomials has a closed form: the b-block commutes past the
a-power up to a power of q, and a contracted pair a^j a*^j or a*^j a^j
is a polynomial in A = b b* (Algebra.mono_mul).

The Hopf structure lives on the `Algebra` context object: coproduct,
counit, antipode, the Haar functional, and the modular twist it induces.
Each generator's coproduct is X + Y with Y X = t X Y: t = q^2 for
Delta a = a (x) a - q b* (x) b and Delta b = b (x) a + a* (x) b, t = q^-2
for Delta a* = a* (x) a* - q b (x) b* and Delta b* = b* (x) a* + a (x) b*,
so its n-th power is sum_i [n, i]_t X^i Y^(n-i) (Algebra.coproduct_mono).
One context per (field, options); contexts never share caches, so tests
may freely mix different q values in one process.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .scalars import ExactField, FloatField


class Monomial(NamedTuple):
    """Ordered basis word a^k b^l b*^m; k < 0 encodes (a*)^|k|."""

    a_exp: int
    b_exp: int
    bs_exp: int

    def left_degree(self) -> int:
        return self.a_exp - self.b_exp + self.bs_exp

    def right_degree(self) -> int:
        return self.a_exp + self.b_exp - self.bs_exp

    def total_degree(self) -> int:
        return abs(self.a_exp) + self.b_exp + self.bs_exp

    def is_unit(self) -> bool:
        return self == (0, 0, 0)


def monomials(max_degree: int) -> list:
    """Every basis word of total degree at most max_degree, ordered by
    total degree, then a-exponent, then b-exponent."""
    out = []
    for d in range(max_degree + 1):
        for k in range(-d, d + 1):
            rem = d - abs(k)
            for l in range(rem + 1):
                out.append(Monomial(k, l, rem - l))
    return out


def _accumulate(out: dict, key, add) -> None:
    """out[key] += add, dropping the entry when the sum is zero."""
    acc = out.get(key)
    acc = add if acc is None else acc + add
    if acc.is_zero():
        out.pop(key, None)
    else:
        out[key] = acc


UNIT = Monomial(0, 0, 0)
GEN_A = Monomial(1, 0, 0)
GEN_AS = Monomial(-1, 0, 0)
GEN_B = Monomial(0, 1, 0)
GEN_BS = Monomial(0, 0, 1)


def generator_word(mono: Monomial) -> tuple:
    """The letters of a^k b^l b*^m from left to right: |k| copies of a
    (of a* when k < 0), then l of b, then m of b*."""
    k, l, m = mono
    return (GEN_A if k > 0 else GEN_AS,) * abs(k) + (GEN_B,) * l + (GEN_BS,) * m


class AlgebraElement:
    """Finite scalar combination of ordered monomials.

    Immutable by convention: arithmetic returns fresh objects and the
    term dict is never handed out for mutation.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: "Algebra", terms: dict):
        self.alg = alg
        self.terms = terms

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            _accumulate(out, mono, c)
        return AlgebraElement(self.alg, out)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.alg, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.alg._elem_mul(self, other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = self.alg.unit
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def scale(self, scal) -> "AlgebraElement":
        if scal.is_zero():
            return AlgebraElement(self.alg, {})
        return AlgebraElement(self.alg, {m: c * scal for m, c in self.terms.items()})

    def star(self) -> "AlgebraElement":
        """Involution: reverses products, conjugates coefficients."""
        out: dict = {}
        F = self.alg.field
        for (k, l, m), c in self.terms.items():
            # (a^k b^l b*^m)* = q^{-k(l+m)} a^{-k} b^m b*^l
            _accumulate(out, Monomial(-k, m, l),
                        c.conjugate() * F.q_power(-k * (l + m)))
        return AlgebraElement(self.alg, out)

    def coefficient(self, mono: Monomial):
        return self.terms.get(Monomial(*mono), self.alg.field.zero)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(m.total_degree() for m in self.terms)

    def require_sphere(self) -> None:
        """Raise ValueError unless every term has right degree 0, that
        is, unless the element lies in the sphere subalgebra."""
        for m in self.terms:
            if m.right_degree() != 0:
                raise ValueError("element leaves the sphere subalgebra "
                                 "(right degree %d at %r)"
                                 % (m.right_degree(), m))

    def sphere_degree(self) -> int:
        """Filtration degree as a polynomial in the sphere generators.

        Each sphere generator has two letters, so on the right-degree-0
        subalgebra this is half the letter count.  Raises off it.
        """
        self.require_sphere()
        return max((m.total_degree() // 2 for m in self.terms), default=0)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = []
        for mono in sorted(self.terms):
            bits.append("%s %s" % (self.terms[mono], _mono_str(mono)))
        return "<" + "  +  ".join(bits) + ">"


def _mono_str(mono: Monomial) -> str:
    """Monomial text such as 'as^2*b*bs^3'; '1' for the unit."""
    k, l, m = mono
    parts = []
    if k > 0:
        parts.append("a" if k == 1 else "a^%d" % k)
    elif k < 0:
        parts.append("as" if k == -1 else "as^%d" % -k)
    if l:
        parts.append("b" if l == 1 else "b^%d" % l)
    if m:
        parts.append("bs" if m == 1 else "bs^%d" % m)
    return "*".join(parts) if parts else "1"


class TensorElement:
    """Element of the two-fold tensor square, used for coproducts."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: "Algebra", terms: dict):
        self.alg = alg
        self.terms = terms

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        alg = self.alg
        out: dict = {}
        for (x1, x2), c1 in self.terms.items():
            for (y1, y2), c2 in other.terms.items():
                c12 = c1 * c2
                left = alg.mono_mul(x1, y1)
                right = alg.mono_mul(x2, y2)
                for n1, s1 in left.items():
                    cs1 = c12 * s1
                    for n2, s2 in right.items():
                        _accumulate(out, (n1, n2), cs1 * s2)
        return TensorElement(self.alg, out)

    def pair_left(self, fn: Callable[[Monomial], object]) -> AlgebraElement:
        """Apply a scalar functional to the left leg."""
        out: dict = {}
        for (m1, m2), c in self.terms.items():
            w = fn(m1)
            if not w.is_zero():
                _accumulate(out, m2, c * w)
        return AlgebraElement(self.alg, out)

    def pair_right(self, fn: Callable[[Monomial], object]) -> AlgebraElement:
        out: dict = {}
        for (m1, m2), c in self.terms.items():
            w = fn(m2)
            if not w.is_zero():
                _accumulate(out, m1, c * w)
        return AlgebraElement(self.alg, out)

    def __repr__(self):
        bits = []
        for (m1, m2) in sorted(self.terms):
            bits.append("%s %s(x)%s" % (self.terms[(m1, m2)], _mono_str(m1), _mono_str(m2)))
        return "<<" + "  +  ".join(bits) + ">>" if bits else "<<0>>"


class Algebra:
    """Context object: scalar field plus all structural caches."""

    def __init__(self, field):
        self.field = field
        self.scalar_types = (field.zero.__class__,)
        self._prod_cache: dict = {}
        self._coprod_cache: dict = {}
        self._haar_table: dict[int, object] = {}
        self._poly_moments: dict = {}
        self._polys: dict = {}
        self._rows: dict = {}
        one = field.one
        self.unit = AlgebraElement(self, {UNIT: one})
        self.a = AlgebraElement(self, {GEN_A: one})
        self.a_star = AlgebraElement(self, {GEN_AS: one})
        self.b = AlgebraElement(self, {GEN_B: one})
        self.b_star = AlgebraElement(self, {GEN_BS: one})
        # Equator-sphere generators: A = b b*, B = a b*.
        self.sphere_A = AlgebraElement(self, {Monomial(0, 1, 1): one})
        self.sphere_B = AlgebraElement(self, {Monomial(1, 0, 1): one})
        self.sphere_B_star = self.sphere_B.star()

    # -- construction helpers -------------------------------------------

    def monomial(self, a_exp: int, b_exp: int, bs_exp: int, coeff=1) -> AlgebraElement:
        if b_exp < 0 or bs_exp < 0:
            raise ValueError("b exponents must be nonnegative")
        c = coeff if coeff.__class__ in self.scalar_types else self.field.from_rational(coeff)
        if c.is_zero():
            return AlgebraElement(self, {})
        return AlgebraElement(self, {Monomial(a_exp, b_exp, bs_exp): c})

    def scalar_element(self, scal) -> AlgebraElement:
        if scal.is_zero():
            return AlgebraElement(self, {})
        return AlgebraElement(self, {UNIT: scal})

    # -- multiplication ---------------------------------------------------

    def contraction_poly(self, k: int) -> list:
        """Coefficients in A = b b* of a^(-k) a^k, cached: a*^k a^k =
        prod_{i=1..k} (1 - q^(2i) A) for k >= 0, a^|k| a*^|k| =
        prod_{i=0..|k|-1} (1 - q^(-2i) A) for k < 0."""
        coeffs = self._polys.get(k)
        if coeffs is None:
            F = self.field
            exps = range(2, 2 * k + 1, 2) if k >= 0 else range(0, 2 * k, -2)
            coeffs = [F.one]
            for e in exps:
                # multiply by (1 - q^e A)
                c = F.q_power(e)
                coeffs = ([coeffs[0]]
                          + [coeffs[j] - c * coeffs[j - 1]
                             for j in range(1, len(coeffs))]
                          + [-(c * coeffs[-1])])
            self._polys[k] = coeffs
        return coeffs

    def mono_mul(self, m1: Monomial, m2: Monomial) -> dict:
        """Product of two basis monomials as a monomial->scalar dict:
        a^k1 b^l1 b*^n1 a^k2 b^l2 b*^n2 = q^(k2 (l1 + n1)) a^k1 a^k2
        b^(l1 + l2) b*^(n1 + n2), where a^k1 a^k2 of opposite signs is
        a^(k1 + k2) times a contraction_poly, carried right across a^r,
        r = k1 + k2, when m2 leaves r: A^s a^r = q^(2 s r) a^r A^s.
        Terms come in ascending powers of A, the order of pushing m2's
        letters through m1 one at a time.  Cached; read-only."""
        if m1 == UNIT:
            return {m2: self.field.one}
        if m2 == UNIT:
            return {m1: self.field.one}
        key = (m1, m2)
        hit = self._prod_cache.get(key)
        if hit is not None:
            return hit
        (k1, l1, n1), (k2, l2, n2) = m1, m2
        F = self.field
        k, l, n, c = k1 + k2, l1 + l2, n1 + n2, F.q_power(k2 * (l1 + n1))
        if k1 * k2 >= 0:
            out = {Monomial(k, l, n): c}
        else:
            j = min(abs(k1), abs(k2))
            step = F.q_power(2 * k) if abs(k2) > abs(k1) else F.one
            out = {}
            for s, p in enumerate(self.contraction_poly(j if k2 > 0 else -j)):
                if not (v := c * p).is_zero():
                    out[Monomial(k, l + s, n + s)] = v
                c = c * step
        self._prod_cache[key] = out
        return out

    def _elem_mul(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        out: dict = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                c12 = c1 * c2
                for n, s in self.mono_mul(m1, m2).items():
                    _accumulate(out, n, c12 * s)
        return AlgebraElement(self, out)

    # -- Hopf structure ---------------------------------------------------

    def gaussian_row(self, n: int, e: int) -> list:
        """The Gaussian binomials [n, i]_t, i = 0..n, at t = q^e, by the
        q-Pascal rule [n, i]_t = [n-1, i-1]_t + t^i [n-1, i]_t; cached."""
        row = self._rows.get((n, e))
        if row is None:
            F = self.field
            row = [F.one]
            if n:
                prev = self.gaussian_row(n - 1, e)
                row += [prev[i - 1] + F.q_power(e * i) * prev[i]
                        for i in range(1, n)] + [F.one]
            self._rows[n, e] = row
        return row

    def coproduct_mono(self, mono: Monomial) -> dict:
        """Coproduct of a basis monomial as a (mono, mono)->scalar dict:
        Delta(a)^k Delta(b)^l Delta(b*)^m, or Delta(a*)^|k| first when
        k < 0, each power in closed form and in descending i, j, r:

          Delta(a)^k  = sum_i [k,i]_{q^2} (-q)^(k-i) a^i b*^(k-i) (x) a^i b^(k-i)
          Delta(a*)^k = sum_i [k,i]_{q^-2} (-q)^(k-i) a*^i b^(k-i) (x) a*^i b*^(k-i)
          Delta(b)^l  = sum_j [l,j]_{q^2} q^(-j(l-j)) a*^(l-j) b^j (x) a^j b^(l-j)
          Delta(b*)^m = sum_r [m,r]_{q^-2} q^(r(m-r)) a^(m-r) b*^r (x) a*^r b*^(m-r)

        Two tensor products join the factors.  Cached; read-only."""
        hit = self._coprod_cache.get(mono)
        if hit is not None:
            return hit
        F = self.field
        k, l, m = mono
        acc = None
        # per factor: n, t = q^e, and X^i Y^j as (left, right, -1 power, q power)
        for n, e, term in ((k, 2, lambda i, j: ((i, 0, j), (i, j, 0), j, j)),
                           (-k, -2, lambda i, j: ((-i, j, 0), (-i, 0, j), j, j)),
                           (l, 2, lambda i, j: ((-j, i, 0), (i, j, 0), 0, -i * j)),
                           (m, -2, lambda i, j: ((j, 0, i), (-i, 0, j), 0, i * j))):
            if n <= 0:
                continue
            row = self.gaussian_row(n, e)
            f = TensorElement(self, {})
            for i in range(n, -1, -1):
                left, right, neg, p = term(i, n - i)
                c = row[i] * F.q_power(p)
                f.terms[Monomial(*left), Monomial(*right)] = -c if neg % 2 else c
            acc = f if acc is None else acc * f
        out = {(UNIT, UNIT): F.one} if acc is None else acc.terms
        self._coprod_cache[mono] = out
        return out

    def coproduct(self, x: AlgebraElement) -> TensorElement:
        out: dict = {}
        for mono, c in x.terms.items():
            for key, s in self.coproduct_mono(mono).items():
                _accumulate(out, key, c * s)
        return TensorElement(self, out)

    def counit(self, x: AlgebraElement):
        tot = self.field.zero
        for (k, l, m), c in x.terms.items():
            if l == 0 and m == 0:
                tot = tot + c
        return tot

    def antipode(self, x: AlgebraElement) -> AlgebraElement:
        """Antipode via the closed normal-ordered formula.

        S(a) = a*, S(a*) = a, S(b) = -q^-1 b, S(b*) = -q b*; being an
        anti-homomorphism it acts on a^k b^l b*^m as
        (-1)^(l+m) q^(m-l) q^(-k(l+m)) a^-k b^l b*^m.
        """
        out: dict = {}
        F = self.field
        for (k, l, m), c in x.terms.items():
            coeff = c * F.q_power(m - l - k * (l + m))
            if (l + m) % 2:
                coeff = -coeff
            _accumulate(out, Monomial(-k, l, m), coeff)
        return AlgebraElement(self, out)

    # -- Haar functional --------------------------------------------------

    def q_bracket(self, n: int):
        """Sum of q^(2k) for k = 0..n-1; the quantum integer [n]_{q^2}."""
        F = self.field
        tot = F.zero
        for k in range(n):
            tot = tot + F.q_power(2 * k)
        return tot

    def _solve_haar_table(self, l: int):
        """Fill in h((b b*)^l) = 1 / [l+1]_{q^2} (Podleś, Quantum spheres,
        1987); the hopf suite checks these weights against invariance.

        The name is older than the closed form.  It stays because
        bench/tracer.py binds its `qhopf.haar_table` span through
        `Algebra.__dict__["_solve_haar_table"]`, so a rename makes
        `bench/run.py --trace 1` fail with KeyError; the same holds for
        `_prod_cache`, `_coprod_cache` and every other tracer target.
        """
        val = self.field.one / self.q_bracket(l + 1)
        self._haar_table[l] = val
        return val

    def haar_weight(self, l: int):
        """h((b b*)^l), cached."""
        val = self._haar_table.get(l)
        return self._solve_haar_table(l) if val is None else val

    def poly_moment(self, k: int, s: int):
        """h(P_k(A) A^s) = sum_j [P_k]_j h(A^(j+s)), cached, with A = b b*,
        P_k = a^(-k) a^k = contraction_poly(k) and Podleś' weights
        h(A^l) = 1/[l+1]_{q^2} (Quantum spheres, 1987).  These are the
        inner products h(m1* m2) of monomials a^k b^l1 b*^n1, a^k b^l2
        b*^n2 of one b-charge, m1* m2 = P_k(A) A^s, s = n1 + l2
        (gns.haar_inner), and the moments of h_N (Berezin._moment).  No
        product is formed; self.haar of the product is the same value."""
        val = self._poly_moments.get((k, s))
        if val is None:
            val = self.field.zero
            for j, c in enumerate(self.contraction_poly(k)):
                val = val + c * self.haar_weight(j + s)
            self._poly_moments[k, s] = val
        return val

    def haar(self, x: AlgebraElement):
        """The Haar state: vanishes off the (b b*)^l line."""
        tot = self.field.zero
        for (k, l, m), c in x.terms.items():
            if k == 0 and l == m:
                tot = tot + c * self.haar_weight(l)
        return tot

    # -- modular structure -------------------------------------------------

    def modular_twist(self, x: AlgebraElement) -> AlgebraElement:
        """The modular automorphism of the Haar state: scales
        a^k b^l b*^m by q^(-2k) and satisfies h(xy) = h(twist(y) x)."""
        F = self.field
        return AlgebraElement(self, {
            mono: c * F.q_power(-2 * mono.a_exp)
            for mono, c in x.terms.items()
        })

    def fundamental_corep(self) -> list:
        """The defining 2x2 corepresentation matrix [[a*, -q b], [b*, a]]."""
        return [[self.a_star, self.b.scale(-self.field.q)],
                [self.b_star, self.a]]


def make_algebra(q_num: int, q_den: int = 1) -> Algebra:
    """The exact algebra context at rational q = q_num/q_den; float
    fields, rational q or not, come from make_algebra_float."""
    return Algebra(ExactField(q_num, q_den))


def make_algebra_float(q: float, precision: int = 50) -> Algebra:
    return Algebra(FloatField(q, precision))
