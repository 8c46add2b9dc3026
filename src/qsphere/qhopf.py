"""Normal-ordered model of the deformed SU(2) coordinate algebra.

Generators a, b and their adjoints obey

    b a = q a b        b* a = q a b*       b b* = b* b
    b a* = q^-1 a* b   b* a* = q^-1 a* b*
    a* a = 1 - q^2 b b*        a a* = 1 - b b*

Every element is stored on the ordered monomial basis a^k b^l b*^m with
k in Z (negative k meaning (a*)^|k|) and l, m >= 0.  Multiplication
pushes generators through the b-block one at a time, which keeps the
rewrite rules local and makes caching effective.

The Hopf structure lives on the `Algebra` context object: coproduct,
counit, antipode, the Haar functional, and the modular twist it induces.
One context per (field, options); contexts never share caches, so tests
may freely mix different q values in one process.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

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


def monomials(max_degree: int, min_degree: int = 0) -> list:
    """Every basis word of total degree min_degree..max_degree, ordered
    by total degree, then a-exponent, then b-exponent."""
    out = []
    for d in range(min_degree, max_degree + 1):
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


class AlgebraElement:
    """Finite scalar combination of ordered monomials.

    Immutable by convention: arithmetic returns fresh objects and the
    term dict is never handed out for mutation.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: "Algebra", terms: dict):
        self.alg = alg
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
            return other
        if isinstance(other, (int, Fraction)):
            return self.alg.scalar_element(self.alg.field.from_rational(other))
        if other.__class__ in self.alg.scalar_types:
            return self.alg.scalar_element(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in rhs.terms.items():
            _accumulate(out, mono, c)
        return AlgebraElement(self.alg, out)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __neg__(self):
        return AlgebraElement(self.alg, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.alg._elem_mul(self, other)
        scal = self._coerce_scalar(other)
        if scal is None:
            return NotImplemented
        return self.scale(scal)

    def __rmul__(self, other):
        # Scalars commute with everything, so only elements need care,
        # and those route through __mul__ on the left operand.
        scal = self._coerce_scalar(other)
        if scal is None:
            return NotImplemented
        return self.scale(scal)

    def _coerce_scalar(self, other):
        if other.__class__ in self.alg.scalar_types:
            return other
        if isinstance(other, (int, Fraction)):
            return self.alg.field.from_rational(other)
        return None

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

    def sphere_degree(self) -> int:
        """Filtration degree as a polynomial in the sphere generators.

        Each sphere generator has two letters, so on the right-degree-0
        subalgebra this is half the letter count.  Raises off it.
        """
        deg = 0
        for m in self.terms:
            if m.right_degree() != 0:
                raise ValueError("element is not in the sphere subalgebra")
            deg = max(deg, m.total_degree() // 2)
        return deg

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            other = self._coerce(other)
            if other is None:
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

    def __add__(self, other: "TensorElement") -> "TensorElement":
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return TensorElement(self.alg, out)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __neg__(self) -> "TensorElement":
        return TensorElement(self.alg, {k: -c for k, c in self.terms.items()})

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

    def scale(self, scal) -> "TensorElement":
        if scal.is_zero():
            return TensorElement(self.alg, {})
        return TensorElement(self.alg, {k: c * scal for k, c in self.terms.items()})

    def star(self) -> "TensorElement":
        out: dict = {}
        alg = self.alg
        for (m1, m2), c in self.terms.items():
            e1 = AlgebraElement(alg, {m1: alg.field.one}).star()
            e2 = AlgebraElement(alg, {m2: alg.field.one}).star()
            cc = c.conjugate()
            for n1, s1 in e1.terms.items():
                for n2, s2 in e2.terms.items():
                    _accumulate(out, (n1, n2), cc * s1 * s2)
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

    def map_left(self, fn: Callable[[AlgebraElement], AlgebraElement]) -> "TensorElement":
        """Apply an element map to the left leg and re-expand."""
        alg = self.alg
        out: dict = {}
        for (m1, m2), c in self.terms.items():
            img = fn(AlgebraElement(alg, {m1: alg.field.one}))
            for n1, s in img.terms.items():
                _accumulate(out, (n1, m2), c * s)
        return TensorElement(alg, out)

    def map_right(self, fn: Callable[[AlgebraElement], AlgebraElement]) -> "TensorElement":
        alg = self.alg
        out: dict = {}
        for (m1, m2), c in self.terms.items():
            img = fn(AlgebraElement(alg, {m2: alg.field.one}))
            for n2, s in img.terms.items():
                _accumulate(out, (m1, n2), c * s)
        return TensorElement(alg, out)

    def multiply_legs(self) -> AlgebraElement:
        """Collapse x (x) y to x*y; the multiplication map."""
        alg = self.alg
        out: dict = {}
        for (m1, m2), c in self.terms.items():
            prod = alg.mono_mul(m1, m2)
            for n, s in prod.items():
                _accumulate(out, n, c * s)
        return AlgebraElement(alg, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

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
        q = field.q
        self._coprod_gen = {
            GEN_A: {(GEN_A, GEN_A): one, (GEN_BS, GEN_B): -q},
            GEN_AS: {(GEN_AS, GEN_AS): one, (GEN_B, GEN_BS): -q},
            GEN_B: {(GEN_B, GEN_A): one, (GEN_AS, GEN_B): one},
            GEN_BS: {(GEN_BS, GEN_AS): one, (GEN_A, GEN_BS): one},
        }

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

    def element(self, terms: Iterable[tuple]) -> AlgebraElement:
        out = AlgebraElement(self, {})
        for (k, l, m), coeff in terms:
            out = out + self.monomial(k, l, m, coeff)
        return out

    def tensor(self, x: AlgebraElement, y: AlgebraElement) -> TensorElement:
        out: dict = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                out[(m1, m2)] = c1 * c2
        return TensorElement(self, out)

    # -- multiplication ---------------------------------------------------

    def _mono_times_gen(self, mono: Monomial, gen: Monomial) -> dict:
        k, l, m = mono
        F = self.field
        if gen == GEN_B:
            return {Monomial(k, l + 1, m): F.one}
        if gen == GEN_BS:
            return {Monomial(k, l, m + 1): F.one}
        if gen == GEN_A:
            c = F.q_power(l + m)
            if k >= 0:
                return {Monomial(k + 1, l, m): c}
            # (a*)^|k| a = (a*)^{|k|-1} (1 - q^2 b b*)
            return {Monomial(k + 1, l, m): c,
                    Monomial(k + 1, l + 1, m + 1): -(c * F.q_power(2))}
        if gen == GEN_AS:
            c = F.q_power(-(l + m))
            if k <= 0:
                return {Monomial(k - 1, l, m): c}
            return {Monomial(k - 1, l, m): c,
                    Monomial(k - 1, l + 1, m + 1): -c}
        raise ValueError("not a generator: %r" % (gen,))

    def mono_mul(self, m1: Monomial, m2: Monomial) -> dict:
        """Product of two basis monomials as a monomial->scalar dict.

        Cached; callers must treat the returned dict as read-only.
        """
        if m1 == UNIT:
            return {m2: self.field.one}
        if m2 == UNIT:
            return {m1: self.field.one}
        key = (m1, m2)
        hit = self._prod_cache.get(key)
        if hit is not None:
            return hit
        k2, l2, m2b = m2
        gens = []
        gens.extend([GEN_A if k2 > 0 else GEN_AS] * abs(k2))
        gens.extend([GEN_B] * l2)
        gens.extend([GEN_BS] * m2b)
        acc = {m1: self.field.one}
        for gen in gens:
            nxt: dict = {}
            for mono, c in acc.items():
                for n, s in self._mono_times_gen(mono, gen).items():
                    _accumulate(nxt, n, c * s)
            acc = nxt
        self._prod_cache[key] = acc
        return acc

    def _elem_mul(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        out: dict = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                c12 = c1 * c2
                for n, s in self.mono_mul(m1, m2).items():
                    _accumulate(out, n, c12 * s)
        return AlgebraElement(self, out)

    # -- Hopf structure ---------------------------------------------------

    def coproduct_mono(self, mono: Monomial) -> dict:
        """Coproduct of a basis monomial as a (mono, mono)->scalar dict.

        Cached; treat as read-only.
        """
        hit = self._coprod_cache.get(mono)
        if hit is not None:
            return hit
        k, l, m = mono
        factors = []
        factors.extend([GEN_A if k > 0 else GEN_AS] * abs(k))
        factors.extend([GEN_B] * l)
        factors.extend([GEN_BS] * m)
        acc = TensorElement(self, {(UNIT, UNIT): self.field.one})
        for gen in factors:
            acc = acc * TensorElement(self, self._coprod_gen[gen])
        self._coprod_cache[mono] = acc.terms
        return acc.terms

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

    def haar(self, x: AlgebraElement):
        """The Haar state: vanishes off the (b b*)^l line."""
        tot = self.field.zero
        for (k, l, m), c in x.terms.items():
            if k == 0 and l == m:
                tot = tot + c * self.haar_weight(l)
        return tot

    # -- modular structure -------------------------------------------------

    def modular_twist(self, x: AlgebraElement, half_steps: int = 2) -> AlgebraElement:
        """Powers of the modular automorphism of the Haar state.

        half_steps counts multiples of 1/2: the full twist (half_steps=2)
        scales a^k b^l b*^m by q^(-2k) and satisfies h(xy) = h(twist(y) x).
        """
        F = self.field
        return AlgebraElement(self, {
            mono: c * F.q_power(-mono.a_exp * half_steps)
            for mono, c in x.terms.items()
        })

    def fundamental_corep(self) -> list:
        """The defining 2x2 corepresentation matrix [[a*, -q b], [b*, a]]."""
        return [[self.a_star, self.b.scale(-self.field.q)],
                [self.b_star, self.a]]


def make_algebra(q_num: int, q_den: int = 1, mode: str = "exact",
                 precision: int = 50) -> Algebra:
    """Build an algebra context for rational q = q_num/q_den.

    mode 'float' forces the arbitrary-precision numeric field even for
    rational q; irrational q must go through make_algebra_float.
    """
    if mode == "exact":
        return Algebra(ExactField(q_num, q_den))
    if mode == "float":
        return Algebra(FloatField(q_num / q_den, precision))
    raise ValueError("unknown scalar mode %r" % (mode,))


def make_algebra_float(q: float, precision: int = 50) -> Algebra:
    return Algebra(FloatField(q, precision))
