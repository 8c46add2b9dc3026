"""Scalar arithmetic for the deformed sphere toolkit.

Two scalar modes are supported, chosen once per algebra context:

* exact mode, used whenever the deformation parameter q is rational.
  Scalars live in the field Q(i, sqrt(m)) where m is the squarefree part
  of q_num * q_den, so that sqrt(q) itself is representable.  Every value
  is stored as four integer numerators over one shared denominator,
  ``(a + b*i + (c + d*i) * sqrt(m)) / den``,
  and all ring operations are closed and decidable.  Half-integer powers
  of q, which the twisted calculus produces everywhere, stay exact.

* float mode, used for irrational q.  Scalars wrap arbitrary-precision
  mpmath complex numbers; the working precision in decimal digits is
  fixed when the field is created and recorded in reports.

The two scalar classes share one informal interface: +, -, *, /, unary
minus, conjugate(), is_zero(), to_complex(), and a few constructors on
their field object, whose inv_sqrt and whiten round the Gram oracle's
entries.  Code above this layer never touches Fractions or mpmath.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isinf, isqrt, lcm

WHITEN_BITS = 320     # whiten's fixed point: 267 guard bits past a double


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (d, m) with n = d*d*m and m squarefree, for n >= 1."""
    if n < 1:
        raise ValueError("need a positive integer, got %r" % (n,))
    d = 1
    m = 1
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            d *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    m *= rest
    return d, m


class ExactScalar:
    """Element of Q(i, sqrt(m)); immutable.

    Stored as five ints, the value (a + b*i + (c + d*i)*sqrt(m)) / den, in
    canonical form: den > 0, gcd(a, b, c, d, den) == 1, and c == d == 0
    when m == 1.  Equal values have equal representations; each ring
    operation is integer arithmetic and one gcd (of two ints on rationals).
    """

    __slots__ = ("a", "b", "c", "d", "den", "field")

    def __init__(self, field: "ExactField", a: int, b: int, c: int, d: int,
                 den: int = 1):
        if (c or d) and field.m == 1:
            a, b, c, d = a + c, b + d, 0, 0
        g = gcd(a, b, c, d, den)
        if den < 0:
            g = -g
        if g != 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
        self.field, self.a, self.b, self.c, self.d, self.den = (
            field, a, b, c, d, den)

    # the four components as Fractions, for serialization and tests
    re = property(lambda self: Fraction(self.a, self.den))
    im = property(lambda self: Fraction(self.b, self.den))
    sre = property(lambda self: Fraction(self.c, self.den))
    sim = property(lambda self: Fraction(self.d, self.den))

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        e, f = self.den, other.den
        if not (self.b or self.c or self.d or other.b or other.c or other.d):
            return _rational(self.field, self.a * f + other.a * e, e * f)
        return ExactScalar(self.field, self.a * f + other.a * e,
                           self.b * f + other.b * e, self.c * f + other.c * e,
                           self.d * f + other.d * e, e * f)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        e, f = self.den, other.den
        if not (self.b or self.c or self.d or other.b or other.c or other.d):
            return _rational(self.field, self.a * f - other.a * e, e * f)
        return ExactScalar(self.field, self.a * f - other.a * e,
                           self.b * f - other.b * e, self.c * f - other.c * e,
                           self.d * f - other.d * e, e * f)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(self.field, -self.a, -self.b, -self.c, -self.d,
                           self.den)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        den = self.den * other.den
        # a plain rational factor scales componentwise; the Haar weights
        # and Gram projections are all of this kind
        if not (b1 or c1 or d1):
            if not (b2 or c2 or d2):
                return _rational(self.field, a1 * a2, den)
            return ExactScalar(self.field, a1 * a2, a1 * b2, a1 * c2, a1 * d2,
                               den)
        if not (b2 or c2 or d2):
            return ExactScalar(self.field, a1 * a2, b1 * a2, c1 * a2, d1 * a2,
                               den)
        m = self.field.m
        return ExactScalar(
            self.field,
            a1 * a2 - b1 * b2 + m * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + m * (c1 * d2 + d1 * c2),
            a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            den,
        )

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        a, b, c, d, f = other.a, other.b, other.c, other.d, other.den
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("division by zero scalar")
            return ExactScalar(self.field, self.a * f, self.b * f,
                               self.c * f, self.d * f, self.den * a)
        m = self.field.m
        # Multiply by the surd conjugate to clear sqrt(m), then by the
        # complex conjugate to clear i.
        # g + h*i = (a+bi)^2 - m*(c+di)^2
        g = a * a - b * b - m * (c * c - d * d)
        h = 2 * a * b - m * 2 * c * d
        num = self * ExactScalar(self.field, a, b, -c, -d)
        p, r, s, t = num.a, num.b, num.c, num.d
        return ExactScalar(self.field, (p * g + r * h) * f, (r * g - p * h) * f,
                           (s * g + t * h) * f, (t * g - s * h) * f,
                           num.den * (g * g + h * h))

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.field, self.a, -self.b, self.c, -self.d,
                           self.den)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar %r is not a plain rational" % (self,))
        return self.re

    def to_complex(self) -> complex:
        # int / int true division rounds correctly, as float(Fraction) does
        den, root = self.den, self.field.sqrt_m_float
        return complex(self.a / den + self.c / den * root,
                       self.b / den + self.d / den * root)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return (self.field.m == other.field.m and self.a == other.a
                and self.b == other.b and self.c == other.c
                and self.d == other.d and self.den == other.den)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d, self.den))

    def __repr__(self):
        parts = []
        if self.a or self.is_zero():
            parts.append(str(self.re))
        if self.b:
            parts.append("%s*i" % (self.im,))
        if self.c:
            parts.append("%s*sqrt(%d)" % (self.sre, self.field.m))
        if self.d:
            parts.append("%s*i*sqrt(%d)" % (self.sim, self.field.m))
        return "(" + " + ".join(parts) + ")"


def _rational(field: "ExactField", a: int, den: int) -> ExactScalar:
    """Canonical a / den, den > 0, by one two-argument gcd."""
    g = gcd(a, den)
    z = object.__new__(ExactScalar)
    z.field, z.a, z.b, z.c, z.d, z.den = field, a // g, 0, 0, 0, den // g
    return z


class ExactField:
    """Scalar field Q(i, sqrt(m)) attached to a rational q in (0, 1]."""

    mode = "exact"

    def __init__(self, q_num: int, q_den: int):
        frac = Fraction(q_num, q_den)
        if not (0 < frac <= 1):
            raise ValueError("q must lie in (0, 1], got %s" % (frac,))
        self.q_fraction = frac
        p, r = frac.numerator, frac.denominator
        d, m = squarefree_split(p * r)
        self.m = m
        self.sqrt_m_float = isqrt(m) if isqrt(m) ** 2 == m else m ** 0.5
        self.sqrt_m_fixed = isqrt(m << 2 * WHITEN_BITS)
        self.zero = ExactScalar(self, 0, 0, 0, 0)
        self.one = ExactScalar(self, 1, 0, 0, 0)
        self.i_unit = ExactScalar(self, 0, 1, 0, 0)
        self.q = ExactScalar(self, p, 0, 0, 0, r)
        # sqrt(q) = (d/r) * sqrt(m); folded to d/r when m == 1
        self.sqrt_q = ExactScalar(self, 0, 0, d, 0, r)
        self._q_half_cache: dict[int, ExactScalar] = {0: self.one}

    def inv_sqrt(self, s: ExactScalar) -> int:
        """floor(2^K / sqrt(s)), K = WHITEN_BITS, for rational s > 0; to
        2^-K relative when s <= 1, as Haar squared norms are."""
        f = s.as_fraction()
        return isqrt((f.denominator << 2 * WHITEN_BITS) // f.numerator)

    def whiten(self, parts: list, r1: int, r2: int) -> complex:
        """(a + b*i + (c + d*i)*sqrt(m)) / den / sqrt(s1 s2) rounded once,
        for parts = [a, b, c, d, den] in any scale and r = inv_sqrt(s): in
        fixed point at K = WHITEN_BITS, sqrt(m) as floor(2^K sqrt(m)), then
        int / int true division, which rounds the quotient correctly, so
        the result depends on the value of parts alone."""
        a, b, c, d, den = parts
        K, root, scale = WHITEN_BITS, self.sqrt_m_fixed, r1 * r2
        den <<= 3 * K
        return complex(((a << K) + c * root) * scale / den,
                       ((b << K) + d * root) * scale / den)

    def from_rational(self, num, den=1) -> ExactScalar:
        if type(num) is int and type(den) is int and den:
            return ExactScalar(self, num, 0, 0, 0, den)
        f = Fraction(num, den)
        return ExactScalar(self, f.numerator, 0, 0, 0, f.denominator)

    def from_parts(self, re=0, im=0, sre=0, sim=0) -> ExactScalar:
        parts = [Fraction(x) for x in (re, im, sre, sim)]
        den = lcm(*(f.denominator for f in parts))
        return ExactScalar(self, *(f.numerator * (den // f.denominator)
                                   for f in parts), den)

    def q_power(self, j: int) -> ExactScalar:
        return self.q_half_power(2 * j)

    def q_half_power(self, j: int) -> ExactScalar:
        """q**(j/2) for any integer j, exact; one shared value per j."""
        val = self._q_half_cache.get(j)
        if val is None:
            w, rem = divmod(j, 2)
            num, den = (self.q.a, self.q.den) if w >= 0 else (self.q.den, self.q.a)
            val = ExactScalar(self, num ** abs(w), 0, 0, 0, den ** abs(w))
            if rem:
                val = val * self.sqrt_q
            self._q_half_cache[j] = val
        return val

    def float_q(self) -> float:
        return float(self.q_fraction)


class FloatScalar:
    """Arbitrary-precision complex scalar (mpmath-backed)."""

    __slots__ = ("val", "field")

    def __init__(self, field: "FloatField", val):
        self.field = field
        self.val = val

    def __add__(self, other):
        return FloatScalar(self.field, self.val + other.val)

    def __sub__(self, other):
        return FloatScalar(self.field, self.val - other.val)

    def __neg__(self):
        return FloatScalar(self.field, -self.val)

    def __mul__(self, other):
        return FloatScalar(self.field, self.val * other.val)

    def __truediv__(self, other):
        return FloatScalar(self.field, self.val / other.val)

    def conjugate(self):
        # field.ctx, not the mpmath global context: module-level conj
        # would round to the global (lower) working precision
        return FloatScalar(self.field, self.field.ctx.conj(self.val))

    def is_zero(self) -> bool:
        return abs(self.val) < self.field.negligible

    def to_complex(self) -> complex:
        return complex(self.val)

    def __eq__(self, other):
        if not isinstance(other, FloatScalar):
            return NotImplemented
        return abs(self.val - other.val) < self.field.negligible

    # equality has a tolerance, which no hash can respect
    __hash__ = None

    def __repr__(self):
        return "FloatScalar(%s)" % (self.val,)


class FloatField:
    """Complex scalars at a fixed decimal precision, for irrational q."""

    mode = "float"

    def __init__(self, q: float, precision: int = 50):
        if not (0 < q <= 1):
            raise ValueError("q must lie in (0, 1], got %r" % (q,))
        import mpmath   # only float fields need it; exact start-up skips it

        self.precision = precision
        self.ctx = mpmath.mp.clone()
        self.ctx.dps = precision
        # Residuals below this threshold count as structural zeros.
        self.negligible = mpmath.mpf(10) ** (-(precision - 10))
        self.q_float = q
        self.zero = FloatScalar(self, self.ctx.mpc(0))
        self.one = FloatScalar(self, self.ctx.mpc(1))
        self.i_unit = FloatScalar(self, self.ctx.mpc(0, 1))
        self.q = FloatScalar(self, self.ctx.mpc(q))
        self.sqrt_q = FloatScalar(self, self.ctx.sqrt(self.ctx.mpc(q)))

    def inv_sqrt(self, s: FloatScalar):
        """1 / sqrt(Re s) at the field's precision."""
        return 1 / self.ctx.sqrt(self.ctx.re(s.val))

    def whiten(self, z: FloatScalar, r1, r2) -> complex:
        """z * r1 * r2 rounded once, r = inv_sqrt(s)."""
        w = complex(z.val * r1 * r2)
        if isinf(w.real) or isinf(w.imag):
            raise OverflowError("whitened value beyond float range")
        return w

    def from_rational(self, num, den=1) -> FloatScalar:
        f = Fraction(num, den)
        return FloatScalar(self, self.ctx.mpf(f.numerator) / self.ctx.mpf(f.denominator))

    def from_parts(self, re=0, im=0, sre=0, sim=0) -> FloatScalar:
        if sre or sim:
            raise ValueError("float mode has no surd components")

        def cvt(x):
            f = Fraction(x)
            return self.ctx.mpf(f.numerator) / self.ctx.mpf(f.denominator)

        return FloatScalar(self, self.ctx.mpc(cvt(re), cvt(im)))

    def from_float(self, x: float) -> FloatScalar:
        return FloatScalar(self, self.ctx.mpc(x))

    def q_power(self, j: int) -> FloatScalar:
        return FloatScalar(self, self.q.val ** j)

    def q_half_power(self, j: int) -> FloatScalar:
        return FloatScalar(self, self.ctx.power(self.q.val, self.ctx.mpf(j) / 2))

    def float_q(self) -> float:
        return self.q_float
