"""Scalar arithmetic for the deformed sphere toolkit.

Two scalar modes are supported, chosen once per algebra context:

* exact mode, used whenever the deformation parameter q is rational.
  Scalars live in the field Q(i, sqrt(m)) where m is the squarefree part
  of q_num * q_den, so that sqrt(q) itself is representable.  Every value
  is stored as four `fractions.Fraction` components
  ``(re + i*im) + (surd_re + i*surd_im) * sqrt(m)``
  and all ring operations are closed and decidable.  Half-integer powers
  of q, which the twisted calculus produces everywhere, stay exact.

* float mode, used for irrational q.  Scalars wrap arbitrary-precision
  mpmath complex numbers; the working precision in decimal digits is
  fixed when the field is created and recorded in reports.

The two scalar classes share one informal interface: +, -, *, /, unary
minus, conjugate(), is_zero(), to_complex(), and a few constructors on
their field object.  Code above this layer never touches Fractions or
mpmath directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import mpmath


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
    """Element of Q(i, sqrt(m)); immutable."""

    __slots__ = ("re", "im", "sre", "sim", "field")

    def __init__(self, field: "ExactField", re, im, sre, sim):
        # Invariant: when the field has m == 1 the surd components are
        # folded into the rational ones, so representations are unique.
        if field.m == 1:
            re = re + sre
            im = im + sim
            sre = Fraction(0)
            sim = Fraction(0)
        self.field = field
        self.re = re
        self.im = im
        self.sre = sre
        self.sim = sim

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.field, self.re + other.re, self.im + other.im,
                           self.sre + other.sre, self.sim + other.sim)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.field, self.re - other.re, self.im - other.im,
                           self.sre - other.sre, self.sim - other.sim)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(self.field, -self.re, -self.im, -self.sre, -self.sim)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        a1, b1, c1, d1 = self.re, self.im, self.sre, self.sim
        a2, b2, c2, d2 = other.re, other.im, other.sre, other.sim
        # a plain rational factor scales componentwise; the Haar weights
        # and Gram projections are all of this kind
        if not (b1 or c1 or d1):
            return ExactScalar(self.field, a1 * a2, a1 * b2, a1 * c2, a1 * d2)
        if not (b2 or c2 or d2):
            return ExactScalar(self.field, a1 * a2, b1 * a2, c1 * a2, d1 * a2)
        m = self.field.m
        return ExactScalar(
            self.field,
            a1 * a2 - b1 * b2 + m * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + m * (c1 * d2 + d1 * c2),
            a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
        )

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        m = self.field.m
        # Multiply by the surd conjugate to clear sqrt(m), then by the
        # complex conjugate to clear i.
        a, b, c, d = other.re, other.im, other.sre, other.sim
        # g + h*i = (a+bi)^2 - m*(c+di)^2
        g = a * a - b * b - m * (c * c - d * d)
        h = 2 * a * b - m * 2 * c * d
        num = self * ExactScalar(self.field, a, b, -c, -d)
        denom = g * g + h * h
        if denom == 0:
            raise ZeroDivisionError("division by zero scalar")
        return ExactScalar(
            self.field,
            (num.re * g + num.im * h) / denom,
            (num.im * g - num.re * h) / denom,
            (num.sre * g + num.sim * h) / denom,
            (num.sim * g - num.sre * h) / denom,
        )

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.field, self.re, -self.im, self.sre, -self.sim)

    def is_zero(self) -> bool:
        return not (self.re or self.im or self.sre or self.sim)

    def is_real(self) -> bool:
        return not (self.im or self.sim)

    def is_rational(self) -> bool:
        return not (self.im or self.sre or self.sim)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar %r is not a plain rational" % (self,))
        return self.re

    def to_complex(self) -> complex:
        root = self.field.sqrt_m_float
        return complex(float(self.re) + float(self.sre) * root,
                       float(self.im) + float(self.sim) * root)

    def to_mpc(self, ctx):
        """Lossless lift into an mpmath context; safe for components
        whose float conversion would overflow."""
        def cvt(f: Fraction):
            return ctx.mpf(f.numerator) / ctx.mpf(f.denominator)

        root = ctx.sqrt(ctx.mpf(self.field.m))
        return ctx.mpc(cvt(self.re) + cvt(self.sre) * root,
                       cvt(self.im) + cvt(self.sim) * root)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return (self.field.m == other.field.m and self.re == other.re
                and self.im == other.im and self.sre == other.sre
                and self.sim == other.sim)

    def __hash__(self):
        return hash((self.re, self.im, self.sre, self.sim))

    def __repr__(self):
        parts = []
        if self.re or not (self.im or self.sre or self.sim):
            parts.append(str(self.re))
        if self.im:
            parts.append("%s*i" % (self.im,))
        if self.sre:
            parts.append("%s*sqrt(%d)" % (self.sre, self.field.m))
        if self.sim:
            parts.append("%s*i*sqrt(%d)" % (self.sim, self.field.m))
        return "(" + " + ".join(parts) + ")"


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
        # sqrt(q) = (d/r) * sqrt(m)
        self._sqrt_q_rat = Fraction(d, r)
        self.sqrt_m_float = isqrt(m) if isqrt(m) ** 2 == m else m ** 0.5
        self.zero = ExactScalar(self, Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        self.one = ExactScalar(self, Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        self.i_unit = ExactScalar(self, Fraction(0), Fraction(1), Fraction(0), Fraction(0))
        self.q = ExactScalar(self, frac, Fraction(0), Fraction(0), Fraction(0))
        if m == 1:
            self.sqrt_q = ExactScalar(self, self._sqrt_q_rat, Fraction(0),
                                      Fraction(0), Fraction(0))
        else:
            self.sqrt_q = ExactScalar(self, Fraction(0), Fraction(0),
                                      self._sqrt_q_rat, Fraction(0))
        self._q_half_cache: dict[int, ExactScalar] = {0: self.one}

    def from_rational(self, num, den=1) -> ExactScalar:
        return ExactScalar(self, Fraction(num, den), Fraction(0), Fraction(0), Fraction(0))

    def from_parts(self, re=0, im=0, sre=0, sim=0) -> ExactScalar:
        return ExactScalar(self, Fraction(re), Fraction(im), Fraction(sre), Fraction(sim))

    def from_float(self, x: float, max_den: int = 10 ** 12) -> ExactScalar:
        return self.from_rational(Fraction(x).limit_denominator(max_den))

    def q_power(self, j: int) -> ExactScalar:
        return self.from_rational(self.q_fraction ** j)

    def q_half_power(self, j: int) -> ExactScalar:
        """q**(j/2) for any integer j, exact."""
        val = self._q_half_cache.get(j)
        if val is None:
            whole, rem = divmod(j, 2)
            val = self.from_rational(self.q_fraction ** whole)
            if rem:
                val = val * self.sqrt_q
            self._q_half_cache[j] = val
        return val

    def float_q(self) -> float:
        return float(self.q_fraction)

    def describe(self) -> dict:
        return {"mode": "exact", "q": str(self.q_fraction), "surd": self.m}


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

    def is_real(self) -> bool:
        return abs(self.field.ctx.im(self.val)) < self.field.negligible

    def is_rational(self) -> bool:
        return self.is_real()

    def as_fraction(self) -> Fraction:
        return Fraction(float(mpmath.re(self.val))).limit_denominator(10 ** 15)

    def to_complex(self) -> complex:
        return complex(self.val)

    def to_mpc(self, ctx):
        return ctx.mpc(self.val)

    def __eq__(self, other):
        if not isinstance(other, FloatScalar):
            return NotImplemented
        return abs(self.val - other.val) < self.field.negligible

    def __hash__(self):
        return hash(complex(self.val))

    def __repr__(self):
        return "FloatScalar(%s)" % (self.val,)


class FloatField:
    """Complex scalars at a fixed decimal precision, for irrational q."""

    mode = "float"

    def __init__(self, q: float, precision: int = 50):
        if not (0 < q <= 1):
            raise ValueError("q must lie in (0, 1], got %r" % (q,))
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

    def from_float(self, x: float, max_den: int = 10 ** 12) -> FloatScalar:
        return FloatScalar(self, self.ctx.mpc(x))

    def q_power(self, j: int) -> FloatScalar:
        return FloatScalar(self, self.q.val ** j)

    def q_half_power(self, j: int) -> FloatScalar:
        return FloatScalar(self, self.ctx.power(self.q.val, self.ctx.mpf(j) / 2))

    def float_q(self) -> float:
        return self.q_float

    def describe(self) -> dict:
        return {"mode": "float", "q": repr(self.q_float), "precision": self.precision}

