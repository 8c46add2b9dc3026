"""Dual-pairing actions of the quantized enveloping algebra.

The generators e, f, k, k^-1 of the dual quantized enveloping algebra
act on the coordinate algebra through both tensor legs of the
coproduct: left actions delta_eta = (<eta,.> (x) 1) Delta and right
actions partial_eta = (1 (x) <eta,.>) Delta.  The pairing is a small
table of values <eta, g> on the four generators g.  The image of g
under an action is qhopf's coproduct of g with that table applied to
one leg, and the k-actions, which are diagonal, scale each generator by
the coefficient of its own image.  Everything else follows from the
twisted Leibniz rule

    D(x y) = D(x) K(y) + K^-1(x) D(y)

with K the k-action: a monomial's image comes from splitting off one
letter of its generator word, the first for a left action and the last
for a right one, with memoization instead of expanding coproducts.
ACTIONS names every action by its side, generator and scale.

The table values are not axioms here: before any action is used, an
exhaustive symbolic identity suite (Leibniz, star compatibility, Haar
annihilation, grading, conjugation by the fundamental corepresentation)
must pass on every monomial up to degree 4, once per scalar field and
process.
"""

from __future__ import annotations

from fractions import Fraction

from .qhopf import (GEN_A, GEN_AS, GEN_B, GEN_BS, UNIT, Algebra,
                    AlgebraElement, Monomial, _accumulate, generator_word,
                    monomials)

# label -> (side, generator, power of q^(1/2) that scales the image);
# "h" acts diagonally by (k - k^-1)/(q - q^-1) and "-h" by its negative
ACTIONS = {
    "delta1": ("left", "e", 1),
    "delta2": ("left", "f", -1),
    "delta3": ("left", "h", 0),
    "delta4": ("left", "-h", 0),
    "deltaK": ("left", "k", 0),
    "deltaKinv": ("left", "kinv", 0),
    "partialE": ("right", "e", 0),
    "partialF": ("right", "f", 0),
    "partialK": ("right", "k", 0),
    "partialKinv": ("right", "kinv", 0),
}

# fields whose table passed the identity suite in this process; the
# suite is pure, so a repeat construction skips it
_ACCEPTED: set = set()
_VALIDATE_DEGREE = 4


def _pairing_table(F) -> dict:
    """<eta, g> for eta in {e, f, k, kinv} and the four generators g.

    k and kinv pair diagonally against the fundamental corepresentation
    [[as, -q b], [bs, a]].  The e/f values are pinned by the identity
    suite: star compatibility ties <f,bs> = -q conj(<e,b>), and the
    diagonal of the corepresentation conjugation forces <e,b> = -1/q.
    """
    z, one = F.zero, F.one
    return {
        "e": {GEN_A: z, GEN_AS: z, GEN_B: -(one / F.q), GEN_BS: z},
        "f": {GEN_A: z, GEN_AS: z, GEN_B: z, GEN_BS: one},
        "k": {GEN_A: F.q_half_power(1), GEN_AS: F.q_half_power(-1),
              GEN_B: z, GEN_BS: z},
        "kinv": {GEN_A: F.q_half_power(-1), GEN_AS: F.q_half_power(1),
                 GEN_B: z, GEN_BS: z},
    }


class UqActions:
    """Left and right actions bound to one algebra context."""

    def __init__(self, alg: Algebra):
        self.alg = alg
        self.field = F = alg.field
        # (side, eta, mono) -> image of the monomial; seeded with the
        # generator images and, for e and f, the zero image of the unit
        self._images: dict = {}
        table = _pairing_table(F)
        for g in (GEN_A, GEN_AS, GEN_B, GEN_BS):
            cop = alg.coproduct(AlgebraElement(alg, {g: F.one}))
            for eta, values in table.items():
                self._images["left", eta, g] = cop.pair_left(values.__getitem__)
                self._images["right", eta, g] = cop.pair_right(values.__getitem__)
        for side in ("left", "right"):
            for eta in ("e", "f"):
                self._images[side, eta, UNIT] = AlgebraElement(alg, {})
        self._diag_cache: dict = {}
        key = (F.mode, repr(F.describe()))
        if key not in _ACCEPTED:
            _run_identity_suite(self, _VALIDATE_DEGREE)
            _ACCEPTED.add(key)

    # -- diagonal actions --------------------------------------------------

    def _diagonal_value(self, side: str, eta: str, mono: Monomial):
        """The scalar by which a diagonal action (k, kinv, h or -h)
        multiplies mono."""
        key = (side, eta, mono)
        val = self._diag_cache.get(key)
        if val is not None:
            return val
        F = self.field
        if eta == "-h":
            val = -self._diagonal_value(side, "h", mono)
        elif eta == "h":
            num = (self._diagonal_value(side, "k", mono)
                   - self._diagonal_value(side, "kinv", mono))
            den = F.q - (F.one / F.q)
            # q = 1: the half-weight limit of (k - kinv) / (q - 1/q)
            val = (num / den if not den.is_zero()
                   else F.from_rational(Fraction(mono.left_degree(), 2)))
        else:
            val = F.one
            for g in generator_word(mono):
                val = val * self._images[side, eta, g].coefficient(g)
        self._diag_cache[key] = val
        return val

    def _diagonal(self, side: str, eta: str, x: AlgebraElement) -> AlgebraElement:
        out: dict = {}
        for mono, c in x.terms.items():
            s = c * self._diagonal_value(side, eta, mono)
            if not s.is_zero():
                out[mono] = s
        return AlgebraElement(self.alg, out)

    def _k_image(self, side: str, eta: str, mono: Monomial) -> AlgebraElement:
        return AlgebraElement(self.alg,
                              {mono: self._diagonal_value(side, eta, mono)})

    # -- e/f actions by twisted Leibniz recursion --------------------------

    def _ef_mono(self, side: str, eta: str, mono: Monomial) -> AlgebraElement:
        key = (side, eta, mono)
        out = self._images.get(key)
        if out is not None:
            return out
        # split off the letter g on the side the action pairs against
        word = generator_word(mono)
        g = word[0] if side == "left" else word[-1]
        rest = Monomial(mono[0] - g[0], mono[1] - g[1], mono[2] - g[2])
        x, y = (g, rest) if side == "left" else (rest, g)
        out = (self._ef_mono(side, eta, x) * self._k_image(side, "k", y)
               + self._k_image(side, "kinv", x) * self._ef_mono(side, eta, y))
        self._images[key] = out
        return out

    def _ef(self, side: str, eta: str, x: AlgebraElement) -> AlgebraElement:
        out: dict = {}
        for mono, c in x.terms.items():
            for n, s in self._ef_mono(side, eta, mono).terms.items():
                _accumulate(out, n, s * c)
        return AlgebraElement(self.alg, out)

    # -- public actions ----------------------------------------------------

    def twisted_derivation(self, label: str, x: AlgebraElement) -> AlgebraElement:
        """The action named label in ACTIONS, applied to x."""
        try:
            side, eta, half = ACTIONS[label]
        except KeyError:
            raise ValueError("unknown derivation label %r" % label) from None
        if eta not in ("e", "f"):
            return self._diagonal(side, eta, x)
        out = self._ef(side, eta, x)
        return out.scale(self.field.q_half_power(half)) if half else out

    def delta_matrix(self, x: AlgebraElement) -> list:
        """[[-d3(x), d2(x)], [d1(x), d3(x)]]; for x = x* this matrix is
        skew-adjoint over the *-algebra (entrywise star-transpose is its
        negative), which is the identity the star-compatibility rules
        force."""
        x.require_sphere()
        d1 = self.twisted_derivation("delta1", x)
        d2 = self.twisted_derivation("delta2", x)
        d3 = self.twisted_derivation("delta3", x)
        return [[-d3, d2], [d1, d3]]

    def partial_matrix(self, x: AlgebraElement) -> list:
        """Right-action analog of delta_matrix on the degree-0 part,
        where the diagonal vanishes."""
        p1, p2 = self.dirac_components(x)
        zero = self.alg.scalar_element(self.field.zero)
        return [[zero, p2], [p1, zero]]

    def dirac_components(self, x: AlgebraElement) -> tuple:
        """Multiplication-operator symbols of the two off-diagonal
        commutator blocks: (q^(1/2) partial_e(x), q^(-1/2) partial_f(x))."""
        x.require_sphere()
        F = self.field
        return (self._ef("right", "e", x).scale(F.q_half_power(1)),
                self._ef("right", "f", x).scale(F.q_half_power(-1)))


def mat2_mul(P: list, Q: list) -> list:
    return [[P[0][0] * Q[0][0] + P[0][1] * Q[1][0],
             P[0][0] * Q[0][1] + P[0][1] * Q[1][1]],
            [P[1][0] * Q[0][0] + P[1][1] * Q[1][0],
             P[1][0] * Q[0][1] + P[1][1] * Q[1][1]]]


def mat2_star(P: list) -> list:
    return [[P[0][0].star(), P[1][0].star()],
            [P[0][1].star(), P[1][1].star()]]


def sphere_monomials(alg: Algebra, max_degree: int) -> list:
    """The unit, then B^i A^j and B*^i A^j (i > 0) for each degree
    i + j = 1..max_degree.  random_elements(sphere=True) draws from this
    list by index, so the order is part of its seeded output."""
    out = [alg.unit]
    for d in range(1, max_degree + 1):
        for i in range(d + 1):
            j = d - i
            out.append((alg.sphere_B ** i) * (alg.sphere_A ** j))
            if i:
                out.append((alg.sphere_B_star ** i) * (alg.sphere_A ** j))
    return out


def leibniz_holds(actions: UqActions, x: AlgebraElement,
                  y: AlgebraElement) -> bool:
    """delta1, delta2 and delta3 each obey the twisted Leibniz rule
    D(x y) = D(x) K(y) + K^-1(x) D(y) on the pair x, y."""
    der = actions.twisted_derivation
    xy = x * y
    kx = der("deltaKinv", x)
    ky = der("deltaK", y)
    return all(der(label, xy) == der(label, x) * ky + kx * der(label, y)
               for label in ("delta1", "delta2", "delta3"))


def star_rules_hold(actions: UqActions, x: AlgebraElement) -> bool:
    """delta1(x*) = -delta2(x)* and delta3(x*) = -delta3(x)*."""
    der = actions.twisted_derivation
    xs = x.star()
    return (der("delta1", xs) == -(der("delta2", x).star())
            and der("delta3", xs) == -(der("delta3", x).star()))


def haar_annihilates(actions: UqActions, x: AlgebraElement) -> bool:
    """The Haar state vanishes on delta1(x), delta2(x) and delta3(x)."""
    der = actions.twisted_derivation
    return all(actions.alg.haar(der(label, x)).is_zero()
               for label in ("delta1", "delta2", "delta3"))


def _run_identity_suite(actions: UqActions, max_degree: int) -> None:
    """Reject a pairing table unless the whole identity suite holds
    symbolically up to max_degree: twisted Leibniz, star rules, Haar
    annihilation, grading, and conjugation by the corepresentation."""
    alg = actions.alg
    F = actions.field
    monos = monomials(max_degree)
    elems = {m: AlgebraElement(alg, {m: F.one}) for m in monos}
    der = actions.twisted_derivation

    def fail(msg):
        raise ValueError("pairing table rejected: " + msg)

    for m, x in elems.items():
        if not star_rules_hold(actions, x):
            fail("star rules fail at %r" % (m,))
        if not haar_annihilates(actions, x):
            fail("the Haar state does not annihilate D(x) at %r" % (m,))
        if not (alg.haar(der("deltaK", x)) - alg.haar(x)).is_zero():
            fail("h(deltaK(x)) != h(x) at %r" % (m,))
        # grading: left actions act on the left tensor leg, so they keep
        # the right degree; right actions keep the left degree
        rdeg = m.right_degree()
        ldeg = m.left_degree()
        for label, (side, _eta, _half) in ACTIONS.items():
            for n in der(label, x).terms:
                if side == "right":
                    if n.left_degree() != ldeg:
                        fail("%s broke the left grading at %r" % (label, m))
                elif n.right_degree() != rdeg:
                    fail("%s broke the right grading at %r" % (label, m))
        twisted = alg.modular_twist(x)
        for n in twisted.terms:
            if n.right_degree() != rdeg or n.left_degree() != ldeg:
                fail("modular twist broke the grading at %r" % (m,))

    # twisted Leibniz and multiplicativity of the k-action on all
    # monomial pairs within the degree budget
    for m1, x in elems.items():
        for m2, y in elems.items():
            if m1.total_degree() + m2.total_degree() > max_degree:
                continue
            if not leibniz_holds(actions, x, y):
                fail("twisted Leibniz fails at %r * %r" % (m1, m2))
            if der("deltaK", x * y) != der("deltaK", x) * der("deltaK", y):
                fail("deltaK is not multiplicative at %r * %r" % (m1, m2))

    # conjugation by the corepresentation ties left to right actions
    u = alg.fundamental_corep()
    for x in sphere_monomials(alg, min(max_degree, 3)):
        lhs = actions.delta_matrix(x)
        rhs = mat2_mul(mat2_mul(u, actions.partial_matrix(x)), mat2_star(u))
        for i in (0, 1):
            for j in (0, 1):
                if lhs[i][j] != rhs[i][j]:
                    fail("delta != u partial u* at entry (%d,%d)" % (i, j))
