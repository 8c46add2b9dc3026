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

The table values are not axioms here, and constructing UqActions does
not check them: `verify --suite derivations` (suites.derivations_suite)
does, with twisted Leibniz, star rules, Haar annihilation and grading on
every monomial up to degree 4 and conjugation by the fundamental
corepresentation on the sphere monomials up to degree 3.
"""

from __future__ import annotations

from fractions import Fraction

from .qhopf import (GEN_A, GEN_AS, GEN_B, GEN_BS, UNIT, Algebra,
                    AlgebraElement, Monomial, _accumulate, generator_word)

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


def _pairing_table(F) -> dict:
    """<eta, g> for eta in {e, f, k, kinv} and the four generators g.

    k and kinv pair diagonally against the fundamental corepresentation
    [[as, -q b], [bs, a]].  The e/f values are pinned by the derivations
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

    def dirac_components(self, x: AlgebraElement) -> tuple:
        """Multiplication-operator symbols of the two off-diagonal
        commutator blocks: (q^(1/2) partial_e(x), q^(-1/2) partial_f(x))."""
        x.require_sphere()
        F = self.field
        return (self._ef("right", "e", x).scale(F.q_half_power(1)),
                self._ef("right", "f", x).scale(F.q_half_power(-1)))


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
