"""Dual-pairing actions of the quantized enveloping algebra.

The generators e, f, k, k^-1 of the dual quantized enveloping algebra
act on the coordinate algebra through both tensor legs of the
coproduct: left actions delta_eta = (<eta,.> (x) 1) Delta and right
actions partial_eta = (1 (x) <eta,.>) Delta.  The pairing is carried by
a small table of generator values; everything else follows from the
twisted Leibniz rule

    D(x y) = D(x) K(y) + K^-1(x) D(y)

with K the k-action, so actions are computed by peeling one generator
at a time with memoization instead of expanding coproducts.

The table values are not axioms here: before any action is used, an
exhaustive symbolic identity suite (Leibniz, star compatibility, Haar
annihilation, grading, conjugation by the fundamental corepresentation)
must pass on every monomial up to degree 4, once per scalar field and
process.
"""

from __future__ import annotations

from fractions import Fraction

from .qhopf import (GEN_A, GEN_AS, GEN_B, GEN_BS, UNIT, Algebra,
                    AlgebraElement, Monomial, monomials)

DERIVATION_LABELS = ("delta1", "delta2", "delta3", "delta4",
                     "deltaK", "deltaKinv", "partialE", "partialF", "partialK")

# fields whose table passed the identity suite in this process; the
# suite is pure, so a repeat construction skips it
_ACCEPTED: set = set()
_VALIDATE_DEGREE = 4


class UqActions:
    """Left and right actions bound to one algebra context.

    The pairing table holds the generator values <eta, g> for eta in
    {e, f, k, kinv} and g in {a, as, b, bs}; k and kinv pair diagonally
    against the fundamental corepresentation [[as, -q b], [bs, a]].
    """

    def __init__(self, alg: Algebra):
        self.alg = alg
        self.field = F = alg.field
        z, one, q = F.zero, F.one, F.q
        # The e/f values are pinned by the identity suite: star
        # compatibility ties <f,bs> = -q conj(<e,b>), and the diagonal
        # of the corepresentation conjugation forces <e,b> = -1/q.
        tv = {
            "e": {GEN_A: z, GEN_AS: z, GEN_B: -(one / q), GEN_BS: z},
            "f": {GEN_A: z, GEN_AS: z, GEN_B: z, GEN_BS: one},
            "k": {GEN_A: F.q_half_power(1), GEN_AS: F.q_half_power(-1),
                  GEN_B: z, GEN_BS: z},
            "kinv": {GEN_A: F.q_half_power(-1), GEN_AS: F.q_half_power(1),
                     GEN_B: z, GEN_BS: z},
        }
        # Images of single generators under each action, from the
        # generator coproducts:
        #   Delta a  = a(x)a - q bs(x)b     Delta b  = b(x)a + as(x)b
        #   Delta as = as(x)as - q b(x)bs   Delta bs = bs(x)as + a(x)bs
        self._left_gen_img = {}
        self._right_gen_img = {}
        for eta in ("e", "f"):
            p = tv[eta]
            self._left_gen_img[eta] = {
                GEN_A: self._combo(((GEN_A, p[GEN_A]), (GEN_B, -(q * p[GEN_BS])))),
                GEN_B: self._combo(((GEN_A, p[GEN_B]), (GEN_B, p[GEN_AS]))),
                GEN_AS: self._combo(((GEN_AS, p[GEN_AS]), (GEN_BS, -(q * p[GEN_B])))),
                GEN_BS: self._combo(((GEN_AS, p[GEN_BS]), (GEN_BS, p[GEN_A]))),
            }
            self._right_gen_img[eta] = {
                GEN_A: self._combo(((GEN_A, p[GEN_A]), (GEN_BS, -(q * p[GEN_B])))),
                GEN_B: self._combo(((GEN_B, p[GEN_A]), (GEN_AS, p[GEN_B]))),
                GEN_AS: self._combo(((GEN_AS, p[GEN_AS]), (GEN_B, -(q * p[GEN_BS])))),
                GEN_BS: self._combo(((GEN_BS, p[GEN_AS]), (GEN_A, p[GEN_BS]))),
            }
        # k-characters: per-generator scale factors of the diagonal
        # automorphisms delta_k and partial_k
        self._left_char_base = {}
        self._right_char_base = {}
        for eta in ("k", "kinv"):
            p = tv[eta]
            self._left_char_base[eta] = {GEN_A: p[GEN_A], GEN_AS: p[GEN_AS],
                                         GEN_B: p[GEN_AS], GEN_BS: p[GEN_A]}
            self._right_char_base[eta] = {GEN_A: p[GEN_A], GEN_AS: p[GEN_AS],
                                          GEN_B: p[GEN_A], GEN_BS: p[GEN_AS]}
        self._char_cache: dict = {}
        self._ef_cache: dict = {}
        key = (F.mode, repr(F.describe()))
        if key not in _ACCEPTED:
            _run_identity_suite(self, _VALIDATE_DEGREE)
            _ACCEPTED.add(key)

    def _combo(self, pairs) -> AlgebraElement:
        out = self.alg.scalar_element(self.field.zero)
        for mono, c in pairs:
            if not c.is_zero():
                out = out + AlgebraElement(self.alg, {mono: c})
        return out

    # -- diagonal characters ---------------------------------------------

    def _char(self, side: str, eta: str, mono: Monomial):
        key = (side, eta, mono)
        hit = self._char_cache.get(key)
        if hit is not None:
            return hit
        base = (self._left_char_base if side == "left" else self._right_char_base)[eta]
        k, l, m = mono
        val = self.field.one
        ca = base[GEN_A] if k >= 0 else base[GEN_AS]
        for _ in range(abs(k)):
            val = val * ca
        for _ in range(l):
            val = val * base[GEN_B]
        for _ in range(m):
            val = val * base[GEN_BS]
        self._char_cache[key] = val
        return val

    def _apply_char(self, side: str, eta: str, x: AlgebraElement) -> AlgebraElement:
        out: dict = {}
        for mono, c in x.terms.items():
            s = c * self._char(side, eta, mono)
            if not s.is_zero():
                out[mono] = s
        return AlgebraElement(self.alg, out)

    # -- e/f actions by twisted Leibniz recursion --------------------------

    def _peel_left(self, mono: Monomial):
        k, l, m = mono
        if k > 0:
            return GEN_A, Monomial(k - 1, l, m)
        if k < 0:
            return GEN_AS, Monomial(k + 1, l, m)
        if l > 0:
            return GEN_B, Monomial(0, l - 1, m)
        return GEN_BS, Monomial(0, l, m - 1)

    def _peel_right(self, mono: Monomial):
        k, l, m = mono
        if m > 0:
            return Monomial(k, l, m - 1), GEN_BS
        if l > 0:
            return Monomial(k, l - 1, 0), GEN_B
        if k > 0:
            return Monomial(k - 1, 0, 0), GEN_A
        return Monomial(k + 1, 0, 0), GEN_AS

    def _ef_mono(self, side: str, eta: str, mono: Monomial) -> AlgebraElement:
        key = (side, eta, mono)
        hit = self._ef_cache.get(key)
        if hit is not None:
            return hit
        alg = self.alg
        if mono == UNIT:
            out = alg.scalar_element(self.field.zero)
        elif side == "left":
            g, rest = self._peel_left(mono)
            img_g = self._left_gen_img[eta][g]
            rest_el = AlgebraElement(alg, {rest: self.field.one})
            out = (img_g * rest_el).scale(self._char("left", "k", rest))
            tail = self._ef_mono(side, eta, rest)
            if not tail.is_zero():
                g_el = AlgebraElement(alg, {g: self._char("left", "kinv", g)})
                out = out + g_el * tail
        else:
            rest, g = self._peel_right(mono)
            img_g = self._right_gen_img[eta][g]
            rest_el = AlgebraElement(alg, {rest: self.field.one})
            head = self._ef_mono(side, eta, rest)
            out = AlgebraElement(alg, {})
            if not head.is_zero():
                out = head.scale(self._char("right", "k", g)) * AlgebraElement(
                    alg, {g: self.field.one})
            out = out + (rest_el * img_g).scale(self._char("right", "kinv", rest))
        self._ef_cache[key] = out
        return out

    def _ef(self, side: str, eta: str, x: AlgebraElement) -> AlgebraElement:
        out = self.alg.scalar_element(self.field.zero)
        for mono, c in x.terms.items():
            out = out + self._ef_mono(side, eta, mono).scale(c)
        return out

    # -- public actions ----------------------------------------------------

    def partial_action(self, eta: str, x: AlgebraElement) -> AlgebraElement:
        if eta in ("k", "kinv"):
            return self._apply_char("right", eta, x)
        if eta in ("e", "f"):
            return self._ef("right", eta, x)
        raise ValueError("unknown generator %r" % eta)

    def _delta3_eigen(self, side: str, mono: Monomial):
        F = self.field
        num = self._char(side, "k", mono) - self._char(side, "kinv", mono)
        den = F.q - (F.one / F.q)
        if not den.is_zero():
            return num / den
        # q = 1: the half-weight limit of (k - kinv) / (q - 1/q)
        w = mono.left_degree() if side == "left" else mono.right_degree()
        return F.from_rational(Fraction(w, 2))

    def _delta3(self, side: str, x: AlgebraElement) -> AlgebraElement:
        out: dict = {}
        for mono, c in x.terms.items():
            s = c * self._delta3_eigen(side, mono)
            if not s.is_zero():
                out[mono] = s
        return AlgebraElement(self.alg, out)

    def twisted_derivation(self, label: str, x: AlgebraElement) -> AlgebraElement:
        F = self.field
        if label == "delta1":
            return self._ef("left", "e", x).scale(F.q_half_power(1))
        if label == "delta2":
            return self._ef("left", "f", x).scale(F.q_half_power(-1))
        if label == "delta3":
            return self._delta3("left", x)
        if label == "delta4":
            return -self._delta3("left", x)
        if label == "deltaK":
            return self._apply_char("left", "k", x)
        if label == "deltaKinv":
            return self._apply_char("left", "kinv", x)
        if label == "partialE":
            return self._ef("right", "e", x)
        if label == "partialF":
            return self._ef("right", "f", x)
        if label == "partialK":
            return self._apply_char("right", "k", x)
        raise ValueError("unknown derivation label %r" % label)

    def _require_degree_zero(self, x: AlgebraElement) -> None:
        for mono in x.terms:
            if mono.right_degree() != 0:
                raise ValueError("element has a right-degree %d component; "
                                 "only the degree-0 subalgebra is allowed"
                                 % mono.right_degree())

    def delta_matrix(self, x: AlgebraElement) -> list:
        """[[-d3(x), d2(x)], [d1(x), d3(x)]]; for x = x* this matrix is
        skew-adjoint over the *-algebra (entrywise star-transpose is its
        negative), which is the identity the star-compatibility rules
        force."""
        self._require_degree_zero(x)
        d1 = self.twisted_derivation("delta1", x)
        d2 = self.twisted_derivation("delta2", x)
        d3 = self.twisted_derivation("delta3", x)
        return [[-d3, d2], [d1, d3]]

    def partial_matrix(self, x: AlgebraElement) -> list:
        """Right-action analog of delta_matrix on the degree-0 part,
        where the diagonal vanishes."""
        self._require_degree_zero(x)
        F = self.field
        p1 = self._ef("right", "e", x).scale(F.q_half_power(1))
        p2 = self._ef("right", "f", x).scale(F.q_half_power(-1))
        zero = self.alg.scalar_element(F.zero)
        return [[zero, p2], [p1, zero]]

    def dirac_components(self, x: AlgebraElement) -> tuple:
        """Multiplication-operator symbols of the two off-diagonal
        commutator blocks: (q^(1/2) partial_e(x), q^(-1/2) partial_f(x))."""
        self._require_degree_zero(x)
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

    # star compatibility and Haar annihilation, per monomial
    for m, x in elems.items():
        xs = x.star()
        if der("delta1", xs) != -(der("delta2", x).star()):
            fail("delta1(x*) != -delta2(x)* at %r" % (m,))
        if der("delta3", xs) != -(der("delta3", x).star()):
            fail("delta3(x*) != -delta3(x)* at %r" % (m,))
        for label in ("delta1", "delta2", "delta3"):
            if not alg.haar(der(label, x)).is_zero():
                fail("h(%s(x)) != 0 at %r" % (label, m))
        if not (alg.haar(der("deltaK", x)) - alg.haar(x)).is_zero():
            fail("h(deltaK(x)) != h(x) at %r" % (m,))
        # grading: left actions act on the left tensor leg, so they keep
        # the right degree; right actions keep the left degree
        rdeg = m.right_degree()
        ldeg = m.left_degree()
        for label in DERIVATION_LABELS:
            img = der(label, x)
            partial = label.startswith("partial")
            for n in img.terms:
                if partial:
                    if n.left_degree() != ldeg:
                        fail("%s broke the left grading at %r" % (label, m))
                elif n.right_degree() != rdeg:
                    fail("%s broke the right grading at %r" % (label, m))
        twisted = alg.modular_twist(x)
        for n in twisted.terms:
            if n.right_degree() != rdeg or n.left_degree() != ldeg:
                fail("modular twist broke the grading at %r" % (m,))

    # twisted Leibniz on all monomial pairs within the degree budget
    labels_ef = (("delta1",), ("delta2",), ("delta3",))
    for m1, x in elems.items():
        for m2, y in elems.items():
            if m1.total_degree() + m2.total_degree() > max_degree:
                continue
            xy = x * y
            kx = der("deltaKinv", x)
            ky = der("deltaK", y)
            for (label,) in labels_ef:
                lhs = der(label, xy)
                rhs = der(label, x) * ky + kx * der(label, y)
                if lhs != rhs:
                    fail("twisted Leibniz fails for %s at %r * %r"
                         % (label, m1, m2))

    # automorphism property of the k-actions
    for m1, x in elems.items():
        for m2, y in elems.items():
            if m1.total_degree() + m2.total_degree() > max_degree:
                continue
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
