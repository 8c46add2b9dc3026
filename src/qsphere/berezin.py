"""Berezin-type averaging on the quantum sphere.

The transform beta_N compresses a sphere element through the level-N
coherent family: beta_N(x) = (1 (x) h_N) applied to the coproduct,
where h_N is the Haar state twisted into the highest weight vector of
the level-N representation.  It acts on the spin-n layer by the scalar

    c_{N,n} = [N]! [N+1]! / ([N-n]! [N+n+1]!)     (q^2-integers, n <= N)

and kills the layers above N, so the same map has a second, spectral
implementation that runs no coproduct.  Both are kept: the spectral
route is the fast path, the coproduct route its oracle, and their
agreement is one of the standing cross-checks.

The coproduct route sums one slice S_N(m) = (1 (x) h_N) Delta(m) per
monomial m of x, cached per level and read off Delta's closed form with
no tensor product (Berezin._slice).  h_N vanishes off the powers of
A = b b*, so only the terms of the triple sum for Delta(m) whose right
leg is a^r a*^r A^(n-r) survive, one per pair (i, j); these pair to the
moments h_N(A^t) of the measure with mass [N+1] (1 - q^2) q^(2m)
prod_{j=1..N} (1 - q^(2m+2j)) at the point q^(2(m+N)) of the spectrum of
A.  Monomials with a* letters take the star of a mirror slice.  A
slice's left legs differ only in their power of A and come in
descending power, the order of pairing all of Delta(x) at once (bar
partial sums that cancel at q = 1): the float shift model sums an
element's terms in dict order, so the order reaches every seminorm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gns import GnsContext, haar_inner
from .qhopf import Algebra, AlgebraElement, Monomial, _accumulate


class LayerInconsistency(RuntimeError):
    """A spin layer failed to scale uniformly under the transform.

    This cannot happen when the equivariance conventions are coherent,
    so it signals a convention bug rather than bad input."""


@dataclass
class BerezinSpectrum:
    eigenvalues: dict          # spin n -> scalar c_{N,n}
    verified_to: int           # layer constancy checked for n <= this


@dataclass
class SliceCheck:
    lip_slice: float
    bound: float
    converged: bool


class Berezin:
    """Transform, states and spectra for one algebra context.

    The levels and spins whose layers have been checked against the
    coproduct are remembered, so each layer is verified at most once.
    """

    def __init__(self, gns: GnsContext):
        self.gns = gns
        self.alg: Algebra = gns.alg
        self._moments: dict = {}         # (N, t) -> h_N(A^t)
        self._legs: dict = {}            # (N, r, n) -> W_N(r, n)
        self._slices: dict = {}          # (N, m) -> (1 (x) h_N) Delta(m)
        self._spec_verified: dict = {}   # N -> verified_to

    # -- states ------------------------------------------------------------

    def h_twisted(self, x: AlgebraElement, N: int):
        """h_N(x): Haar against the level-N highest weight vector.  It
        vanishes off the powers of A, where it reads the moments."""
        if N < 0:
            raise ValueError("level must be non-negative")
        tot = self.alg.field.zero
        for (k, l, n), c in x.terms.items():
            if k == 0 and l == n:
                tot = tot + c * self._moment(N, l)
        return tot

    def _moment(self, N: int, t: int):
        """M_N(t) = h_N(A^t) = [N+1] h(a*^N A^t a^N)
        = [N+1] q^(2Nt) h(P_N(A) A^t), the last factor alg.poly_moment."""
        val = self._moments.get((N, t))
        if val is None:
            alg = self.alg
            val = self._moments[N, t] = alg.q_bracket(N + 1) * (
                alg.field.q_power(2 * N * t) * alg.poly_moment(N, t))
        return val

    def _right_leg(self, N: int, r: int, n: int):
        """W_N(r, n) = h_N(a^r a*^r A^(n-r))
        = sum_u P_(-r)[u] M_N(n - r + u)."""
        val = self._legs.get((N, r, n))
        if val is None:
            val = self.alg.field.zero
            for u, p in enumerate(self.alg.contraction_poly(-r)):
                val = val + p * self._moment(N, n - r + u)
            self._legs[N, r, n] = val
        return val

    # -- the transform, twice ------------------------------------------------

    def via_coproduct(self, x: AlgebraElement, N: int) -> AlgebraElement:
        """(1 (x) h_N) Delta(x), the defining route: sum_m c_m S_N(m), the
        slices cached and ordered as the module docstring says."""
        x.require_sphere()
        out: dict = {}
        for m, c in x.terms.items():
            for m1, s in self._cached_slice(m, N).items():
                _accumulate(out, m1, c * s)
        return AlgebraElement(self.alg, out)

    def _cached_slice(self, m: Monomial, N: int) -> dict:
        hit = self._slices.get((N, m))
        if hit is None:
            hit = self._slices[N, m] = self._slice(m, N)
        return hit

    def _slice(self, m: Monomial, N: int) -> dict:
        """S_N(m) for a sphere monomial m = a^k b^l b*^n, n = k + l.

        For k >= 0 the (i, j, r) term of Delta(a)^k Delta(b)^l Delta(b*)^n
        (Algebra.coproduct_mono) has right leg a^(i+j) a*^r times b's, so
        h_N keeps r = i + j, where the right leg is q^(j(k-i) - r(n-r))
        a^r a*^r A^(n-r) and pairs to W_N(r, n).  With a = k - i and
        p = l - j, normal ordering (b a = q a b, b a* = q^-1 a* b,
        b* a* = q^-1 a* b*, A a = q^2 a A) makes the left leg
        a^k Q_p(q^(2a) A) b^j b*^(k+j), Q_p = contraction_poly(p), and
        its q-powers with those of the three Gaussian-binomial sums
        collect to (-1)^a q^(a(a+1+2j)).  For k < 0, Delta and h_N
        respect the star: S_N(m) = q^(K(n+l)) S_N(a^K b^n b*^l)*, K = -k."""
        alg, F = self.alg, self.alg.field
        k, l, n = m
        if k < 0:
            mirror = AlgebraElement(alg, self._cached_slice(Monomial(-k, n, l), N))
            return mirror.star().scale(F.q_power(-k * (n + l))).terms
        gk, gl, gn = (alg.gaussian_row(k, 2), alg.gaussian_row(l, 2),
                      alg.gaussian_row(n, -2))
        acc = [F.zero] * (l + 1)     # acc[u]: coefficient of a^k b^u b*^(u+k)
        for i in range(k + 1):
            a = k - i
            step = F.q_power(2 * a)
            for j in range(l + 1):
                c = (gk[i] * gl[j] * gn[i + j] * F.q_power(a * (a + 1 + 2 * j))
                     * self._right_leg(N, i + j, n))
                if a % 2:
                    c = -c
                for s, p in enumerate(alg.contraction_poly(l - j)):
                    acc[s + j] = acc[s + j] + c * p
                    c = c * step
        return {Monomial(k, u, u + k): acc[u] for u in range(l, -1, -1)
                if not acc[u].is_zero()}

    def spectrum(self, N: int, max_spin: int,
                 verify: bool = True) -> BerezinSpectrum:
        """Eigenvalues c_{N,n} of the transform on spin layers 0..max_spin.

        The values are the closed form in q^2-factorials, zero above N.
        With verify=True every weight vector of spins 1..max_spin is
        pushed through the coproduct and must scale by its closed-form
        value, which fails loudly if the formula or any convention in
        the stack were off.
        """
        if N < 0:
            raise ValueError("level must be non-negative")
        if max_spin < N:
            raise ValueError("need maxSpin >= N")
        alg = self.alg
        fact = [alg.field.one]
        for k in range(1, 2 * N + 2):
            fact.append(fact[-1] * alg.q_bracket(k))
        vals = {n: fact[N] * fact[N + 1] / (fact[N - n] * fact[N + n + 1])
                if n <= N else alg.field.zero for n in range(max_spin + 1)}

        verified_to = self._spec_verified.get(N, 0)
        if verify and verified_to < max_spin:
            self._verify_layers(N, verified_to + 1, max_spin, vals)
            verified_to = self._spec_verified[N] = max_spin
        return BerezinSpectrum(vals, verified_to)

    def _verify_layers(self, N: int, lo: int, hi: int, vals: dict) -> None:
        exact = self.alg.field.mode == "exact"
        for v in self.gns.fuzzy_basis(hi):
            if v.spin < lo or v.spin > hi:
                continue
            img = self.via_coproduct(v.element, N)
            r = img - v.element.scale(vals[v.spin])
            if exact:
                if not r.is_zero():
                    raise LayerInconsistency(
                        "spin-%d weight-%d vector scales differently"
                        % (v.spin, v.weight))
            else:
                mag = max((abs(c.to_complex()) for c in r.terms.values()),
                          default=0.0)
                if mag > 1e-10:
                    raise LayerInconsistency(
                        "spin-%d weight-%d vector off by %g"
                        % (v.spin, v.weight, mag))

    def via_spectrum(self, x: AlgebraElement, N: int) -> AlgebraElement:
        """Spectral route: scale each spin layer by its eigenvalue."""
        deg = x.sphere_degree()   # raises off the sphere subalgebra
        spec = self.spectrum(N, max(N, deg), verify=False)
        out = self.alg.scalar_element(self.alg.field.zero)
        for n, layer in self.gns.spin_split(x, deg).items():
            out = out + layer.scale(spec.eigenvalues[n])
        return out

    # -- slice estimate ------------------------------------------------------

    def slice_lip_check(self, x: AlgebraElement, xi: AlgebraElement,
                        zeta: AlgebraElement, truncation: int) -> SliceCheck:
        """Finite-truncation check that slicing contracts the Lip seminorm.

        The slice pairs the first coproduct leg against the GNS matrix
        coefficient of (xi, zeta); both Lip seminorms come from the same
        truncated representation, and the contract is
        lip(slice) <= |xi| |zeta| lip(x) modulo estimator tolerance.
        Non-convergence of either norm estimate is reported through the
        converged flag rather than raised.
        """
        from . import specnorm

        x.require_sphere()
        alg = self.alg
        xis = xi.star()

        def functional(m: Monomial):
            mid = AlgebraElement(alg, {m: alg.field.one})
            return alg.haar(xis * mid * zeta)

        y = alg.coproduct(x).pair_left(functional)
        y.require_sphere()

        lip_x = specnorm.lip_norm(self.gns.actions, x, truncation)
        lip_y = specnorm.lip_norm(self.gns.actions, y, truncation)
        nx = abs(haar_inner(alg, xi, xi).to_complex()) ** 0.5
        nz = abs(haar_inner(alg, zeta, zeta).to_complex()) ** 0.5
        bound = nx * nz * lip_x.value.lower_bound
        return SliceCheck(
            lip_slice=lip_y.value.lower_bound,
            bound=bound,
            converged=lip_x.value.converged and lip_y.value.converged,
        )
