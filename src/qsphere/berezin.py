"""Berezin-type averaging on the quantum sphere.

The transform beta_N compresses a sphere element through the level-N
coherent family: beta_N(x) = (1 (x) h_N) applied to the coproduct,
where h_N is the Haar state twisted into the highest weight vector of
the level-N representation.  It acts on the spin-n layer by the scalar

    c_{N,n} = [N]! [N+1]! / ([N-n]! [N+n+1]!)     (q^2-integers, n <= N)

and kills the layers above N, so the same map has a second, spectral
implementation that runs no coproduct.  Both are kept: the spectral
route is the fast path, the coproduct route its oracle, and their
agreement is one of the standing cross-checks.  The coproduct route sums
one slice S_N(m) = (1 (x) h_N) Delta(m) per monomial m of x, cached per
level.  A slice's left legs differ only in their power of A and come in
descending power, the order of pairing all of Delta(x) at once (bar
partial sums that cancel at q = 1): the float shift model sums an
element's terms in dict order, so the order reaches every seminorm.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gns import GnsContext
from .qhopf import Algebra, AlgebraElement, Monomial, _accumulate


class LayerInconsistency(RuntimeError):
    """A spin layer failed to scale uniformly under the transform.

    This cannot happen when the equivariance conventions are coherent,
    so it signals a convention bug rather than bad input."""


@dataclass
class BerezinSpectrum:
    level: int
    eigenvalues: dict          # spin n -> scalar c_{N,n}
    verified_to: int           # layer constancy checked for n <= this
    residual: float

    def eigenvalue(self, n: int):
        return self.eigenvalues[n]


@dataclass
class SliceCheck:
    lip_slice: float
    bound: float
    converged: bool
    slice_element: AlgebraElement
    lip_x: float
    vector_norms: tuple


class Berezin:
    """Transform, states and spectra for one algebra context.

    The levels and spins whose layers have been checked against the
    coproduct are remembered, so each layer is verified at most once.
    """

    def __init__(self, gns: GnsContext):
        self.gns = gns
        self.alg: Algebra = gns.alg
        self._hn_cache: dict = {}
        self._slices: dict = {}          # (N, m) -> (1 (x) h_N) Delta(m)
        self._spec_verified: dict = {}   # N -> (verified_to, residual)

    # -- states ------------------------------------------------------------

    def h_twisted(self, x: AlgebraElement, N: int):
        """h_N(x): Haar against the level-N highest weight vector."""
        if N < 0:
            raise ValueError("level must be non-negative")
        alg = self.alg
        if N == 0:
            return alg.haar(x)
        tot = alg.field.zero
        for m, c in x.terms.items():
            tot = tot + c * self._hn_mono(m, N)
        return tot

    def _hn_mono(self, m: Monomial, N: int):
        key = (N, m)
        hit = self._hn_cache.get(key)
        if hit is not None:
            return hit
        alg = self.alg
        mid = AlgebraElement(alg, {m: alg.field.one})
        left = alg.monomial(-N, 0, 0)
        right = alg.monomial(N, 0, 0)
        val = alg.q_bracket(N + 1) * alg.haar(left * mid * right)
        self._hn_cache[key] = val
        return val

    # -- the transform, twice ------------------------------------------------

    def via_coproduct(self, x: AlgebraElement, N: int) -> AlgebraElement:
        """(1 (x) h_N) Delta(x), the defining route: sum_m c_m S_N(m), the
        slices cached and ordered as the module docstring says; h_N
        vanishes off right legs A^l = (b b*)^l, so slices read only those."""
        x.require_sphere()
        out: dict = {}
        for m, c in x.terms.items():
            hit = self._slices.get((N, m))
            if hit is None:
                acc: dict = {}
                for (m1, m2), s in self.alg.coproduct_mono(m).items():
                    if m2.a_exp == 0 and m2.b_exp == m2.bs_exp:
                        _accumulate(acc, m1, s * self._hn_mono(m2, N))
                hit = self._slices[N, m] = dict(
                    sorted(acc.items(), key=lambda t: -t[0].b_exp))
            for m1, s in hit.items():
                _accumulate(out, m1, c * s)
        return AlgebraElement(self.alg, out)

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

        verified_to, residual = self._spec_verified.get(N, (0, 0.0))
        if verify and verified_to < max_spin:
            residual = max(residual,
                           self._verify_layers(N, verified_to + 1, max_spin,
                                               vals))
            self._spec_verified[N] = (max_spin, residual)
            verified_to = max_spin
        return BerezinSpectrum(N, vals, verified_to, residual)

    def _verify_layers(self, N: int, lo: int, hi: int, vals: dict) -> float:
        exact = self.alg.field.mode == "exact"
        basis = self.gns.fuzzy_basis(hi)
        worst = 0.0
        for v in basis.vectors:
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
                worst = max(worst, mag)
                if mag > 1e-10:
                    raise LayerInconsistency(
                        "spin-%d weight-%d vector off by %g"
                        % (v.spin, v.weight, mag))
        return worst

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
        nx = abs(self.gns.haar_inner(xi, xi).to_complex()) ** 0.5
        nz = abs(self.gns.haar_inner(zeta, zeta).to_complex()) ** 0.5
        bound = nx * nz * lip_x.value.lower_bound
        return SliceCheck(
            lip_slice=lip_y.value.lower_bound,
            bound=bound,
            converged=lip_x.value.converged and lip_y.value.converged,
            slice_element=y,
            lip_x=lip_x.value.lower_bound,
            vector_norms=(nx, nz),
        )
