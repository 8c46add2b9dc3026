"""Berezin-type averaging on the quantum sphere.

The transform beta_N compresses a sphere element through the level-N
coherent family: beta_N(x) = (1 (x) h_N) applied to the coproduct,
where h_N is the Haar state twisted into the highest weight vector of
the level-N representation.  It acts diagonally on spin layers, so the
same map has a second, spectral implementation.  Both are kept: the
coproduct route is the ground truth, the spectral route the fast path,
and their agreement is one of the standing cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gns import GnsContext
from .qhopf import Algebra, AlgebraElement, Monomial


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


def _require_sphere(x: AlgebraElement) -> None:
    for m in x.terms:
        if m.right_degree() != 0:
            raise ValueError("element leaves the sphere subalgebra "
                             "(right degree %d at %r)" % (m.right_degree(), m))


class Berezin:
    """Transform, states and spectra for one algebra context.

    Spectrum values are cached per level; the fill is idempotent so
    concurrent readers racing a writer at worst recompute the same
    rationals.
    """

    def __init__(self, gns: GnsContext):
        self.gns = gns
        self.alg: Algebra = gns.alg
        self._hn_cache: dict = {}
        self._spec_values: dict = {}     # N -> {n: scalar}
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
        """(1 (x) h_N) of the coproduct; the defining route."""
        _require_sphere(x)
        delta = self.alg.coproduct(x)
        return delta.pair_right(lambda m: self._hn_mono(m, N))

    def spectrum(self, N: int, max_spin: int,
                 verify: bool = True) -> BerezinSpectrum:
        """Eigenvalues c_{N,n} of the transform on spin layers.

        Each value is read off the highest weight vector of its layer;
        with verify=True the remaining 2n weight vectors of the layer
        are checked to scale by the same constant, which would fail
        loudly if any convention in the stack were off.
        """
        if N < 0:
            raise ValueError("level must be non-negative")
        if max_spin < N:
            raise ValueError("need maxSpin >= N")
        F = self.alg.field
        vals = self._spec_values.setdefault(N, {0: F.one})
        for n in range(1, max_spin + 1):
            if n in vals:
                continue
            if n > N:
                vals[n] = F.zero
                continue
            top = self.alg.sphere_B ** n
            img = self.via_coproduct(top, N)
            mono = Monomial(n, 0, n)
            c = img.coefficient(mono) / top.coefficient(mono)
            if not (img - top.scale(c)).is_zero():
                raise LayerInconsistency(
                    "top weight vector of spin %d is not an eigenvector" % n)
            vals[n] = c

        verified_to, residual = self._spec_verified.get(N, (0, 0.0))
        if verify and verified_to < max_spin:
            residual = max(residual,
                           self._verify_layers(N, verified_to + 1, max_spin,
                                               vals))
            self._spec_verified[N] = (max_spin, residual)
            verified_to = max_spin
        eig = {n: vals[n] for n in range(max_spin + 1)}
        return BerezinSpectrum(N, eig, verified_to, residual)

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
        _require_sphere(x)
        deg = x.sphere_degree()
        spec = self.spectrum(N, max(N, deg), verify=False)
        layers = self.gns.spin_split(x, deg)
        out = self.alg.scalar_element(self.alg.field.zero)
        for n, layer in layers.items():
            c = spec.eigenvalues[n] if n <= N else None
            if c is not None and not c.is_zero():
                out = out + layer.scale(c)
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

        _require_sphere(x)
        alg = self.alg
        xis = xi.star()

        def functional(m: Monomial):
            mid = AlgebraElement(alg, {m: alg.field.one})
            return alg.haar(xis * mid * zeta)

        y = alg.coproduct(x).pair_left(functional)
        _require_sphere(y)

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
