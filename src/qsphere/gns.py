"""The L2 layer over the Haar state.

Everything here happens inside the GNS space of the Haar state: the
inner product h(x* y), the orthogonal fuzzy bases of the equator
sphere's degree filtration, projections onto them, matrix compressions
of the twisted derivations, and the modular conjugation.

Fuzzy bases are built by weight-graded Gram-Schmidt over the monomial
filtration.  In exact mode the construction is square-root-free: the
stored vectors are orthogonal but unnormalized, with their exact
squared norms kept beside them, so orthogonality certificates are
literal zeros and square roots only ever appear in the float layer.
The level-N basis is a prefix of the level-(N+1) basis, which makes
incremental caching trivial.
"""

from __future__ import annotations

from typing import NamedTuple

from .exprs import element_to_obj, obj_to_element, obj_to_scalar, scalar_to_obj
from .qhopf import Algebra, AlgebraElement, monomials
from .uq_actions import UqActions


def haar_inner(alg: Algebra, x: AlgebraElement, y: AlgebraElement):
    """h(x* y); linear in the second slot."""
    return alg.haar(x.star() * y)


def modular_conjugation(alg: Algebra, x: AlgebraElement) -> AlgebraElement:
    """J on symbols: x -> nu^(-1/2)(x*); antilinear, squares to the
    identity, and turns the Haar inner product into its conjugate."""
    return alg.modular_twist(x.star(), half_steps=-1)


class FuzzyVector(NamedTuple):
    element: AlgebraElement
    snorm: object
    spin: int
    weight: int


class FuzzyBasis:
    """Orthogonal basis of the degree filtration, tagged and ordered.

    vectors[i].element are pairwise h-orthogonal with exact squared
    norms vectors[i].snorm; the span of the spin <= N prefix equals the
    span of all degree <= N monomials in the sphere generators.
    """

    def __init__(self, level: int, vectors: list, gram_certificate: float):
        self.level = level
        self.vectors = vectors
        self.gram_certificate = gram_certificate

    def __len__(self):
        return len(self.vectors)

    def to_obj(self) -> dict:
        alg = self.vectors[0].element.alg if self.vectors else None
        return {
            "level": self.level,
            "gramCertificate": self.gram_certificate,
            "vectors": [
                {
                    "spin": v.spin,
                    "weight": v.weight,
                    "snorm": scalar_to_obj(v.snorm, alg.field),
                    "element": element_to_obj(v.element),
                }
                for v in self.vectors
            ],
        }

    @classmethod
    def from_obj(cls, alg: Algebra, obj: dict, verify: bool = True) -> "FuzzyBasis":
        level = int(obj["level"])
        vectors = []
        for row in obj["vectors"]:
            vectors.append(FuzzyVector(
                element=obj_to_element(alg, row["element"]),
                snorm=obj_to_scalar(alg.field, row["snorm"]),
                spin=int(row["spin"]),
                weight=int(row["weight"]),
            ))
        if len(vectors) != (level + 1) ** 2:
            raise ValueError("fuzzy basis has %d vectors, expected %d"
                             % (len(vectors), (level + 1) ** 2))
        basis = cls(level, vectors, float(obj.get("gramCertificate", 0.0)))
        if verify:
            cert = _gram_residual(alg, vectors)
            if cert > 1e-9:
                raise ValueError("imported fuzzy basis fails orthogonality "
                                 "(residual %g)" % cert)
            basis.gram_certificate = cert
        return basis


def _gram_residual(alg: Algebra, vectors: list) -> float:
    worst = 0.0
    by_weight: dict[int, list] = {}
    for v in vectors:
        by_weight.setdefault(v.weight, []).append(v)
    for grp in by_weight.values():
        for i, vi in enumerate(grp):
            for j, vj in enumerate(grp):
                val = haar_inner(alg, vi.element, vj.element)
                if i == j:
                    val = val - vi.snorm
                worst = max(worst, abs(val.to_complex()))
    return worst


class OperatorMatrix:
    """Compression of a linear map to a fuzzy basis.

    Entries are scalars against the stored (orthogonal, unnormalized)
    basis; snorms carry the metric, so the adjoint is
    (T+)_ij = conj(T_ji) s_j / s_i.
    """

    def __init__(self, entries: list, basis: FuzzyBasis):
        self.entries = entries
        self.basis = basis

    def dim(self) -> int:
        return len(self.entries)

    def adjoint(self) -> "OperatorMatrix":
        n = self.dim()
        s = [v.snorm for v in self.basis.vectors]
        out = [[(self.entries[j][i].conjugate() * s[j]) / s[i]
                for j in range(n)] for i in range(n)]
        return OperatorMatrix(out, self.basis)

    def scale(self, scal) -> "OperatorMatrix":
        return OperatorMatrix([[e * scal for e in row] for row in self.entries],
                              self.basis)

    def sub(self, other: "OperatorMatrix") -> "OperatorMatrix":
        n = self.dim()
        return OperatorMatrix(
            [[self.entries[i][j] - other.entries[i][j] for j in range(n)]
             for i in range(n)], self.basis)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)


class GnsContext:
    """Caches fuzzy bases and derivation compressions for one algebra."""

    def __init__(self, alg: Algebra, actions: UqActions | None = None):
        self.alg = alg
        self.actions = actions or UqActions(alg)
        # per-weight Gram-Schmidt state: weight -> list of (vector, snorm)
        self._columns: dict[int, list] = {}
        self._vectors: list[FuzzyVector] = []
        self._built_level = -1
        self._float_gram_worst = 0.0

    def haar_inner(self, x: AlgebraElement, y: AlgebraElement):
        return haar_inner(self.alg, x, y)

    # -- fuzzy basis -------------------------------------------------------

    def _layer_candidates(self, d: int):
        """Degree-d monomial candidates, weight-descending."""
        alg = self.alg
        out = []
        for i in range(d, -1, -1):
            out.append((2 * i, (alg.sphere_B ** i) * (alg.sphere_A ** (d - i))))
        for i in range(1, d + 1):
            out.append((-2 * i, (alg.sphere_B_star ** i) * (alg.sphere_A ** (d - i))))
        return out

    def _extend_to_level(self, N: int) -> None:
        alg = self.alg
        exact = alg.field.mode == "exact"
        for d in range(self._built_level + 1, N + 1):
            for weight, cand in self._layer_candidates(d):
                col = self._columns.setdefault(weight, [])
                vec = cand
                for w_el, snorm in col:
                    coeff = haar_inner(alg, w_el, vec) / snorm
                    if not coeff.is_zero():
                        vec = vec - w_el.scale(coeff)
                snorm = haar_inner(alg, vec, vec)
                if exact:
                    if vec.is_zero() or snorm.is_zero():
                        raise RuntimeError(
                            "fuzzy candidate degenerated at degree %d" % d)
                    # exact orthogonality against the column is automatic
                    # for Gram-Schmidt over an exact field
                else:
                    mag = abs(snorm.to_complex())
                    if mag < 1e-18:
                        raise RuntimeError(
                            "fuzzy Gram matrix numerically singular at "
                            "degree %d (norm %g)" % (d, mag))
                    for w_el, sn in col:
                        self._float_gram_worst = max(
                            self._float_gram_worst,
                            abs(haar_inner(alg, w_el, vec).to_complex()))
                col.append((vec, snorm))
                self._vectors.append(FuzzyVector(vec, snorm, d, weight))
            self._built_level = d

    def fuzzy_basis(self, N: int) -> FuzzyBasis:
        if N < 0:
            raise ValueError("level must be non-negative")
        self._extend_to_level(N)
        vectors = self._vectors[: (N + 1) ** 2]
        cert = 0.0 if self.alg.field.mode == "exact" else self._float_gram_worst
        return FuzzyBasis(N, list(vectors), cert)

    # -- projections -------------------------------------------------------

    def phi_projection(self, x: AlgebraElement, N: int) -> AlgebraElement:
        """Orthogonal projection onto the level-N fuzzy subspace."""
        basis = self.fuzzy_basis(N)
        out = self.alg.scalar_element(self.alg.field.zero)
        for v in basis.vectors:
            coeff = self.haar_inner(v.element, x) / v.snorm
            if not coeff.is_zero():
                out = out + v.element.scale(coeff)
        return out

    def spin_split(self, x: AlgebraElement, max_spin: int | None = None) -> dict:
        """Spin layer decomposition; layers beyond the element's degree
        vanish, so the default cap is the sphere filtration degree."""
        cap = x.sphere_degree() if max_spin is None else max_spin
        out = {}
        prev = self.alg.scalar_element(self.alg.field.zero)
        for n in range(cap + 1):
            cur = self.phi_projection(x, n)
            layer = cur - prev
            if not layer.is_zero():
                out[n] = layer
            prev = cur
        return out

    # -- derivation compressions --------------------------------------------

    def operator_matrix_of(self, label: str, M: int) -> OperatorMatrix:
        """Matrix of a twisted derivation on the level-M fuzzy subspace.

        The derivations preserve each spin layer, so the compression is
        exact: a nonzero remainder outside the span signals a bug and
        raises.
        """
        basis = self.fuzzy_basis(M)
        alg = self.alg
        n = len(basis.vectors)
        if alg.field.mode == "exact":
            leak_tol = 0.0
        else:
            # roundoff in the projection coefficients is amplified by the
            # small squared norms of high-spin vectors; genuine spillover
            # would sit many orders of magnitude above this
            leak_tol = float(alg.field.negligible) ** 0.5
        cols = []
        for v in basis.vectors:
            img = self.actions.twisted_derivation(label, v.element)
            col = []
            for w in basis.vectors:
                c = self.haar_inner(w.element, img) / w.snorm
                col.append(c)
                if not c.is_zero():
                    img = img - w.element.scale(c)
            leak = max((abs(c.to_complex()) for c in img.terms.values()),
                       default=0.0)
            if leak > leak_tol:
                raise RuntimeError("derivation %s left the level-%d span "
                                   "(leak %g)" % (label, M, leak))
            cols.append(col)
        entries = [[cols[j][i] for j in range(n)] for i in range(n)]
        return OperatorMatrix(entries, basis)

    def pn_commutation_check(self, label: str, N: int, M: int) -> float:
        """Max-entry residual of [P_N, D] on the level-M compression."""
        if M < N:
            raise ValueError("need M >= N")
        T = self.operator_matrix_of(label, M)
        n = T.dim()
        spins = [v.spin for v in T.basis.vectors]
        worst = 0.0
        for i in range(n):
            for j in range(n):
                pi = 1 if spins[i] <= N else 0
                pj = 1 if spins[j] <= N else 0
                resid = T.entries[i][j] * self.alg.field.from_rational(pi - pj)
                worst = max(worst, abs(resid.to_complex()))
        return worst

    # -- modular structure ---------------------------------------------------

    def modular_conjugation(self, x: AlgebraElement) -> AlgebraElement:
        return modular_conjugation(self.alg, x)

    def commutant_check(self, x: AlgebraElement, y: AlgebraElement,
                        M: int) -> float:
        """Residual of [J x* J, L_y] compressed to degree <= M monomials.

        Rows and columns touching the truncation boundary are excluded:
        only input vectors whose two-sided products stay inside the
        truncation participate.  The bound is degree(x) + degree(y).
        """
        alg = self.alg
        band = x.total_degree() + y.total_degree()
        interior = M - band
        if interior < 0:
            raise ValueError("truncation %d too small for bandwidth %d"
                             % (M, band))
        xs = x.star()

        def t_map(v: AlgebraElement) -> AlgebraElement:
            return modular_conjugation(alg, xs * modular_conjugation(alg, v))

        worst = 0.0
        for mono in monomials(interior):
            xi = AlgebraElement(alg, {mono: alg.field.one})
            r = t_map(y * xi) - y * t_map(xi)
            for c in r.terms.values():
                worst = max(worst, abs(c.to_complex()))
        return worst

