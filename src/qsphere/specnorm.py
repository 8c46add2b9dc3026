"""Numerical operator norms for the quantum group and the sphere.

For 0 < q < 1 every element is represented on the weighted-shift model
(a acts as a raising shift with weights sqrt(1 - q^(2n+2)), b as the
diagonal e^(i theta) q^n); truncating to M dimensions gives compression
norms that increase monotonically to the true norm.  At q = 1 the
algebra is commutative and elements are evaluated on an angle grid
instead; that path reports itself as grid-resolution-limited.

Lower bounds are top singular values of the truncated matrices, from
one kernel that the distance search shares: Lanczos with a residual
stop, or a dense SVD on tops too clustered for its step budget.  Upper
bounds are the crude coefficient-sum estimate.  The Gram oracle at the
bottom reaches the same Lip seminorm through Haar inner products alone,
with no representation matrices, which is what makes it an independent
check: it whitens each Dirac symbol's multiplication operator against
the orthogonal monomial chains of gns (right degree +-1 for the domain,
shifted by the symbol's right degree for the codomain), whose inner
products are closed-form sums over the Haar weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import sparse

from .gns import _graded_ortho
from .qhopf import Algebra, AlgebraElement, Monomial, _accumulate
from .uq_actions import UqActions

# truncation ladder: double M until successive values agree to _REL_TOL
_REL_TOL = 1e-8
_MAX_DOUBLINGS = 4


@dataclass
class RepTruncation:
    """One truncated irreducible representation: dimension and gauge."""

    q: float
    M: int
    theta: float = 0.0

    def __post_init__(self):
        if not (0 < self.q < 1):
            raise ValueError("shift model needs 0 < q < 1, got %r" % (self.q,))
        if self.M < 2:
            raise ValueError("truncation dimension must be at least 2")


@dataclass
class NormEstimate:
    lower_bound: float
    upper_bound: float
    converged: bool
    M_used: int
    ladder: tuple = ()
    # always True since dominant_sigma is exact to roundoff; the
    # benchmark's contraction workload still reads it
    iteration_converged: bool = True
    notes: tuple = ()

    def __post_init__(self):
        if self.lower_bound > self.upper_bound + 1e-9 * max(1.0, self.upper_bound):
            raise AssertionError("lower bound %g exceeds upper bound %g"
                                 % (self.lower_bound, self.upper_bound))


@dataclass
class LipResult:
    value: NormEstimate
    components: dict


def coefficient_sum_bound(x: AlgebraElement) -> float:
    """Crude norm upper bound: every generator image is a contraction."""
    return float(sum(abs(c.to_complex()) for c in x.terms.values()))


# -- weighted-shift model (0 < q < 1) ---------------------------------------


def _shift_weights(q: float, M: int) -> np.ndarray:
    n = np.arange(M, dtype=float)
    return np.sqrt(np.maximum(0.0, 1.0 - q ** (2 * n)))


def represent_monomial(m: Monomial, trunc: RepTruncation) -> sparse.csr_matrix:
    """Single offset-diagonal matrix of a normal-ordered monomial."""
    q, M, theta = trunc.q, trunc.M, trunc.theta
    k, l, mm = m.a_exp, m.b_exp, m.bs_exp
    n = np.arange(M, dtype=float)
    # b^l b*^m acts first: diagonal q^(n(l+m)) e^(i theta (l-m))
    diag = (q ** (n * (l + mm))) * np.exp(1j * theta * (l - mm))
    w = _shift_weights(q, M)   # w[n] = sqrt(1 - q^(2n))
    if k >= 0:
        # a^k raises by k: factor prod_{j=1..k} w[n+j]
        amp = np.ones(M)
        for j in range(1, k + 1):
            idx = n.astype(int) + j
            amp = amp * np.where(idx < M, w[np.minimum(idx, M - 1)], 0.0)
        vals = diag * amp
        rows = np.arange(k, M)
        cols = np.arange(0, M - k)
        data = vals[: M - k] if k else vals
    else:
        kk = -k
        amp = np.ones(M)
        for j in range(kk):
            idx = n.astype(int) - j
            amp = amp * np.where(idx >= 1, w[np.maximum(idx, 0)], 0.0)
        vals = diag * amp
        rows = np.arange(0, M - kk)
        cols = np.arange(kk, M)
        data = vals[kk:]
    return sparse.csr_matrix((data, (rows, cols)), shape=(M, M))


def represent_generator(name: str, trunc: RepTruncation) -> sparse.csr_matrix:
    table = {
        "a": Monomial(1, 0, 0), "as": Monomial(-1, 0, 0),
        "b": Monomial(0, 1, 0), "bs": Monomial(0, 0, 1),
    }
    if name not in table:
        raise ValueError("unknown generator %r" % (name,))
    return represent_monomial(table[name], trunc)


def represent_element(x: AlgebraElement, trunc: RepTruncation) -> sparse.csr_matrix:
    out = sparse.csr_matrix((trunc.M, trunc.M), dtype=complex)
    for m, c in x.terms.items():
        out = out + represent_monomial(m, trunc) * complex(c.to_complex())
    return out


def relation_residuals(trunc: RepTruncation) -> dict:
    """Defining-relation residuals on interior basis vectors."""
    a = represent_generator("a", trunc)
    b = represent_generator("b", trunc)
    astar = a.getH()
    bstar = b.getH()
    M = trunc.M
    eye = sparse.identity(M, format="csr", dtype=complex)
    q = trunc.q
    rels = {
        "ba=qab": b @ a - q * (a @ b),
        "b*a=qab*": bstar @ a - q * (a @ bstar),
        "bb*=b*b": b @ bstar - bstar @ b,
        "a*a+q2bb*=1": astar @ a + q * q * (b @ bstar) - eye,
        "aa*+bb*=1": a @ astar + b @ bstar - eye,
    }
    out = {}
    interior = M - 2
    for name, mat in rels.items():
        dense = np.abs(mat.toarray())
        out[name] = float(dense[:interior, :interior].max()) if interior > 0 else 0.0
    return out


# -- dominant singular value -------------------------------------------------

_LANCZOS_STEPS = 64        # step budget; past it the dense SVD answers
_LANCZOS_TOL = 1e-12       # Ritz residual over Ritz value at the stop


@functools.lru_cache(maxsize=16)
def _start_vector(n: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    start.flags.writeable = False
    return start


def _dense_top_triplet(T, vectors: bool) -> tuple:
    if vectors:
        U, S, Vh = np.linalg.svd(T.toarray())
        return float(S[0]), U[:, 0], Vh[0].conj()
    return float(np.linalg.svd(T.toarray(), compute_uv=False)[0]), None, None


def top_singular_triplet(T, TH, vectors: bool = False) -> tuple:
    """(sigma, u, v) with T v = sigma u, the top singular triplet of a
    sparse T given TH = T^H.

    Lanczos on T^H T with two-pass full reorthogonalization, from one
    fixed seeded start vector, stops once the Ritz residual is at most
    _LANCZOS_TOL times the Ritz value; its long sums run in numpy's own
    loops and scipy's sparse products, so they do not follow the BLAS
    thread count.  A top too clustered to pass within
    min(_LANCZOS_STEPS, n) steps goes to LAPACK's dense SVD of T, which
    returns u and v only if vectors is set.
    """
    n = T.shape[1]
    steps = min(_LANCZOS_STEPS, n)
    V = np.empty((steps, n), dtype=complex)
    H = np.zeros((steps, steps))
    V[0] = _start_vector(n)
    for k in range(steps):
        w = TH @ (T @ V[k])
        Vk = V[:k + 1]
        for _pass in range(2):      # classical Gram-Schmidt, twice
            h = np.einsum("ij,j->i", Vk, w.conj()).conj()
            w -= np.einsum("i,ij->j", h, Vk)
            H[k, k] += h[k].real
        b = float(np.linalg.norm(w))
        ritz, Y = np.linalg.eigh(H[:k + 1, :k + 1])
        y = Y[:, -1]
        if b * abs(y[-1]) <= _LANCZOS_TOL * ritz[-1]:
            v = np.einsum("i,ij->j", y, Vk)
            v /= np.linalg.norm(v)
            u = T @ v
            sigma = float(np.linalg.norm(u))
            if sigma > 0.0:
                u /= sigma
            return sigma, u, v
        if k + 1 < steps:
            H[k + 1, k] = b
            V[k + 1] = w / b
    return _dense_top_triplet(T, vectors)


def dominant_sigma(mat: sparse.csr_matrix) -> tuple:
    """Largest singular value: (sigma, converged) from top_singular_triplet,
    accurate to roundoff on every spectrum, so converged is always True."""
    return top_singular_triplet(mat, mat.conj().T)[0], True


# -- theta reduction ----------------------------------------------------------


def _single_theta_suffices(x: AlgebraElement) -> bool:
    """True when the gauge torus makes the compression norm
    theta-independent: either the b-charge l-m is constant across terms
    (theta becomes a global phase) or the element lives in the sphere
    subalgebra, where the a-phase gauge absorbs theta."""
    charges = {m.b_exp - m.bs_exp for m in x.terms}
    if len(charges) <= 1:
        return True
    return all(m.right_degree() == 0 for m in x.terms)


# -- q = 1 commutative grid model ---------------------------------------------


_ETA_POINTS = 65          # includes the midpoint pi/4
_PHASE_POINTS = 64


def _grid_eval(x: AlgebraElement, eta: np.ndarray, alpha: np.ndarray,
               beta: np.ndarray) -> np.ndarray:
    """Evaluate at a = cos(eta) e^(i alpha), b = sin(eta) e^(i beta).

    The arrays broadcast; the result has their common shape.
    """
    out = np.zeros(np.broadcast(eta, alpha, beta).shape, dtype=complex)
    c, s = np.cos(eta), np.sin(eta)
    for m, coeff in x.terms.items():
        k, l, mm = m.a_exp, m.b_exp, m.bs_exp
        val = (c ** abs(k)) * (s ** (l + mm)) * np.exp(
            1j * (k * alpha + (l - mm) * beta))
        out = out + complex(coeff.to_complex()) * val
    return out


def _classical_points(x_list: list, sphere_only: bool):
    """Grid evaluations of several elements on a shared grid, flattened."""
    eta = np.linspace(0.0, math.pi / 2, _ETA_POINTS)
    if sphere_only:
        # right-degree-0 elements depend on the phases only through
        # alpha - beta, so a 2-torus slice carries the full range
        chi = np.linspace(0.0, 2 * math.pi, 2 * _PHASE_POINTS, endpoint=False)
        E, C = np.meshgrid(eta, chi, indexing="ij")
        Z = np.zeros_like(E)
        return [_grid_eval(x, E, C, Z).ravel() for x in x_list]
    alpha = np.linspace(0.0, 2 * math.pi, _PHASE_POINTS, endpoint=False)
    beta = np.linspace(0.0, 2 * math.pi, _PHASE_POINTS, endpoint=False)
    E, Al, Be = np.meshgrid(eta, alpha, beta, indexing="ij")
    return [_grid_eval(x, E, Al, Be).ravel() for x in x_list]


def _classical_norm(x: AlgebraElement) -> float:
    sphere = all(m.right_degree() == 0 for m in x.terms)
    vals = _classical_points([x], sphere)[0]
    return float(np.abs(vals).max()) if vals.size else 0.0


# -- public norm API -----------------------------------------------------------


def _ladder_estimate(build, x: AlgebraElement, M: int,
                     upper: float, ladder: bool) -> NormEstimate:
    """Compression norm of the matrices build(trunc) representing x.

    One angle, theta = 0, suffices: x is a sphere element, where the
    a-phase gauge absorbs theta, or carries one b-charge, where theta is
    a global phase.  lower_bound is the dominant singular value at the
    final truncation; ladder=True doubles the truncation until
    successive values agree, ladder=False reports the first one as
    converged.
    """
    q = x.alg.field.float_q()
    M = max(M, x.total_degree() + 2)

    def level(Mcur: int) -> float:
        return dominant_sigma(build(RepTruncation(q, Mcur)))[0]

    best = level(M)
    steps = [(M, best)]
    conv = not ladder
    if ladder:
        for _ in range(_MAX_DOUBLINGS):
            M *= 2
            best2 = level(M)
            steps.append((M, best2))
            done = abs(best2 - best) <= _REL_TOL * max(1.0, best2)
            best = best2
            if done:
                conv = True
                break
    lower = min(best, upper)     # guard against roundoff overshoot
    return NormEstimate(lower, upper, conv, M, ladder=tuple(steps))


def operator_norm(x: AlgebraElement, M: int,
                  ladder: bool = True) -> NormEstimate:
    """Compression norm of one element, with convergence bookkeeping.

    For 0 < q < 1 the shift model is read at the one angle theta = 0,
    so x must be a sphere element or carry one b-charge; other elements
    raise ValueError.
    """
    upper = coefficient_sum_bound(x)
    if not x.terms:
        return NormEstimate(0.0, 0.0, True, 0)
    if x.alg.field.float_q() == 1.0:
        val = _classical_norm(x)
        return NormEstimate(val, upper, True, _ETA_POINTS,
                            notes=("classical-grid",))
    if not _single_theta_suffices(x):
        raise ValueError("operator_norm needs a sphere element or one "
                         "b-charge: the shift model is read at theta = 0")
    return _ladder_estimate(lambda trunc: represent_element(x, trunc),
                            x, M, upper, ladder)


def _block_rep(entries: list, trunc: RepTruncation) -> sparse.csr_matrix:
    """2x2 operator-valued matrix to a 2M x 2M sparse matrix."""
    blocks = [[represent_element(e, trunc) for e in row] for row in entries]
    return sparse.bmat(blocks, format="csr")


def lip_norm(actions: UqActions, x: AlgebraElement, M: int,
             ladder: bool = True) -> LipResult:
    """Lip seminorm: dominant singular value of the derivation matrix.

    The 2x2 matrix [[-d3(x), d2(x)], [d1(x), d3(x)]] is assembled in the
    truncated representation; its compression norm increases to L(x).
    """
    entries = actions.delta_matrix(x)
    components = {
        "delta1": entries[1][0], "delta2": entries[0][1],
        "delta3": entries[1][1],
    }
    upper = _crude_lip_bound(entries)
    if all(e.is_zero() for row in entries for e in row):
        return LipResult(NormEstimate(0.0, 0.0, True, 0), components)
    if x.alg.field.float_q() == 1.0:
        sigs = np.linalg.svd(delta_block_grid(actions, x), compute_uv=False)
        val = float(sigs[:, 0].max())
        est = NormEstimate(val, max(val, upper), True, _ETA_POINTS,
                           notes=("classical-grid",))
        return LipResult(est, components)

    # delta_matrix admits only the sphere subalgebra and left actions keep
    # the right degree, so every entry is a sphere element and one theta
    # suffices
    est = _ladder_estimate(lambda trunc: _block_rep(entries, trunc),
                           x, M, upper, ladder)
    return LipResult(est, components)


def _crude_lip_bound(entries: list) -> float:
    """2 x the largest coefficient sum over the derivation-matrix entries:
    each entry's image is at most its coefficient sum in norm, and a 2x2
    operator matrix is at most twice its largest entry."""
    return 2.0 * max(coefficient_sum_bound(e) for row in entries for e in row)


def lip_upper_bound(actions: UqActions, x: AlgebraElement) -> float:
    """Certified crude upper bound of the Lip seminorm."""
    return _crude_lip_bound(actions.delta_matrix(x))


def delta_block_matrix(actions: UqActions, x: AlgebraElement,
                       trunc: RepTruncation) -> sparse.csr_matrix:
    """Truncated representation of the derivation matrix (q < 1)."""
    return _block_rep(actions.delta_matrix(x), trunc)


def delta_block_grid(actions: UqActions, x: AlgebraElement) -> np.ndarray:
    """Pointwise 2x2 derivation matrices on the classical grid (q = 1),
    stacked as an array of shape (points, 2, 2)."""
    entries = actions.delta_matrix(x)
    flat = [entries[0][0], entries[0][1], entries[1][0], entries[1][1]]
    pts = _classical_points(flat, sphere_only=True)
    stack = np.stack([p.reshape(-1) for p in pts], axis=1)
    return stack.reshape(-1, 2, 2)


# -- Gram dual oracle ----------------------------------------------------------


_LIFTED_ALGEBRAS: dict = {}


def _lifted_context(x: AlgebraElement, extra_degree: int):
    """Return (algebra, element) precise enough for the oracle.

    Exact fields pass through.  Float fields are lifted to a working
    precision that dominates the chain conditioning, which grows like
    q^(-2 d^2) in the maximum chain degree d.
    """
    alg = x.alg
    if alg.field.mode == "exact":
        return alg, x
    from .qhopf import make_algebra_float
    from .scalars import FloatScalar

    q = alg.field.float_q()
    D = x.total_degree() + extra_degree
    dps = max(120, int(2 * D * D * abs(math.log10(q))) + 80)
    key = (repr(q), dps)
    hi = _LIFTED_ALGEBRAS.get(key)
    if hi is None:
        hi = make_algebra_float(q, precision=dps)
        _LIFTED_ALGEBRAS[key] = hi
    terms = {m: FloatScalar(hi.field, hi.field.ctx.mpc(c.val))
             for m, c in x.terms.items()}
    return hi, AlgebraElement(hi, terms)


def _mult_op_sigma(alg: Algebra, y: AlgebraElement, rdeg: int,
                   basis_size: int, ctx) -> float:
    """Largest singular value of mult-by-y from the graded basis span.

    Assembled entirely in orthonormal coordinates.  The domain vectors
    are the orthogonalized chains of right degree rdeg; the symbol
    shifts that grading uniformly, so the codomain family lives at
    rdeg + shift and is extended far enough to contain every image
    exactly.  The singular values are then true compression values of
    the multiplication operator into all of L².
    """
    shifts = {m.right_degree() for m in y.terms}
    if len(shifts) != 1:
        raise ValueError("symbol mixes right degrees %s" % sorted(shifts))
    ortho = _graded_ortho(alg, rdeg)
    cod = _graded_ortho(alg, rdeg + shifts.pop())
    sel = ortho.basis_selection(basis_size)
    D_basis = max(ortho.chains[k]["monos"][pos].total_degree()
                  for k, pos in sel)
    D_ext = D_basis + y.total_degree()
    cod.ensure_degree(D_ext)

    rows: dict = {}
    for k, ch in sorted(cod.chains.items()):
        for alpha in range(len(ch["monos"])):
            rows[(k, alpha)] = len(rows)

    sqrt_s: dict = {}

    def root_of(ortho_obj, k: int, alpha: int):
        key = (id(ortho_obj), k, alpha)
        if key not in sqrt_s:
            s = ortho_obj.chains[k]["vecs"][alpha][1]
            sqrt_s[key] = ctx.sqrt(s.to_mpc(ctx).real)
        return sqrt_s[key]

    Y = np.zeros((len(rows), len(sel)), dtype=complex)
    for j, (kj, pos_j) in enumerate(sel):
        image = y * ortho.chains[kj]["vecs"][pos_j][0]
        col: dict = {}
        for t_mono, c in image.terms.items():
            kt = t_mono.a_exp
            ch = cod.chains.get(kt)
            pos_t = None if ch is None else ch["index"].get(t_mono)
            if pos_t is None:
                raise RuntimeError("image escaped the graded extension")
            for alpha in range(pos_t + 1):
                p = cod.proj_coeff(kt, alpha, pos_t)
                if not p.is_zero():
                    _accumulate(col, (kt, alpha), c * p)
        # the projections are huge and cancel; summing them exactly and
        # rounding once keeps the whitened entries accurate
        rj = root_of(ortho, kj, pos_j)
        for (kt, alpha), val in col.items():
            Y[rows[(kt, alpha)], j] = complex(
                val.to_mpc(ctx) / (root_of(cod, kt, alpha) * rj))
    if not np.isfinite(Y).all():
        raise RuntimeError("whitened operator matrix overflowed")
    return float(np.linalg.svd(Y, compute_uv=False)[0]) if Y.size else 0.0


def lip_norm_gram_oracle(actions: UqActions, x: AlgebraElement,
                         basis_size: int = 200) -> NormEstimate:
    """L(x) from below through Haar inner products alone.

    The two off-diagonal Dirac symbols act by multiplication on the
    right-degree +1 / -1 graded subspaces; the seminorm is the larger
    of the two restricted-multiplication compression norms.  No
    representation matrices are involved, so agreement with lip_norm is
    a genuine cross-check of the whole derivation stack.  A value above
    the coefficient-sum upper bound can only come from lost precision,
    so it raises RuntimeError instead of being clipped.
    """
    p1, p2 = actions.dirac_components(x)
    upper = max(coefficient_sum_bound(p1), coefficient_sum_bound(p2))
    if p1.is_zero() and p2.is_zero():
        return NormEstimate(0.0, 0.0, True, basis_size,
                            notes=("gram-oracle",))
    ctx = mpmath.mp.clone()
    ctx.dps = 80
    # chains for `basis_size` graded monomials reach roughly this degree;
    # the float-mode precision lift must dominate their conditioning
    reach = int(math.isqrt(2 * basis_size)) + 2
    vals = []
    for y, rdeg in ((p1, 1), (p2, -1)):
        if y.is_zero():
            vals.append(0.0)
            continue
        alg_hi, y_hi = _lifted_context(y, extra_degree=reach)
        sigma = _mult_op_sigma(alg_hi, y_hi, rdeg, basis_size, ctx)
        vals.append(sigma)
    lower = max(vals)
    if lower > upper * (1 + 1e-9):
        raise RuntimeError("Gram oracle value %r exceeds the upper bound %r"
                           % (lower, upper))
    return NormEstimate(lower, upper, True, basis_size,
                        notes=("gram-oracle",))
