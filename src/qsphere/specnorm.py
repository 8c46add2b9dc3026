"""Numerical operator norms for the quantum group and the sphere.

For 0 < q < 1 every element is represented on the weighted-shift model
(a acts as a raising shift with weights sqrt(1 - q^(2n+2)), b as the
diagonal e^(i theta) q^n), where each monomial is one offset diagonal.
Truncated to M dimensions, each matrix is one CSR assembled once, and
its compression norm increases to the true norm.  At q = 1 the algebra
is commutative and elements are evaluated on an angle grid instead;
that path reports itself as grid-resolution-limited.

Lower bounds are top singular values of the truncated matrices, from
one kernel that the distance search shares: Lanczos with a residual
stop; a seminorm top too clustered for its step budget is certified at
the character norm by banded Cholesky, else taken from a dense SVD.
Upper bounds are the crude coefficient-sum estimate.  The Gram oracle at the
bottom reaches the same Lip seminorm through Haar inner products alone,
with no representation matrices, which is what makes it an independent
check: it whitens each Dirac symbol's multiplication operator against
the orthogonal monomial chains of gns (right degree +-1 for the domain,
shifted by the symbol's right degree for the codomain), whose inner
products are closed-form sums over the Haar weights, and takes the top
singular value of the whitened matrix from the same kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy import sparse

from .gns import _graded_ortho
from .qhopf import UNIT, Algebra, AlgebraElement, Monomial, _accumulate
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
    # always True: dominant_sigma is exact to roundoff or certified to
    # 2e-12; the benchmark's contraction workload still reads it
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


def _diagonals(terms, trunc: RepTruncation) -> dict:
    """{k: diagonal} of (monomial, complex) pairs, summed in their order
    from zeros.  a^k b^l b*^m maps e_n into C e_(n+k), so it is the one
    diagonal at offset k; a shift by M or more leaves the truncation."""
    q, M, theta = trunc.q, trunc.M, trunc.theta
    n = np.arange(M, dtype=float)
    w = np.sqrt(np.maximum(0.0, 1.0 - q ** (2 * n)))   # shift weights
    out = {}
    for m, c in terms:
        k, l, mm = m.a_exp, m.b_exp, m.bs_exp
        if abs(k) >= M:
            continue
        # b^l b*^m acts first, as q^(n(l+m)) e^(i theta (l-m)); then a^k
        # raises by weights w[n+1..n+k], or a*^|k| lowers by w[n-|k|+1..n]
        diag = (q ** (n * (l + mm))) * np.exp(1j * theta * (l - mm))
        amp = np.ones(M)
        for j in range(1, k + 1):
            amp[:M - j] *= w[j:]
        for j in range(-k):
            amp[j:] *= w[:M - j]
        vals = (diag * amp)[max(-k, 0):M - max(k, 0)]
        out[k] = out.get(k, 0.0) + vals * c
    return out


def _csr(grid: list, trunc: RepTruncation) -> sparse.csr_matrix:
    """One CSR of a square grid of M x M blocks, each given by its
    (monomial, complex) pairs.  Offset k of block column j puts row r's
    entry in column j*M + r - k, so sorting by j*M - k orders each row.
    Sums start at +0, so never hold -0, and exact zeros are left out:
    bit for bit the arrays of per-term sparse sums stacked by bmat."""
    M, rows = trunc.M, len(grid)
    diags = [sorted((j * M - k, k, d) for j, terms in enumerate(row)
                    for k, d in _diagonals(terms, trunc).items())
             for row in grid]
    V = np.zeros((rows, M, max(map(len, diags))), dtype=complex)
    shift = np.zeros((rows, 1, V.shape[2]), dtype=np.int64)
    for b, row in enumerate(diags):
        for i, (s, k, d) in enumerate(row):
            V[b, max(k, 0):M + min(k, 0), i] = d
            shift[b, 0, i] = s
    keep = V != 0   # block row, row, diagonal: CSR order
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=2).ravel())))
    return sparse.csr_matrix((V[keep], (np.arange(M)[:, None] + shift)[keep],
                              indptr), shape=(M * rows,) * 2)


def represent_generator(name: str, trunc: RepTruncation) -> sparse.csr_matrix:
    exps = {"a": (1, 0, 0), "as": (-1, 0, 0), "b": (0, 1, 0), "bs": (0, 0, 1)}
    if name not in exps:
        raise ValueError("unknown generator %r" % (name,))
    return _csr([[[(Monomial(*exps[name]), 1.0)]]], trunc)


def represent_element(x: AlgebraElement, trunc: RepTruncation) -> sparse.csr_matrix:
    """M x M compression of x, one CSR assembled once."""
    return _block_rep([[x]], trunc)


def relation_residuals(trunc: RepTruncation) -> dict:
    """Defining-relation residuals on interior basis vectors."""
    a, b = represent_generator("a", trunc), represent_generator("b", trunc)
    astar, bstar, q = a.getH(), b.getH(), trunc.q
    eye = sparse.identity(trunc.M, format="csr", dtype=complex)
    rels = {
        "ba=qab": b @ a - q * (a @ b),
        "b*a=qab*": bstar @ a - q * (a @ bstar),
        "bb*=b*b": b @ bstar - bstar @ b,
        "a*a+q2bb*=1": astar @ a + q * q * (b @ bstar) - eye,
        "aa*+bb*=1": a @ astar + b @ bstar - eye,
    }
    k = trunc.M - 2   # the last two rows feel the cut
    return {name: float(np.abs(mat.toarray())[:k, :k].max()) if k else 0.0
            for name, mat in rels.items()}


# -- dominant singular value -------------------------------------------------

_LANCZOS_STEPS = 64        # step budget; past it a certificate or dense SVD
_LANCZOS_TOL = 1e-12       # Ritz residual / Ritz value at the stop; delta


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


def _site_gram_blocks(T, TH, M: int) -> tuple:
    """T^H T for T an r x r grid of M x M blocks, its unknowns ordered
    site by site (site s of block column j is unknown s r + j) and cut
    into b x b blocks, b its bandwidth: then it is block tridiagonal, with
    diagonal blocks D and the blocks U right of them, zero-padded."""
    G = (TH @ T).tocoo()
    n, r = G.shape[0], G.shape[0] // M
    i, j = G.row % M * r + G.row // M, G.col % M * r + G.col // M
    b = max(1, int(np.abs(i - j).max(initial=0)))
    D = np.zeros((-(-n // b), b, b), dtype=complex)
    U = np.zeros_like(D)
    for out, keep in ((D, i // b == j // b), (U, j // b == i // b + 1)):
        out[i[keep] // b, i[keep] % b, j[keep] % b] = G.data[keep]
    return D, U


def _norm_below(D: np.ndarray, U: np.ndarray, t: float) -> bool:
    """True when t^2 I - G is positive definite, G of _site_gram_blocks:
    its block Cholesky factorization L_k L_k^H = t^2 I - D_k - W^H W,
    W = L_(k-1)^-1 U_(k-1), runs through (padding meets t^2 I alone).
    The backward error of banded Cholesky, and of forming T^H T, grows
    with the bandwidth b, not with n (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 10): about (b + 1)^2 u t^2, u = 1.1e-16, so
    2e-13 t^2 even at b = 40, below the gap 2 delta c^2 = 2e-12 c^2 that
    top_singular_triplet leaves between t^2 and c^2 at either end."""
    W = np.zeros_like(D[0])
    for A, Uk in zip(t * t * np.eye(D.shape[1]) - D, U):
        try:
            L = np.linalg.cholesky(A - W.conj().T @ W)
        except np.linalg.LinAlgError:
            return False
        W = np.linalg.solve(L, Uk)
    return True


def top_singular_triplet(T, TH, vectors: bool = False,
                         candidate: float = 0.0, M: int = 0) -> tuple:
    """(sigma, u, v) with T v = sigma u, the top singular triplet of a
    sparse T given TH = T^H.

    Lanczos on T^H T with two-pass full reorthogonalization, from one
    fixed seeded start vector, stops once the Ritz residual is at most
    _LANCZOS_TOL times the Ritz value; its long sums run in numpy's own
    loops and scipy's sparse products, so they do not follow the BLAS
    thread count.  A top too clustered to pass within
    min(_LANCZOS_STEPS, n) steps of an r x r grid T of M x M blocks, with
    no vectors asked, is certified at a candidate c the Ritz value does
    not exceed: c (1 - delta) <= ||T|| < c (1 + delta), delta =
    _LANCZOS_TOL, so sigma = c (1 - delta).  Anything else goes to
    LAPACK's dense SVD of T, which returns u and v only if vectors is set.
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
    hi, lo = candidate * (1 + _LANCZOS_TOL), candidate * (1 - _LANCZOS_TOL)
    if candidate and not vectors and ritz[-1] <= hi * hi:
        D, U = _site_gram_blocks(T, TH, M)
        if _norm_below(D, U, hi) and not _norm_below(D, U, lo):
            return lo, None, None
    return _dense_top_triplet(T, vectors)


def dominant_sigma(mat, candidate: float = 0.0, M: int = 0) -> tuple:
    """Largest singular value: (sigma, converged) from top_singular_triplet,
    accurate to roundoff, or certified within 2e-12 below a clustered top
    at the candidate; so converged is always True."""
    return top_singular_triplet(mat, mat.conj().T, candidate=candidate,
                                M=M)[0], True


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


def _ladder_estimate(build, x: AlgebraElement, M: int, upper: float,
                     ladder: bool, candidate: float = 0.0) -> NormEstimate:
    """Compression norm of the matrices build(trunc) representing x.

    One angle, theta = 0, suffices: x is a sphere element, where the
    a-phase gauge absorbs theta, or carries one b-charge, where theta is
    a global phase.  lower_bound is the dominant singular value at the
    final truncation; ladder=True doubles the truncation until
    successive values agree, ladder=False reports the first one as
    converged.  candidate goes to dominant_sigma at every truncation.
    """
    q = x.alg.field.float_q()
    M = max(M, x.total_degree() + 2)

    def level(Mcur: int) -> float:
        return dominant_sigma(build(RepTruncation(q, Mcur)), candidate,
                              Mcur)[0]

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
    """Square grid of elements, such as a 2x2 operator-valued matrix,
    to one CSR."""
    return _csr([[((m, complex(c.to_complex())) for m, c in e.terms.items())
                  for e in row] for row in entries], trunc)


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
                           x, M, upper, ladder, _character_norm(entries))
    return LipResult(est, components)


def _character_norm(entries: list) -> float:
    """||C||, C the 2x2 matrix of the entries' unit coefficients: the
    characters send a sphere element to its unit coefficient, so this is
    the derivation matrix's essential norm.  sigma^2 = (|C|_F^2 +
    sqrt(|C|_F^4 - 4 |det C|^2)) / 2, via C C^H = [[p, z], [z*, r]]."""
    (a, b), (c, d) = [[complex(e.terms[UNIT].to_complex()) if UNIT in e.terms
                       else 0j for e in row] for row in entries]
    p, r = abs(a) ** 2 + abs(b) ** 2, abs(c) ** 2 + abs(d) ** 2
    z = a * c.conjugate() + b * d.conjugate()
    return math.sqrt((p + r) / 2 + math.hypot((p - r) / 2, abs(z)))


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
    flat = [e for row in actions.delta_matrix(x) for e in row]
    pts = _classical_points(flat, sphere_only=True)
    return np.stack(pts, axis=1).reshape(-1, 2, 2)


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

    data, row_idx, col_idx = [], [], []
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
            data.append(complex(
                val.to_mpc(ctx) / (root_of(cod, kt, alpha) * rj)))
            row_idx.append(rows[(kt, alpha)])
            col_idx.append(j)
    if not np.isfinite(data).all():
        raise RuntimeError("whitened operator matrix overflowed")
    if not (rows and sel):
        return 0.0
    Y = sparse.csr_matrix((data, (row_idx, col_idx)),
                          shape=(len(rows), len(sel)), dtype=complex)
    return top_singular_triplet(Y, Y.conj().T)[0]


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
