"""Numerical operator norms for the quantum group and the sphere.

For 0 < q < 1 every element is represented on the weighted-shift model
(a acts as a raising shift with weights sqrt(1 - q^(2n+2)), b as the
diagonal e^(i theta) q^n), where each monomial is one offset diagonal.
Truncated to M dimensions, each matrix is one PaddedRows assembled
once with its adjoint, and its compression norm increases to the true
norm.  At q = 1 the algebra is commutative and elements are evaluated
on an angle grid instead; that path reports itself as
grid-resolution-limited.

Lower bounds are top singular values of the truncated matrices, from
one kernel that the distance search shares: Lanczos with a residual
stop; a seminorm top seen by step 16 to stall below the character norm
is certified there by banded Cholesky, and any other top the step
budget leaves unresolved is bracketed to 1e-12 by the same factorization.
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

import numpy as np

from .gns import _graded_ortho
from .qhopf import UNIT, Algebra, AlgebraElement
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


class PaddedRows:
    """A sparse matrix as its rows padded to the widest row: row i holds
    data[i, s] at column cols[i, s], its nonzero entries in ascending
    column order (CSR order) and zeros anywhere between them.  T @ x sums
    each row from +0 in slot order, which are scipy's CSR sums bit for
    bit: a zero product moves no nonzero sum, and a zero sum stays +0.
    Products go through einsum, whose complex multiply fuses nothing
    (numpy's own may use FMA, scipy's does not)."""

    def __init__(self, data: np.ndarray, cols: np.ndarray, ncols: int,
                 adjoint: PaddedRows | None = None):
        self.data, self.cols = data, cols
        self.shape = (data.shape[0], ncols)
        # one way only: a cycle would hold both until the collector ran
        self._adjoint = adjoint

    @classmethod
    def from_entries(cls, rows, cols, vals, shape: tuple) -> PaddedRows:
        """The matrix of the entries vals[e] at (rows[e], cols[e])."""
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        slots = row_slots(rows)
        width = int(slots.max(initial=-1)) + 1
        data = np.zeros((shape[0], width), dtype=complex)
        idx = np.zeros((shape[0], width), dtype=np.intp)
        data[rows, slots], idx[rows, slots] = np.asarray(vals)[order], cols
        return cls(data, idx, shape[1])

    def entries(self) -> tuple:
        """(rows, cols, vals) of the nonzero entries, in CSR order."""
        i, s = np.nonzero(self.data)
        return i, self.cols[i, s], self.data[i, s]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("ik,ik->i", self.data, x[self.cols])

    def __mul__(self, scale: float) -> PaddedRows:
        """Times a power of two, exact; a stored adjoint comes along."""
        adj = self._adjoint
        if adj is not None:
            adj = PaddedRows(adj.data * scale, adj.cols, self.shape[0])
        return PaddedRows(self.data * scale, self.cols, self.shape[1], adj)

    def adjoint(self) -> PaddedRows:
        """T^H: stored by the assembly, else built once from the entries."""
        if self._adjoint is None:
            i, j, v = self.entries()
            self._adjoint = PaddedRows.from_entries(j, i, v.conj(),
                                                    self.shape[::-1])
        return self._adjoint

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        i, j, v = self.entries()
        out[i, j] = v
        return out


def row_slots(rows: np.ndarray) -> np.ndarray:
    """Each entry's slot in its padded row, for entries sorted by row."""
    return np.arange(len(rows)) - np.searchsorted(rows, rows)


def _padded(blocks: list, M: int, adjoint: PaddedRows | None = None
            ) -> PaddedRows:
    """One PaddedRows of a square grid of M x M blocks, blocks[b] the
    (j, k, d) of block row b: diagonal d at offset k of block column j.
    Offset k of block column j puts row r's entry in column j*M + r - k,
    so sorting by j*M - k orders each row; exact zeros hold no entry."""
    diags = [sorted(((j * M - k, k), d) for j, k, d in row) for row in blocks]
    rows, width = len(blocks), max(map(len, diags))
    V = np.zeros((rows, M, width), dtype=complex)
    C = np.zeros((rows, M, width), dtype=np.intp)
    for b, row in enumerate(diags):
        for i, ((s, k), d) in enumerate(row):
            V[b, max(k, 0):M + min(k, 0), i] = d
            C[b, :, i] = np.arange(s, M + s)
    C[V == 0] = 0
    return PaddedRows(V.reshape(rows * M, width), C.reshape(rows * M, width),
                      rows * M, adjoint)


def represent_element(x: AlgebraElement, trunc: RepTruncation) -> PaddedRows:
    """M x M compression of x, assembled once."""
    return _block_rep([[x]], trunc)


# -- dominant singular value -------------------------------------------------

_LANCZOS_STEPS = 64        # step budget; a stalled top is certified at 1/4
_LANCZOS_TOL = 1e-12       # Ritz residual / Ritz value at the stop; delta


@functools.lru_cache(maxsize=16)
def _start_vector(n: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    start /= np.linalg.norm(start)
    start.flags.writeable = False
    return start


def _site_gram_blocks(T, TH, M: int) -> tuple:
    """T^H T for T an r x r grid of M x M blocks, its unknowns ordered
    site by site (site s of block column j is unknown s r + j) and cut
    into b x b blocks, b its bandwidth: then it is block tridiagonal, with
    diagonal blocks D and the blocks U right of them, zero-padded.

    Entry (i, k) sums TH[i, j] T[j, k] from +0 in ascending j, one slot
    of TH's row i at a time, and exact-zero sums are dropped: scipy's
    sparse product bit for bit, so b and every certificate decision are
    those of the CSR route."""
    n = T.shape[1]
    TJ, cols = T.data[TH.cols], T.cols[TH.cols]      # row, slot, T's slot
    live = (TH.data != 0)[:, :, None] & (TJ != 0)
    keys = (np.arange(n)[:, None, None] * n + cols)[live]
    prods = np.einsum("is,ist->ist", TH.data, TJ)[live]
    slot = np.nonzero(live)[1]
    uniq, at = np.unique(keys, return_inverse=True)
    G = np.zeros(len(uniq), dtype=complex)
    for s in range(TH.data.shape[1]):
        here = slot == s
        G[at[here]] += prods[here]
    row, col = np.divmod(uniq[G != 0], n)
    G, r = G[G != 0], n // M
    i, j = row % M * r + row // M, col % M * r + col // M
    b = max(1, int(np.abs(i - j).max(initial=0)))
    D = np.zeros((-(-n // b), b, b), dtype=complex)
    U = np.zeros_like(D)
    for out, keep in ((D, i // b == j // b), (U, j // b == i // b + 1)):
        out[i[keep] // b, i[keep] % b, j[keep] % b] = G[keep]
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


def _bracket(D: np.ndarray, U: np.ndarray, lo: float) -> tuple:
    """(lo, hi), lo <= ||T|| <= hi <= lo (1 + delta) up to the backward
    error of _norm_below, for T^H T in _site_gram_blocks' blocks and a
    lower bound lo: hi steps up from lo by 1 + s, s = delta, 4 delta,
    16 delta ..., then bisection halves [lo, hi], each factorization
    moving one end.  T's largest column norm is a lower bound too, so a
    start from lo = 0 moves."""
    lo = max(lo, math.sqrt(D.diagonal(axis1=1, axis2=2).real.max()))
    s, hi = _LANCZOS_TOL, lo * (1 + _LANCZOS_TOL)
    while lo and not _norm_below(D, U, hi):
        lo, s = hi, 4 * s
        hi = lo * (1 + s)
    while hi - lo > _LANCZOS_TOL * lo:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if _norm_below(D, U, mid) else (mid, hi)
    return lo, hi


def top_singular_triplet(T, TH, candidate: float = 0.0, M: int = 0) -> tuple:
    """(sigma, u, v), the top singular value of a sparse T given TH = T^H,
    T an r x r grid of M x M blocks (M = 0: one block column), v the
    Ritz vector and T v = ||T v|| u; delta = _LANCZOS_TOL.

    Lanczos on T^H T with two-pass full reorthogonalization, from one
    fixed seeded start vector, ends in one of three exits:
    1. the Ritz residual is at most delta times the Ritz value: sigma =
       ||T v||, exact to roundoff;
    2. a candidate c is given and the Ritz value after step 16
       (_LANCZOS_STEPS // 4) is still below c^2 (1 - sqrt(delta)): the
       top is certified at c, as c (1 - delta) <= ||T|| < c (1 + delta),
       and sigma = c (1 - delta), u = v = None.  A refusal lets Lanczos
       go on.  The gap keeps bits: a top at c that Lanczos resolves (the
       q = 1/2 distance round's, in 21-25 steps) is within 3.3e-12 of
       c^2 at step 16;
    3. the step budget runs out: sigma is the lower end of _bracket from
       ||T v||, at most delta below ||T||.
    The long sums run in numpy's own loops and PaddedRows products, the
    bracket's in LAPACK on b x b blocks, b the bandwidth.
    """
    n = T.shape[1]
    steps = min(_LANCZOS_STEPS, n)
    V = np.empty((steps, n), dtype=complex)
    H = np.zeros((steps, steps))
    V[0] = _start_vector(n)
    hi, lo = candidate * (1 + _LANCZOS_TOL), candidate * (1 - _LANCZOS_TOL)
    stall = (1 - math.sqrt(_LANCZOS_TOL)) * candidate * candidate
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
        resolved = b * abs(y[-1]) <= _LANCZOS_TOL * ritz[-1]
        if resolved:
            break
        if candidate and k + 1 == _LANCZOS_STEPS // 4 and ritz[-1] < stall:
            D, U = _site_gram_blocks(T, TH, M or n)
            if _norm_below(D, U, hi) and not _norm_below(D, U, lo):
                return lo, None, None
        if k + 1 < steps:
            H[k + 1, k] = b
            V[k + 1] = w / b
    v = np.einsum("i,ij->j", y, Vk)
    v /= np.linalg.norm(v)
    u = T @ v
    sigma = float(np.linalg.norm(u))
    if sigma > 0.0:
        u /= sigma
    if not resolved:
        sigma = _bracket(*_site_gram_blocks(T, TH, M or n), sigma)[0]
    return sigma, u, v


def dominant_sigma(mat, candidate: float = 0.0, M: int = 0) -> tuple:
    """Largest singular value: (sigma, converged) from top_singular_triplet,
    accurate to roundoff, or certified within 2e-12 below a top the
    Lanczos steps leave unresolved; so converged is always True."""
    return top_singular_triplet(mat, mat.adjoint(), candidate=candidate,
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
    converged.  candidate goes to dominant_sigma at every truncation, in
    the units of the matrices times _range_scale(upper).
    """
    q = x.alg.field.float_q()
    M = max(M, x.total_degree() + 2)
    scale = _range_scale(upper)

    def level(Mcur: int) -> float:
        T = build(RepTruncation(q, Mcur))
        T = T if scale == 1.0 else T * scale    # a power of two: exact
        return dominant_sigma(T, candidate, Mcur)[0] / scale

    best = level(M)
    steps = [(M, best)]
    conv = not ladder
    if ladder:
        for _ in range(_MAX_DOUBLINGS):
            M *= 2
            best2 = level(M)
            steps.append((M, best2))
            done = abs(best2 - best) <= _REL_TOL * best2
            best = best2
            if done:
                conv = True
                break
    lower = min(best, upper)     # guard against roundoff overshoot
    return NormEstimate(lower, upper, conv, M, ladder=tuple(steps))


def _range_scale(upper: float) -> float:
    """1, or outside [2^-200, 2^200] the power of two taking a norm bound
    into [1/2, 1): upper^4, Lanczos' T^H T squared, must stay normal."""
    if 2.0 ** -200 <= upper <= 2.0 ** 200:
        return 1.0
    return 2.0 ** min(1023, -math.frexp(upper)[1])


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


def _block_rep(entries: list, trunc: RepTruncation) -> PaddedRows:
    """Square grid of elements, such as a 2x2 operator-valued matrix, to
    one matrix with its adjoint: block (i, j)'s diagonal d at offset k is
    block (j, i)'s conj(d) at offset -k.  Sums start at +0, so never hold
    -0: bit for bit the entries of per-term sparse sums stacked by bmat,
    and of their conjugate transpose."""
    diags = [[_diagonals(((m, complex(c.to_complex()))
                          for m, c in e.terms.items()), trunc).items()
              for e in row] for row in entries]
    M = trunc.M
    TH = _padded([[(i, -k, d.conj()) for i, row in enumerate(diags)
                   for k, d in row[j]] for j in range(len(entries))], M)
    return _padded([[(j, k, d) for j, ds in enumerate(row) for k, d in ds]
                    for row in diags], M, TH)


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
                           x, M, upper, ladder,
                           _character_norm(entries, _range_scale(upper)))
    return LipResult(est, components)


def _character_norm(entries: list, scale: float = 1.0) -> float:
    """scale ||C||, C the 2x2 matrix of the entries' unit coefficients: the
    characters send a sphere element to its unit coefficient, so this is
    the derivation matrix's essential norm.  sigma^2 = (|C|_F^2 +
    sqrt(|C|_F^4 - 4 |det C|^2)) / 2, via C C^H = [[p, z], [z*, r]]."""
    (a, b), (c, d) = [[complex(e.terms[UNIT].to_complex()) * scale
                       if UNIT in e.terms else 0j for e in row]
                      for row in entries]
    p, r = abs(a) ** 2 + abs(b) ** 2, abs(c) ** 2 + abs(d) ** 2
    z = a * c.conjugate() + b * d.conjugate()
    return math.sqrt((p + r) / 2 + math.hypot((p - r) / 2, abs(z)))


def _crude_lip_bound(entries: list) -> float:
    """2 x the largest coefficient sum over the derivation-matrix entries:
    each entry's image is at most its coefficient sum in norm, and a 2x2
    operator matrix is at most twice its largest entry."""
    return 2.0 * max(coefficient_sum_bound(e) for row in entries for e in row)


def delta_block_matrix(actions: UqActions, x: AlgebraElement,
                       trunc: RepTruncation) -> PaddedRows:
    """Truncated representation of the derivation matrix (q < 1)."""
    return _block_rep(actions.delta_matrix(x), trunc)


def delta_block_grid(actions: UqActions, x: AlgebraElement) -> np.ndarray:
    """Pointwise 2x2 derivation matrices on the classical grid (q = 1),
    stacked as an array of shape (points, 2, 2)."""
    flat = [e for row in actions.delta_matrix(x) for e in row]
    pts = _classical_points(flat, sphere_only=True)
    return np.stack(pts, axis=1).reshape(-1, 2, 2)


# -- Gram dual oracle ----------------------------------------------------------


def _lifted_context(x: AlgebraElement, extra_degree: int):
    """Return (algebra, element) precise enough for the oracle.

    Exact fields pass through.  Float fields are lifted to a working
    precision that dominates the chain conditioning, which grows like
    q^(-2 d^2) in the maximum chain degree d, kept on alg per precision.
    """
    alg = x.alg
    if alg.field.mode == "exact":
        return alg, x
    from .qhopf import make_algebra_float
    from .scalars import FloatScalar

    q = alg.field.float_q()
    D = x.total_degree() + extra_degree
    dps = max(120, int(2 * D * D * abs(math.log10(q))) + 80)
    lifted = alg.__dict__.setdefault("_lifted_algebras", {})
    if dps not in lifted:
        lifted[dps] = make_algebra_float(q, precision=dps)
    hi = lifted[dps]
    terms = {m: FloatScalar(hi.field, hi.field.ctx.mpc(c.val))
             for m, c in x.terms.items()}
    return hi, AlgebraElement(hi, terms)


def _mult_op_sigma(alg: Algebra, y: AlgebraElement, rdeg: int,
                   basis_size: int) -> float:
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
    cod.ensure_degree(D_basis + y.total_degree())
    rows = {key: i for i, key in enumerate(
        (k, alpha) for k, ch in sorted(cod.chains.items())
        for alpha in range(len(ch["monos"])))}
    data, row_idx, col_idx = [], [], []
    for j, ((kj, pos_j), col) in enumerate(
            zip(sel, cod.image_columns(y, ortho, sel))):
        # the projections are huge and cancel; summing them exactly and
        # rounding once, in whitened(), keeps the entries accurate
        rj = ortho.inv_root(kj, pos_j)
        try:
            data.extend(val.whitened(cod.inv_root(kt, alpha), rj)
                        for (kt, alpha), val in col.items())
        except OverflowError:
            raise RuntimeError("whitened operator matrix overflowed") from None
        row_idx.extend(rows[key] for key in col)
        col_idx.extend([j] * len(col))
    if not (rows and sel):
        return 0.0
    Y = PaddedRows.from_entries(np.array(row_idx, dtype=np.intp),
                                np.array(col_idx, dtype=np.intp), data,
                                (len(rows), len(sel)))
    return top_singular_triplet(Y, Y.adjoint())[0]


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
    # chains for `basis_size` graded monomials reach roughly this degree;
    # the float-mode precision lift must dominate their conditioning
    reach = int(math.isqrt(2 * basis_size)) + 2
    lower = max(_mult_op_sigma(*_lifted_context(y, reach), rdeg, basis_size)
                if not y.is_zero() else 0.0
                for y, rdeg in ((p1, 1), (p2, -1)))
    if lower > upper * (1 + 1e-9):
        raise RuntimeError("Gram oracle value %r exceeds the upper bound %r"
                           % (lower, upper))
    return NormEstimate(lower, upper, True, basis_size,
                        notes=("gram-oracle",))
