"""Neighborhood-pattern similarity matrices.

Two nodes are similar when they reach common targets through the same
patterns of incoming/outgoing edges.  With ``N_1 = A A^T + A^T A`` counting
common parents and children, and ``N_l = A N_{l-1} A^T + A^T N_{l-1} A``
counting common targets of length-``l`` patterns, the similarity matrix is
the damped sum ``S = sum_l beta^(2(l-1)) N_l``.  Its partial sums follow
the recurrence

    S_1 = G[I],   S_{k+1} = G[I + beta^2 S_k],

where ``G[X] = A X A^T + A^T X A``.  The recurrence converges if and only if
``beta^2`` is strictly below ``1 / rho(A (x) A + A^T (x) A^T)``; the operator
spectral radius is exposed as :func:`beta_bound`.  It is found by a power
iteration on ``G``, which maps positive semi-definite matrices to positive
semi-definite ones.  Where the dominant eigenvector is numerically low-rank
(as on noisy block cycles) the iterate is kept as a thin factor ``V V^T`` of
rank r, at O(n^2 r) a step; otherwise the iteration runs on dense n x n
iterates at O(n^3) a step.

Finite depths (:func:`iterate`, :func:`pattern_counts`) run the recurrence.
The limit (:func:`fixed_point`) is found instead by solving the linear system
``(I - beta^2 G) S = G[I]`` with conjugate gradients: ``G`` is self-adjoint
in the Frobenius inner product with spectrum in ``[-rho, rho]``, so for
admissible ``beta^2`` the system is symmetric positive definite with
eigenvalues in ``[1 - beta^2 rho, 1 + beta^2 rho]``, and CG needs a few
operator applications where the recurrence needs one per factor of
``beta^2 rho`` in the error.

All matrices ``S_k`` are symmetric positive semi-definite, non-negative for
unsigned graphs, and share the column space of ``[A A^T]`` for every k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graphcore import Adjacency, as_adjacency

#: default damping as a fraction of the admissible bound: beta^2 = 0.81 / rho
DEFAULT_BETA2_FRACTION = 0.81
#: the one stopping rule of the similarity solve, in every command: a true
#: residual of at most DEFAULT_TOL * ||S||_F, far below the last of the 9
#: significant digits the spectrum report prints of values spanning decades
DEFAULT_TOL = 1e-13
DEFAULT_MAX_K = 10000

# beta_bound: the relative change at which its estimate has settled, the
# largest part of G[X] (relative, Frobenius norm) its truncation may keep
# discarding, and the rank its thin factor starts at
_TOL = 1e-10
_DISCARD_TOL = 1e-6
_START_RANK = 8


class NonConvergenceError(RuntimeError):
    """An iteration hit its step limit; ``state`` holds the last iterate.

    There are two solves, and each gives ``state`` and ``history`` one
    meaning.  The similarity solve (:func:`fixed_point`,
    :func:`scaled_fixed_point`, and ``extract_roles``, ``spectrum_report``
    and ``lowrank_iterate`` at the fixed point): the state is the n x n
    :class:`SimilarityState` of the last CG iterate, and the history the
    relative residual after each CG iteration.  :func:`beta_bound`: the
    state is the last estimate of rho, and the history the relative change
    of the estimate at each step after the first, in its factored and exact
    regimes alike.
    """

    def __init__(self, message: str, state=None, history=()):
        super().__init__(message)
        self.state = state
        self.history = tuple(history)


@dataclass(frozen=True, eq=False)
class SimilarityState:
    """A similarity iterate: the matrix, its depth, and the damping used."""

    S: np.ndarray
    k: int
    beta2: float
    converged: bool


@dataclass(frozen=True, eq=False)
class PatternCount:
    """Common-target counts ``N_l`` for neighborhood patterns of length ``l``."""

    N: np.ndarray
    ell: int


def gamma(A, X: np.ndarray) -> np.ndarray:
    """Apply the similarity operator: A X A^T + A^T X A.

    Preserves symmetry, positive semi-definiteness, and (for unsigned A)
    entrywise non-negativity of X.
    """
    M = as_adjacency(A).entries
    X = np.asarray(X, dtype=float)
    if X.shape != M.shape:
        raise ValueError(f"operand shape {X.shape} does not match graph {M.shape}")
    return M @ X @ M.T + M.T @ X @ M


def _sym(S: np.ndarray) -> np.ndarray:
    return (S + S.T) / 2


def _gamma_of_identity(A: Adjacency) -> np.ndarray:
    """G[I] = A A^T + A^T A, the common parents and children ``N_1``.

    numpy computes each product of a matrix with its own transpose by a
    symmetric rank-k update (BLAS ``syrk``), half the work of a general
    product, and each is exactly symmetric.  On graphs with integer
    entries it equals ``_sym(gamma(A, I))`` bit for bit.
    """
    M = A.entries
    return M @ M.T + M.T @ M


def _compress(F: np.ndarray, trunc_tol: float):
    """Orthogonalize-then-SVD compression of a stacked factor.

    Returns (U, s) with U U^T ~= F F^T, s the kept singular values of F
    (those at least ``trunc_tol`` times the largest) and U / s orthonormal.
    F is reduced to L = R^T from the QR factorization F^T = Q R, since
    F F^T = L L^T: the left singular factor and singular values of F are
    those of L, and no Q is formed.  For a wide m x w stack, as
    ``lowrank_iterate`` builds, L is an m x m triangle; for a tall one, as
    :func:`beta_bound` builds, it is m x w and the compression costs
    O(m w^2).
    """
    L = np.linalg.qr(F.T, mode="r").T
    W, s, _ = np.linalg.svd(L, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((F.shape[0], 0)), s[:0]
    keep = s >= trunc_tol * s[0]
    return W[:, keep] * s[keep], s[keep]


def beta_bound(A) -> float:
    """Spectral radius of X -> A X A^T + A^T X A (equals rho(A(x)A + A^T(x)A^T)).

    A deterministic power iteration on symmetric matrices, normalized in
    Frobenius norm each step.  Its estimate is ``||G[X]||_F`` for the unit
    iterate X, a lower bound on rho at every step, and it stops once the
    estimate settles: its relative change from the step before is at most
    1e-10.  The admissible damping region is ``beta^2 < 1 / beta_bound(A)``.

    The iteration runs on the quotient of A by structural equivalence
    (:attr:`Adjacency.quotient`, c classes): the operator's nonzero
    eigenvectors lie in ``Q X Q^T``, where it acts as the same operator on
    the c x c quotient matrix A_hat.  It has two regimes:

    - Factored, while 2r < c for a rank r that starts at 8: the iterate is
      a thin factor ``X = V V^T``.  Since ``G[V V^T] = F F^T`` for
      ``F = [A_hat V, A_hat^T V]``, a step costs O(c^2 r): form F, compress
      it (:func:`_compress`) and keep its top r.  The start is the rank-r
      projection of ``G[I]`` on the range of ``G[I] Omega`` for a fixed
      Gaussian c x r matrix Omega (a randomized range finder).  G maps
      positive semi-definite matrices to positive semi-definite ones, so
      rho has such an eigenvector, and for all Omega outside a set of
      measure zero this start overlaps it.  The part of ``G[X]`` a step
      discards, relative in Frobenius norm, is the floor the truncation
      puts under the residual ``||G[X] - rho_hat X||``; it moves the
      estimate by about its square over the relative spectral gap.  When
      it exceeds 1e-6 and has not halved since the step before, r doubles.
    - Exact, once 2r >= c (from the start when c <= 16): the dense c x c
      iterate from ``I_c / sqrt(n)``, the projection of ``I / sqrt(n)``,
      at O(c^3) a step.  With no equivalent nodes (c = n) it is the power
      iteration on the n x n operator.

    After ``DEFAULT_MAX_K`` steps in all (read at call time),
    :class:`NonConvergenceError` carries the last estimate and, from the
    second step on, the relative change of the estimate at each step.  The
    exact regime's estimates start afresh, so its first step is not tested
    against the last factored estimate, but its history entry is that
    change.
    """
    A = as_adjacency(A)
    quotient = A.quotient
    M = quotient.entries
    if not M.any():
        raise ValueError("beta_bound requires a nonzero adjacency matrix")
    history = []
    estimate = 0.0
    steps = 0
    rank = _START_RANK
    if 2 * rank < quotient.c:
        omega = np.random.default_rng(0).standard_normal((quotient.c, rank))
        Q = np.linalg.qr(M @ (M.T @ omega) + M.T @ (M @ omega))[0]
        U, s = _compress(np.hstack([Q.T @ M, Q.T @ M.T]), 0.0)
        V = Q @ U / np.sqrt(np.linalg.norm(s**2))
        last_discarded = np.inf
        while 2 * rank < quotient.c and steps < DEFAULT_MAX_K:
            steps += 1
            U, s = _compress(np.hstack([M @ V, M.T @ V]), 0.0)
            power = s**2   # the eigenvalues of G[V V^T]
            norm = float(np.linalg.norm(power))
            if estimate > 0.0:
                history.append(abs(norm - estimate) / estimate)
                if history[-1] <= _TOL:
                    return norm
            discarded = float(np.linalg.norm(power[rank:])) / norm
            if discarded > _DISCARD_TOL and 2.0 * discarded > last_discarded:
                rank *= 2
            V = U[:, :rank] / np.sqrt(np.linalg.norm(power[:rank]))
            estimate, last_discarded = norm, discarded
    X = np.eye(quotient.c) / np.sqrt(A.n)
    last = 0.0
    while steps < DEFAULT_MAX_K:
        steps += 1
        Y = _sym(M @ X @ M.T + M.T @ X @ M)
        norm = float(np.linalg.norm(Y))
        if norm == 0.0:
            raise ValueError("similarity operator annihilated the power iterate")
        if estimate > 0.0:
            history.append(abs(norm - estimate) / estimate)
        if abs(norm - last) <= _TOL * last:
            return norm
        X = Y / norm
        last = estimate = norm
    raise NonConvergenceError(
        f"power iteration for the spectral radius did not settle "
        f"(last estimate {estimate})", state=estimate, history=history)


def _check_beta2(beta2: float) -> None:
    """Reject a damping that is negative, infinite or NaN."""
    if not 0.0 <= beta2 < np.inf:
        raise ValueError(f"beta2 must be finite and non-negative, got {beta2!r}")


def _check_solve(tol: float, max_k: int) -> None:
    """Reject a tolerance that is not positive (NaN included) and a cap below 1."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not max_k >= 1:
        raise ValueError(f"max_k must be at least 1, got {max_k!r}")


def resolve_beta2(A, beta2: float | None) -> tuple[float, float]:
    """The damping to use on ``A``, and the operator radius ``rho`` it was
    checked against.

    ``None`` selects the default 0.81 / rho.  A ``beta2`` that is negative,
    infinite or NaN is rejected before ``rho`` is computed, and one at or
    above the admissible bound ``1 / rho`` after.
    """
    if beta2 is not None:
        _check_beta2(beta2)
    rho = beta_bound(A)
    if beta2 is None:
        return DEFAULT_BETA2_FRACTION / rho, rho
    if beta2 * rho >= 1.0:
        raise ValueError(
            f"beta2 = {beta2:g} is at or above the admissible bound 1/rho = {1.0 / rho:g}")
    return beta2, rho


def default_beta2(A) -> float:
    """The toolkit default damping: beta^2 = 0.81 / beta_bound(A)."""
    return resolve_beta2(A, None)[0]


def iterate(A, beta2: float, k: int) -> SimilarityState:
    """Run exactly ``k`` steps of the similarity recurrence.

    Only a finite non-negative ``beta2`` is accepted, but no admissibility
    check is made, so this can be used to observe divergence for damping
    above the bound.
    """
    A = as_adjacency(A)
    _check_beta2(beta2)
    if k < 1:
        raise ValueError("iteration depth k must be at least 1")
    eye = np.eye(A.n)
    S = _gamma_of_identity(A)
    for _ in range(k - 1):
        S = _sym(gamma(A, eye + beta2 * S))
    return SimilarityState(S=S, k=k, beta2=beta2, converged=False)


def fixed_point(A, beta2: float | None = None, tol: float = DEFAULT_TOL,
                max_k: int = DEFAULT_MAX_K) -> SimilarityState:
    """The fixed point S = G[I + beta^2 S], solved by conjugate gradients.

    ``beta2`` defaults to 0.81 / beta_bound(A) and is rejected at or above
    the admissible bound before any iteration.  CG on
    ``(I - beta^2 G) S = G[I]`` stops once its residual is at most
    ``tol * ||S||_F``; that residual is then recomputed from S directly, so
    the result satisfies ``||S - G[I + beta^2 S]||_F <= tol ||S||_F``.
    ``k`` is the number of CG iterations, each one application of G, and
    ``max_k`` caps it: reaching the cap raises :class:`NonConvergenceError`
    carrying the last state and the relative residual after each iteration.
    """
    A = as_adjacency(A)
    _check_solve(tol, max_k)
    return _fixed_point(A, resolve_beta2(A, beta2)[0], tol, max_k)


def _quotient_similarity(A: Adjacency, beta2: float | None, k: int | None,
                         max_k: int = DEFAULT_MAX_K) -> SimilarityState:
    """The similarity at depth k on the quotient of A by structural
    equivalence: the c x c matrix S_hat with ``S_k = Q S_hat Q^T`` (see
    :class:`rolekit.graphcore.Quotient`).  This is the one route from a
    command to the similarity, so every command sees the same S_hat at a
    given depth.  A depth ``k`` below 1 and a ``max_k`` below 1 are
    rejected before anything is computed, at every depth.  ``beta2`` (None
    for the default 0.81 / rho) is resolved and checked against the
    admissible bound at every depth: by :func:`resolve_beta2` on A at a
    finite k, by :func:`fixed_point` on A_hat at ``k=None``, which solves
    to the one tolerance ``DEFAULT_TOL``.  Past ``max_k``,
    :class:`NonConvergenceError` carries the last iterate lifted to the
    n x n similarity ``Q S_hat Q^T``, with the solve's history."""
    if k is not None and not k >= 1:
        raise ValueError("iteration depth k must be at least 1")
    if not max_k >= 1:
        raise ValueError(f"max_k must be at least 1, got {max_k!r}")
    small = A if A.quotient.c == A.n else Adjacency.from_matrix(A.quotient.entries)
    if k is not None:
        return iterate(small, resolve_beta2(A, beta2)[0], k)
    try:
        return fixed_point(small, beta2, DEFAULT_TOL, max_k)
    except NonConvergenceError as exc:
        lift = A.quotient.lift
        state = replace(exc.state, S=lift(lift(exc.state.S).T))
        raise NonConvergenceError(str(exc), state=state, history=exc.history) from None


def _residual(A: Adjacency, beta2: float, S: np.ndarray) -> np.ndarray:
    """G[I + beta^2 S] - S, the fixed-point residual computed from S itself."""
    X = beta2 * S
    X.flat[::A.n + 1] += 1.0
    R = _sym(gamma(A, X))
    R -= S
    return R


def _fixed_point(A: Adjacency, beta2: float, tol: float, max_k: int) -> SimilarityState:
    """CG on (I - beta^2 G) S = G[I] from S = 0, for an admissible beta2.

    Every iterate is symmetric, and every application of G to an iterate
    goes through :func:`gamma`.
    """
    S = np.zeros((A.n, A.n))
    R = _gamma_of_identity(A)   # the right-hand side, and the residual at S = 0
    P = R.copy()
    rr = np.vdot(R, R)
    history = []
    for k in range(1, max_k + 1):
        Q = _sym(gamma(A, P))
        Q *= -beta2
        Q += P
        alpha = rr / np.vdot(P, Q)
        S += alpha * P
        R -= alpha * Q
        del Q   # hold at most S, R and P across an application of G
        size = np.linalg.norm(S)
        history.append(np.linalg.norm(R) / size)
        if history[-1] <= tol:
            # the updated residual drifts from the true one by rounding:
            # accept only on the true residual, else restart from it
            del P
            R = _residual(A, beta2, S)
            history[-1] = np.linalg.norm(R) / size
            if history[-1] <= tol:
                return SimilarityState(S=S, k=k, beta2=beta2, converged=True)
            P = R.copy()
            rr = np.vdot(R, R)
            continue
        rr_next = np.vdot(R, R)
        P *= rr_next / rr
        P += R
        rr = rr_next
    raise NonConvergenceError(
        f"similarity solve did not converge within {max_k} iterations",
        state=SimilarityState(S=S, k=max_k, beta2=beta2, converged=False),
        history=history)


def pattern_counts(A, ell_max: int) -> list[PatternCount]:
    """Common-target counts N_1 .. N_ell_max of the neighborhood patterns."""
    A = as_adjacency(A)
    if ell_max < 1:
        raise ValueError("ell_max must be at least 1")
    out = []
    N = _gamma_of_identity(A)
    out.append(PatternCount(N=N, ell=1))
    for ell in range(2, ell_max + 1):
        N = _sym(gamma(A, N))
        out.append(PatternCount(N=N, ell=ell))
    return out


# ---------------------------------------------------------------------------
# rank-one weighted graphs: A_W = D A D with binary A and positive D
# ---------------------------------------------------------------------------

def _weighted_parts(A_W, d):
    A_W = as_adjacency(A_W)
    d = np.asarray(d, dtype=float).ravel()
    if d.shape[0] != A_W.n:
        raise ValueError("weight vector length must equal the node count")
    if (d <= 0).any():
        raise ValueError("weights must be strictly positive")
    base = A_W.entries / np.outer(d, d)
    rounded = np.round(base)
    if not np.isin(rounded, (0.0, 1.0)).all() or np.abs(base - rounded).max() > 1e-8:
        raise ValueError("weighted graph is not D A D for a binary A")
    return d, Adjacency.from_matrix(rounded)


def scaled_iterate(A_W, d, beta2: float, k: int) -> SimilarityState:
    """Run k steps of the weighted-graph similarity recurrence.

    For A_W = D A D the iterates satisfy S_k^D = D S_k D, where S_k is the
    plain recurrence on the binary A; this returns :func:`iterate` of A,
    conjugated by D.
    """
    d, base = _weighted_parts(A_W, d)
    return _conjugate(iterate(base, beta2, k), d)


def scaled_fixed_point(A_W, d, beta2: float | None = None, tol: float = DEFAULT_TOL,
                       max_k: int = DEFAULT_MAX_K) -> SimilarityState:
    """Fixed point of the weighted-graph recurrence: D S_inf D.

    ``S_inf`` is :func:`fixed_point` of the binary base graph A, so ``beta2``
    is resolved against A, and ``tol`` and ``max_k`` apply to the solve on A.
    """
    d, base = _weighted_parts(A_W, d)
    try:
        state = fixed_point(base, beta2, tol, max_k)
    except NonConvergenceError as exc:
        raise NonConvergenceError(
            f"weighted {exc}", state=_conjugate(exc.state, d),
            history=exc.history) from None
    return _conjugate(state, d)


def _conjugate(state: SimilarityState, d: np.ndarray) -> SimilarityState:
    return replace(state, S=d[:, None] * state.S * d[None, :])
