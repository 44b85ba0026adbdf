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
spectral radius is exposed as :func:`beta_bound`.

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
DEFAULT_TOL = 1e-10
DEFAULT_MAX_K = 10000


class NonConvergenceError(RuntimeError):
    """An iteration hit its step limit; ``state`` holds the last iterate.

    ``history`` holds the relative residual after each iteration, where the
    iteration reports one (empty otherwise).
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


def beta_bound(A) -> float:
    """Spectral radius of X -> A X A^T + A^T X A (equals rho(A(x)A + A^T(x)A^T)).

    Deterministic power iteration on symmetric matrices starting from the
    identity, normalized in Frobenius norm each step, with relative-change
    tolerance 1e-10 and at most 10000 steps.  The admissible damping region
    is ``beta^2 < 1 / beta_bound(A)``.
    """
    A = as_adjacency(A)
    M = A.entries
    if not M.any():
        raise ValueError("beta_bound requires a nonzero adjacency matrix")
    X = np.eye(A.n) / np.sqrt(A.n)
    estimate = 0.0
    for _ in range(DEFAULT_MAX_K):
        Y = _sym(M @ X @ M.T + M.T @ X @ M)
        norm = float(np.linalg.norm(Y))
        if norm == 0.0:
            raise ValueError("similarity operator annihilated the power iterate")
        if estimate > 0.0 and abs(norm - estimate) <= 1e-10 * estimate:
            return norm
        X = Y / norm
        estimate = norm
    raise NonConvergenceError(
        f"power iteration for the spectral radius did not settle "
        f"(last estimate {estimate})", state=estimate)


def resolve_beta2(A, beta2: float | None) -> tuple[float, float]:
    """The damping to use on ``A``, and the operator radius ``rho`` it was
    checked against.

    ``None`` selects the default 0.81 / rho.  A negative ``beta2`` is
    rejected before ``rho`` is computed, and one at or above the admissible
    bound ``1 / rho`` after.
    """
    if beta2 is not None and beta2 < 0:
        raise ValueError("beta2 must be non-negative")
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

    No admissibility check is made, so this can be used to observe divergence
    for damping above the bound.
    """
    A = as_adjacency(A)
    if beta2 < 0:
        raise ValueError("beta2 must be non-negative")
    if k < 1:
        raise ValueError("iteration depth k must be at least 1")
    eye = np.eye(A.n)
    S = _sym(gamma(A, eye))
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
    if tol <= 0:
        raise ValueError("tol must be positive")
    beta2, _ = resolve_beta2(A, beta2)
    return _fixed_point(A, beta2, tol, max_k)


def _residual(A: Adjacency, beta2: float, S: np.ndarray) -> np.ndarray:
    """G[I + beta^2 S] - S, the fixed-point residual computed from S itself."""
    X = beta2 * S
    X.flat[::A.n + 1] += 1.0
    R = _sym(gamma(A, X))
    R -= S
    return R


def _fixed_point(A: Adjacency, beta2: float, tol: float, max_k: int) -> SimilarityState:
    """CG on (I - beta^2 G) S = G[I] from S = 0, for an admissible beta2.

    Every iterate is symmetric, and every application of G goes through
    :func:`gamma`.
    """
    S = np.zeros((A.n, A.n))
    R = _residual(A, beta2, S)   # G[I], the right-hand side, as S = 0
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
    N = _sym(gamma(A, np.eye(A.n)))
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
    return A_W.entries, d, Adjacency.from_matrix(rounded)


def _scaled_step(M: np.ndarray, mid: np.ndarray) -> np.ndarray:
    return _sym(M @ mid @ M.T + M.T @ mid @ M)


def scaled_iterate(A_W, d, beta2: float, k: int) -> SimilarityState:
    """Run k steps of the weighted-graph similarity recurrence.

    For A_W = D A D the iterates satisfy S_k^D = D S_k D, where S_k is the
    plain recurrence on the binary A.
    """
    M, d, _ = _weighted_parts(A_W, d)
    if beta2 < 0:
        raise ValueError("beta2 must be non-negative")
    if k < 1:
        raise ValueError("iteration depth k must be at least 1")
    dm2 = 1.0 / d**2
    S = _scaled_step(M, np.diag(dm2))
    for _ in range(k - 1):
        mid = np.diag(dm2) + beta2 * (dm2[:, None] * S * dm2[None, :])
        S = _scaled_step(M, mid)
    return SimilarityState(S=S, k=k, beta2=beta2, converged=False)


def scaled_fixed_point(A_W, d, beta2: float | None = None, tol: float = DEFAULT_TOL,
                       max_k: int = DEFAULT_MAX_K) -> SimilarityState:
    """Fixed point of the weighted-graph recurrence: D S_inf D.

    ``S_inf`` is :func:`fixed_point` of the binary base graph A, so ``beta2``
    is resolved against A, and ``tol`` and ``max_k`` apply to the solve on A.
    """
    _, d, base = _weighted_parts(A_W, d)
    if tol <= 0:
        raise ValueError("tol must be positive")
    beta2, _ = resolve_beta2(base, beta2)
    try:
        state = _fixed_point(base, beta2, tol, max_k)
    except NonConvergenceError as exc:
        raise NonConvergenceError(
            f"weighted {exc}", state=_conjugate(exc.state, d),
            history=exc.history) from None
    return _conjugate(state, d)


def _conjugate(state: SimilarityState, d: np.ndarray) -> SimilarityState:
    return replace(state, S=d[:, None] * state.S * d[None, :])
