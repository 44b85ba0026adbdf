"""Factored similarity S_k = U U^T: exact once from the dense recurrence, or thin.

Since ``S_k = G[X]`` with ``X = I + beta^2 S_{k-1}`` (``X = I`` at k = 1) and
``G[X] = A X A^T + A^T X A``, a Cholesky factor ``X = L L^T`` gives

    S_k = F F^T,   F = [ A L   A^T L ].

:func:`_similarity_stack` builds F on the quotient, for
:func:`lowrank_iterate` and for the dense route of extraction's sweep.  The
thin factor U of :func:`lowrank_iterate` is the compression of F
(:func:`_compress`): orthogonalization followed by an SVD, discarding
singular values below ``trunc_tol`` times the largest, once.  F is
factored, not S_k, whose small eigenvalues are the squares of F's singular
values and lose half their digits.  U is a library output, with the same
beta^2 rule, tolerance and non-convergence state as every command;
:func:`rolekit.extract.cluster_rows` groups its rows greedily by angle.
:func:`estimate_rank` reads a role count off a descending spectrum and
serves both extraction and the spectrum report.

Structurally equivalent nodes are collapsed first: with c classes,
A = Q A_hat Q^T for the c x c quotient matrix A_hat and orthonormal Q
(:class:`rolekit.graphcore.Quotient`), so the dense recurrence runs on A_hat
and the factor is lifted back as U = Q U_hat, whose rows are equal within a
class.  A call costs k - 1 dense steps at O(c^3) each (or, at the fixed
point, one O(c^3) eigendecomposition and two O(c^3) products per
conjugate-gradient iteration), plus one O(c^3) compression.  On an ideal
graph c is the number of roles; on a graph with no equivalent nodes (c = n,
as on noisy graphs) the costs are O(n^3).  On an ideal graph the kept rank
never exceeds rank([A A^T]), and the singular values of U are exactly those
of S_k^(1/2).

Role extraction at a finite depth on more than 32 classes uses the thin
similarity instead (:func:`_thin_similarity`): the recurrence itself runs
on a factor of fixed rank r, ``S_k ~= X X^T``, by subspace iteration at
O(c^2 (r + 8)) a product, so no c x c iterate is formed.  It starts from
the block :func:`rolekit.similarity._start_block` grows from
``A_hat sqrt(s)`` (``beta_bound`` grows its own from ``A_hat 1``).
On noisy graphs only the dominant eigenspace of S_k carries the roles, and
the rank follows the gap estimate (see :func:`rolekit.extract.extract_roles`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphcore import as_adjacency
from .similarity import (_check_request, _quotient_similarity, _ritz, _start_block, _sym,
                         resolve_beta2)

#: the ratio of consecutive singular values below which :func:`estimate_rank`
#: declares a gap: the one ratio of extraction and the spectrum report
DEFAULT_GAP_RATIO = 0.5

#: the thin similarity keeps a block this many columns wider than its rank
_OVERSAMPLE = 8


@dataclass(frozen=True, eq=False)
class LowRankState:
    """Thin factor U with S_k ~= U U^T.

    U = Q diag(sigma) with orthonormal Q, sigma descending.  ``r`` is the
    kept rank, never above rank([A A^T]).
    """

    U: np.ndarray
    k: int
    sigma: np.ndarray
    trunc_tol: float

    @property
    def r(self) -> int:
        return self.U.shape[1]


def lowrank_iterate(A, beta2: float | None = None, k: int | None = None,
                    trunc_tol: float = 1e-10) -> LowRankState:
    """The thin factor U of the similarity S_k = U U^T at depth k.

    The stack ``[A L, A^T L]`` of :func:`_similarity_stack`, with
    ``L L^T = I + beta^2 S_{k-1}`` on the quotient by structural
    equivalence, is compressed once (see the module docstring); k = 1
    factors ``G[I]``.  With ``k=None``, S is the conjugate-gradient solve
    of :func:`rolekit.similarity.fixed_point` by the one stopping rule of
    every command, and ``k`` its iteration count; its
    :class:`rolekit.similarity.NonConvergenceError` carries the n x n
    similarity state of the last CG iterate and its residual history.  The
    rules are those of ``extract_roles`` at every depth, k = 1 included:
    the request is checked before A is read, and
    ``beta2`` (None for the default 0.81 / rho) is rejected at or above the
    admissible bound before any step.  ``trunc_tol`` is a relative
    cutoff on the factor's singular values, applied once at the end: it
    keeps those at least ``trunc_tol`` times the largest.  Around 1e-10 it
    reproduces the exact rank on ideal graphs.  It is no rank cap: on
    10%-flipped block cycles (measured from n = 40 to 2000) even 1e-3
    keeps every rank.
    """
    _check_request(beta2, k, trunc_tol)
    A = as_adjacency(A)
    if k is not None:
        beta2 = resolve_beta2(A, beta2)
    F, state = _similarity_stack(A, beta2, k)
    U, sigma = _compress(F, trunc_tol)
    return LowRankState(U=A.quotient.lift(U), k=state.k if k is None else k,
                        sigma=sigma, trunc_tol=trunc_tol)


def _similarity_stack(A, beta2: float | None, k: int | None):
    """``F = [A_hat L, A_hat^T L]`` with ``F F^T = S_hat_k`` on the quotient of
    A, ``L L^T = I + beta^2 S_hat_(k-1)`` by Cholesky, and the state of
    ``S_hat_(k-1)`` from :func:`rolekit.similarity._quotient_similarity`
    (None at k = 1, where L = I), whose contract ``beta2`` follows.  With
    ``k=None``, ``F F^T = G[I + beta^2 S_hat]`` lies within the solve's
    true residual, ``DEFAULT_TOL`` relative, of the fixed point ``S_hat``."""
    quotient = A.quotient
    M = quotient.entries
    L, state = np.eye(quotient.c), None
    if k != 1:
        state = _quotient_similarity(A, beta2, None if k is None else k - 1)
        L = np.linalg.cholesky(L + state.beta2 * state.S)
    return np.hstack([M @ L, M.T @ L]), state


def _compress(F: np.ndarray, trunc_tol: float):
    """Orthogonalize-then-SVD compression of a stacked factor, for
    :func:`lowrank_iterate` only.

    Returns (U, s) with U U^T ~= F F^T, s the kept singular values of F
    (those at least ``trunc_tol`` times the largest) and U / s orthonormal.
    F is reduced to L = R^T from the QR factorization F^T = Q R, since
    F F^T = L L^T: the left singular factor and singular values of F are
    those of L, and no Q is formed.  For the wide m x 2m stack of
    :func:`_similarity_stack` L is an m x m triangle; for a tall m x w one
    it is m x w, at O(m w^2).
    """
    L = np.linalg.qr(F.T, mode="r").T
    W, s, _ = np.linalg.svd(L, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((F.shape[0], 0)), s[:0]
    keep = s >= trunc_tol * s[0]
    return W[:, keep] * s[keep], s[keep]


def estimate_rank(sigma, gap_ratio: float) -> int:
    """Estimate the effective rank from a descending singular-value array.

    Scanning the consecutive ratios ``sigma[r] / sigma[r-1]``, the estimate
    is the position of the last ratio that drops below ``gap_ratio``: the
    boundary between the structured spectrum and the trailing noise floor.
    Values at or below 1e-12 times the largest carry no rank information,
    so a drop between two of them never marks the boundary.
    Returns the full length when no ratio qualifies.
    """
    sig = np.asarray(sigma, dtype=float).ravel()
    if sig.size == 0:
        raise ValueError("estimate_rank needs at least one singular value")
    if (sig < 0).any():
        raise ValueError("singular values must be non-negative")
    floor = 1e-12 * sig[0]
    best = None
    for r in range(1, sig.size):
        hi, lo = sig[r - 1], sig[r]
        if hi <= floor:
            break
        ratio = 1.0 if hi == 0.0 else lo / hi
        if ratio < gap_ratio:
            best = r
    return best if best is not None else sig.size


def _thin_similarity(M: np.ndarray, sizes: np.ndarray, beta2: float, k: int,
                     rank: int):
    """A thin factor X with ``S_hat_k ~= X X^T`` at the given rank, and the
    Ritz values of the whole block, descending (the first ``rank`` are the
    eigenvalues of ``X X^T``); None when there is no start block (see
    :func:`_start_block`: a negative entry, or all degrees equal).

    The recurrence runs on the factor (Browet & Van Dooren, MTNS 2014):
    with ``S_(j-1) ~= X X^T``, the iterate of depth j acts on a block V as

        S_j V = M (M^T V) + M^T (M V) + beta^2 F (F^T V),
        F = [M X, M^T X],

    at O(c^2 b) for a block of b = rank + ``_OVERSAMPLE`` columns, and X
    of ``S_j`` comes from subspace iteration (Halko, Martinsson & Tropp,
    SIAM Rev. 2011).  Each depth orthonormalizes the block, takes one
    power step ``V <- qr(S_j V)``, and then the Rayleigh-Ritz product
    ``Y = S_j V`` from ``M V`` and ``M^T V``; the top ``rank`` Ritz pairs
    ``(theta, V W)`` of ``V^T Y`` give X.  Three things are read off Y
    without another product with M: the Ritz pairs, the next
    ``F = [(M V) W_r sqrt(theta_r), (M^T V) W_r sqrt(theta_r)]``, and the
    next depth's block, ``Y`` itself, a power step already taken.  So a
    depth costs two block products, eight products with M.  Each product
    of M^T with a block B is formed as ``(B^T M)^T``, which streams M by
    rows: at c = 500 on 8 to 32 columns it took 0.67 to 0.79 of the time
    of ``M.T @ B`` (OpenBLAS 0.3.31, 2 Xeon cores).  Depth 1 starts from
    the block :func:`_start_block` grows from ``M sqrt(sizes)``.  The part
    of each iterate past the kept rank is dropped before the next depth,
    so X is the fixed-rank similarity, not a truncation of the exact one.
    """
    Y = _start_block(M, np.sqrt(sizes), rank + _OVERSAMPLE)
    if Y is None:
        return None

    def apply(V):   # S_j V, with F from the last factor, and M V and M^T V
        MV, MtV = M @ V, (V.T @ M).T
        return M @ MtV + (MV.T @ M).T + beta2 * (F @ (F.T @ V)), MV, MtV

    F = np.zeros((M.shape[0], 0))   # S_0 = 0, so S_1 = G[I]
    for _ in range(k):
        V = np.linalg.qr(apply(np.linalg.qr(Y)[0])[0])[0]
        Y, MV, MtV = apply(V)
        theta, W = _ritz(_sym(V.T @ Y))
        theta = np.maximum(theta, 0.0)
        W = W[:, :rank] * np.sqrt(theta[:rank])
        F = np.hstack([MV @ W, MtV @ W])
    return V @ W, theta
