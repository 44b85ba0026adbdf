"""Factored similarity S_k = U U^T, computed once from the dense recurrence.

Since ``S_k = G[X]`` with ``X = I + beta^2 S_{k-1}`` (``X = I`` at k = 1) and
``G[X] = A X A^T + A^T X A``, a Cholesky factor ``X = L L^T`` gives

    S_k = F F^T,   F = [ A L   A^T L ],

so the thin factor U is the compression of the stack F: orthogonalization
followed by an SVD, discarding singular values below ``trunc_tol`` times the
largest.  The truncation is applied once, to this final stack.  The factor
is taken from ``[A L, A^T L]`` and not from an eigendecomposition of S_k,
whose small eigenvalues are the squares of the factor's singular values and
lose half their digits.

The factor is a library output: role extraction
(:func:`rolekit.extract.extract_roles`) groups nodes on S_k itself and does
not call :func:`lowrank_iterate`, but both take S_k from the same solve,
with one beta^2 rule and one non-convergence state.
:func:`rolekit.extract.cluster_rows` groups the rows of a factor by the
same greedy scan.  :func:`estimate_rank` reads a role count off a
descending spectrum and serves both extraction and the spectrum report.

Structurally equivalent nodes are collapsed first: with c classes,
A = Q A_hat Q^T for the c x c quotient matrix A_hat and orthonormal Q
(:class:`rolekit.graphcore.Quotient`), so the dense recurrence runs on A_hat
and the factor is lifted back as U = Q U_hat, whose rows are equal within a
class.  A call costs k - 1 dense steps at O(c^3) each (or one O(c^3)
application of G per conjugate-gradient iteration at the fixed point), plus
one O(c^3) compression.  On an ideal graph c is the number of roles; on a
graph with no equivalent nodes (c = n, as on noisy graphs) the costs are
O(n^3).  On an ideal graph the kept rank never exceeds rank([A A^T]), and
the singular values of U are exactly those of S_k^(1/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphcore import as_adjacency
from .similarity import (DEFAULT_MAX_K, DEFAULT_TOL, _check_beta2, _check_solve,
                         _compress, _quotient_similarity)


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


def lowrank_iterate(A, beta2: float, k: int | None = None,
                    trunc_tol: float = 1e-10, tol: float = DEFAULT_TOL,
                    max_k: int = DEFAULT_MAX_K) -> LowRankState:
    """The thin factor U of the similarity S_k = U U^T at depth k.

    ``S_{k-1}`` comes from the quotient by structural equivalence by the
    same route as in ``extract_roles`` and ``spectrum_report``: k - 1 steps
    of :func:`rolekit.similarity.iterate`, or with ``k=None`` the
    conjugate-gradient solve of :func:`rolekit.similarity.fixed_point`,
    which stops once the true residual is at most ``tol`` relative to S
    (``k`` is then its iteration count, capped by ``max_k``).  The stack
    ``[A L, A^T L]`` with ``L L^T = I + beta^2 S_{k-1}`` is then compressed
    once (see the module docstring); k = 1 factors ``G[I]``.  Wherever S is
    used, a ``beta2`` at or above the admissible bound is rejected, and past
    ``max_k`` :class:`rolekit.similarity.NonConvergenceError` carries the
    n x n similarity state of the last CG iterate and its residual history,
    as from ``fixed_point``.  ``trunc_tol`` is a relative cutoff on the
    factor's singular values, applied once at the end: it keeps those at
    least ``trunc_tol`` times the largest.  Around 1e-10 it reproduces the
    exact rank on ideal graphs.  It is no rank cap: on 10%-flipped block
    cycles (measured from n = 40 to 2000) even 1e-3 keeps every rank.
    """
    A = as_adjacency(A)
    _check_beta2(beta2)
    if not 0.0 < trunc_tol < 1.0:
        raise ValueError("trunc_tol must lie strictly between 0 and 1")
    if k is not None and k < 1:
        raise ValueError("iteration depth k must be at least 1")
    if k is None:
        _check_solve(tol, max_k)
    quotient = A.quotient
    M = quotient.entries
    if not M.any():
        raise ValueError("low-rank iteration requires a nonzero adjacency matrix")
    L = np.eye(quotient.c)   # L L^T = I + beta^2 S_{k-1}, with S_0 = 0
    if k != 1:
        state = _quotient_similarity(A, beta2, None if k is None else k - 1, tol, max_k)
        L = np.linalg.cholesky(L + beta2 * state.S)
    U, sigma = _compress(np.hstack([M @ L, M.T @ L]), trunc_tol)
    return LowRankState(U=quotient.lift(U), k=state.k if k is None else k,
                        sigma=sigma, trunc_tol=trunc_tol)


def estimate_rank(sigma, gap_ratio: float, noise_floor: float = 1e-12) -> int:
    """Estimate the effective rank from a descending singular-value array.

    Scanning the consecutive ratios ``sigma[r] / sigma[r-1]``, the estimate
    is the position of the last ratio that drops below ``gap_ratio``: the
    boundary between the structured spectrum and the trailing noise floor.
    Values at or below ``noise_floor`` times the largest carry no rank
    information, so a drop between two of them never marks the boundary.
    Returns the full length when no ratio qualifies.
    """
    sig = np.asarray(sigma, dtype=float).ravel()
    if sig.size == 0:
        raise ValueError("estimate_rank needs at least one singular value")
    if (sig < 0).any():
        raise ValueError("singular values must be non-negative")
    floor = noise_floor * sig[0]
    best = None
    for r in range(1, sig.size):
        hi, lo = sig[r - 1], sig[r]
        if hi <= floor:
            break
        ratio = 1.0 if hi == 0.0 else lo / hi
        if ratio < gap_ratio:
            best = r
    return best if best is not None else sig.size
