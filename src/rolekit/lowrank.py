"""Factored similarity computation S_k = U U^T with rank truncation.

Because ``S_{k+1} = A A^T + A^T A + beta^2 (A U_k)(A U_k)^T
+ beta^2 (A^T U_k)(A^T U_k)^T`` whenever ``S_k = U_k U_k^T``, the iteration
can be carried entirely on a thin factor: stack the blocks

    [ U_1   beta A U_k   beta A^T U_k ]

(where U_1 U_1^T = A A^T + A^T A is the step-1 factor, compressed once from
thin SVD factors of A A^T and A^T A) and re-compress by orthogonalization
followed by an SVD, discarding singular values below ``trunc_tol`` times the
largest.

Structurally equivalent nodes are collapsed first: with c classes,
A = Q A_hat Q^T for the c x c quotient matrix A_hat and orthonormal Q
(:class:`rolekit.graphcore.Quotient`), so the recurrence runs on A_hat and
the factor is lifted back as U = Q U_hat, whose rows are equal within a
class.  The costs below are therefore in c, not n.  On an ideal graph c is
the number of roles; on a graph with no equivalent nodes (c = n, as on
noisy graphs) nothing changes.  A step costs O(c r^2) while the stack is
tall (3r <= c).  At full rank a step costs O(c^3): the stack is then wider
than tall and is compressed through the QR of its transpose, so that only a
c x c factor is decomposed.  On an ideal graph the kept rank never exceeds
rank([A A^T]), and the singular values of U are exactly those of S_k^(1/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphcore import as_adjacency
from .similarity import DEFAULT_MAX_K, DEFAULT_TOL, NonConvergenceError


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


def _compress(F: np.ndarray, trunc_tol: float):
    """Orthogonalize-then-SVD compression of a stacked factor.

    Returns (U, s) with U U^T ~= F F^T, s the kept singular values of F
    (those at least ``trunc_tol`` times the largest) and U / s orthonormal.
    A tall F is reduced to the small triangle R of F = Q R.  A wide F is
    reduced to the n x n triangle L = R^T of F^T = Q R, since F F^T = L L^T:
    the left singular factor and singular values of F are those of L, and no
    Q is needed.
    """
    wide = F.shape[1] > F.shape[0]
    if wide:
        R = np.linalg.qr(F.T, mode="r").T
    else:
        Q, R = np.linalg.qr(F)
    W, s, _ = np.linalg.svd(R)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((F.shape[0], 0)), s[:0]
    keep = s >= trunc_tol * s[0]
    U = W[:, keep] * s[keep]
    return (U if wide else Q @ U), s[keep]


def lowrank_iterate(A, beta2: float, k: int | None = None,
                    trunc_tol: float = 1e-10, tol: float = DEFAULT_TOL,
                    max_k: int = DEFAULT_MAX_K) -> LowRankState:
    """Run the factored similarity recurrence for k steps.

    With ``k=None`` the factor is iterated until its singular values settle
    to relative tolerance ``tol`` (requires admissible beta2; raises
    :class:`NonConvergenceError` past ``max_k`` steps).  ``trunc_tol`` is a
    relative cutoff on the factor's singular values: every step keeps those
    at least ``trunc_tol`` times the largest.  Around 1e-10 it reproduces the
    exact rank on ideal graphs.  It is no rank cap: on 10%-flipped block
    cycles (measured from n = 40 to 2000) even 1e-3 keeps every rank, r = n,
    and each step then costs O(n^3).  The work runs on the quotient by
    structural equivalence (see the module docstring), so with c classes of
    equivalent nodes read c for n in these costs.  Past ``max_k`` steps the
    error carries the relative change of the singular values at each step
    from step 2 on.
    """
    A = as_adjacency(A)
    if beta2 < 0:
        raise ValueError("beta2 must be non-negative")
    if not 0.0 < trunc_tol < 1.0:
        raise ValueError("trunc_tol must lie strictly between 0 and 1")
    if k is not None and k < 1:
        raise ValueError("iteration depth k must be at least 1")
    quotient = A.quotient
    M = quotient.entries
    W, s, Vt = np.linalg.svd(M)
    if s[0] == 0.0:
        raise ValueError("low-rank iteration requires a nonzero adjacency matrix")
    base_keep = s > trunc_tol * s[0]
    A1 = W[:, base_keep] * s[base_keep]      # A1 A1^T = A A^T
    A2 = Vt[base_keep].T * s[base_keep]      # A2 A2^T = A^T A
    b = np.sqrt(beta2)

    U1, sig = _compress(np.hstack([A1, A2]), trunc_tol)   # U1 U1^T = AA^T + A^TA
    U = U1
    if k == 1:
        return LowRankState(U=quotient.lift(U), k=1, sigma=sig, trunc_tol=trunc_tol)

    limit = max_k if k is None else k
    history = []
    for step in range(2, limit + 1):
        F = np.hstack([U1, b * (M @ U), b * (M.T @ U)])
        U_next, sig_next = _compress(F, trunc_tol)
        if k is None:
            width = max(sig.size, sig_next.size)
            a = np.zeros(width); a[:sig.size] = sig
            c = np.zeros(width); c[:sig_next.size] = sig_next
            change, size = np.linalg.norm(c - a), np.linalg.norm(a)
            history.append(change / size)
            if change <= tol * size:
                return LowRankState(U=quotient.lift(U_next), k=step, sigma=sig_next,
                                    trunc_tol=trunc_tol)
        U, sig = U_next, sig_next
    state = LowRankState(U=quotient.lift(U), k=limit, sigma=sig, trunc_tol=trunc_tol)
    if k is None:
        raise NonConvergenceError(
            f"factored similarity iteration did not converge within {max_k} steps",
            state=state, history=history)
    return state


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
