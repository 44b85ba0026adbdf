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
spectral radius is exposed as :func:`beta_bound`.  ``G`` maps positive
semi-definite matrices to positive semi-definite ones, so the radius is its
largest eigenvalue.  On at most 16 classes it is read off the Kronecker sum
directly; otherwise it is found by a power iteration on ``G``, as a thin
factor ``V V^T`` of rank r at O(n^2 r) a step, or on dense n x n iterates at
O(n^3) a step.  The factor starts from :func:`_start_block` grown from the
class degrees, as the thin similarity's start is, so no node order enters;
where there is no such start, it goes dense.

Finite depths (:func:`iterate`, :func:`pattern_counts`) run the recurrence.
The limit (:func:`fixed_point`) is found instead by solving the linear system
``(I - beta^2 G) S = G[I]`` with conjugate gradients: ``G`` is self-adjoint
in the Frobenius inner product with spectrum in ``[-rho, rho]``, so for
admissible ``beta^2`` the system is symmetric positive definite with
eigenvalues in ``[1 - beta^2 rho, 1 + beta^2 rho]``, and CG needs a few
operator applications where the recurrence needs one per factor of
``beta^2 rho`` in the error.  The solve runs in the eigenbasis of A's
symmetric part, where G splits into a Hadamard product and the two matrix
products of A's skew part, and the exact inverse of the first
preconditions it; it accepts its S in the node basis, on the true residual.

Every application of G in :func:`gamma`, the recurrence, the dense regime
of :func:`beta_bound` and the solve's true-residual check goes through one
kernel, :func:`_gamma_into`: four matrix products written into n x n
buffers the caller holds.  The solve allocates its seven n x n arrays once
and updates them in place.

The similarity solve stops by one rule: :data:`DEFAULT_TOL`, capped at
:data:`DEFAULT_MAX_K` steps (the cap of :func:`beta_bound`'s power iteration
too).  Both are read at call time, and no entry point takes either as an
argument.  A request (a damping and a depth) is checked by one function,
:func:`_check_request`, which :func:`fixed_point` and the commands' entry
points call before they touch the graph.  The commands reach the similarity
on the quotient by one route, :func:`_quotient_similarity`.

All matrices ``S_k`` are symmetric positive semi-definite, non-negative for
unsigned graphs, and share the column space of ``[A A^T]`` for every k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graphcore import Adjacency, Quotient, as_adjacency

#: default damping as a fraction of the admissible bound: beta^2 = 0.81 / rho
DEFAULT_BETA2_FRACTION = 0.81
#: the one stopping rule of the similarity solve, in every command: a true
#: residual of at most DEFAULT_TOL * ||S||_F, far below the last of the 9
#: significant digits the spectrum report prints of values spanning decades
DEFAULT_TOL = 1e-13
#: the step cap of the similarity solve and of beta_bound's power iteration
DEFAULT_MAX_K = 10000

# beta_bound: the relative change at which its estimate has settled, the
# largest part of G[X] (relative, Frobenius norm) its truncation may keep
# discarding, and the rank its thin factor starts at
_TOL = 1e-10
_DISCARD_TOL = 1e-6
_START_RANK = 8
#: the fraction of its norm below which a start column counts as dependent
_DEPENDENT_TOL = 1e-8


class NonConvergenceError(RuntimeError):
    """An iteration hit its step limit, :data:`DEFAULT_MAX_K` (read at call
    time); ``state`` holds the last iterate.

    There are two iterations, and each gives ``state`` and ``history`` one
    meaning.  The similarity solve (:func:`fixed_point`,
    :func:`scaled_fixed_point`, and ``extract_roles``, ``spectrum_report``
    and ``lowrank_iterate`` at the fixed point): the state is the n x n
    :class:`SimilarityState` of the last CG iterate, taken to the node
    basis as an accepted one is (symmetrized, and on a graph with no
    negative entry projected onto ``S >= 0``), and the history the
    relative residual after each CG iteration.  :func:`beta_bound`'s power
    iteration, which runs only on more than 16 classes: the state is the
    last estimate of rho, and the history the relative change of the
    estimate at each step after the first, in its factored and dense
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
    return _gamma_into(M, X, np.empty(M.shape), np.empty((2, *M.shape)), sym=False)


def _sym(S: np.ndarray) -> np.ndarray:
    return (S + S.T) / 2


def _gamma_into(M: np.ndarray, X: np.ndarray, out: np.ndarray, work: np.ndarray,
                sym: bool = True) -> np.ndarray:
    """``out = _sym(M X M^T + M^T X M)`` (without ``_sym`` when ``sym`` is
    false), written into caller-held memory: ``out`` and the two n x n
    buffers of ``work``.  ``out`` may be X itself, which is last read
    before ``out`` is first written.  The four products, their sum and the
    average with the transpose are those of ``_sym(gamma(A, X))``, in the
    same order, so the result equals it bit for bit, and no array is
    allocated."""
    a, b = work
    np.matmul(M, X, out=a)
    np.matmul(a, M.T, out=b)
    np.matmul(M.T, X, out=a)
    np.matmul(a, M, out=out)
    out += b
    if sym:
        np.add(out, out.T, out=a)
        np.divide(a, 2, out=out)
    return out


def _gamma_of_identity(A: Adjacency) -> np.ndarray:
    """G[I] = A A^T + A^T A, the common parents and children ``N_1``.

    numpy computes each product of a matrix with its own transpose by a
    symmetric rank-k update (BLAS ``syrk``), half the work of a general
    product, and each is exactly symmetric.  On graphs with integer
    entries it equals ``_sym(gamma(A, I))`` bit for bit.
    """
    M = A.entries
    return M @ M.T + M.T @ M


def _ritz(T: np.ndarray):
    """The eigenvalues and orthonormal eigenvectors W of the small symmetric
    matrix T, largest first: for ``T = F^T F`` the eigenvalues of ``F F^T``
    with its eigenvectors ``F W``, for ``T = V^T Y`` the Rayleigh-Ritz pairs
    of the operator that took V to Y."""
    w, W = np.linalg.eigh(T)
    return w[::-1], W[:, ::-1]


def _start_block(M: np.ndarray, v: np.ndarray, width: int) -> np.ndarray | None:
    """An orthonormal c x ``width`` basis of the block Krylov space of
    ``G[I] = M M^T + M^T M`` grown from ``[M v, M^T v]``, skipping a column
    left with at most ``_DEPENDENT_TOL`` of its norm by Gram-Schmidt (run
    twice), as ``M^T v`` is on a symmetric M.  None when the space has
    fewer dimensions (one when all degrees are equal) or M has a negative
    entry: only on M >= 0 does the block reach G's top eigenvector
    (Perron-Frobenius); a sign-flipping symmetry can hide it.  With v = 1
    (:func:`beta_bound`) or the square roots of the class sizes (the thin
    similarity), ``M v`` and ``M^T v`` are degrees: no node order enters."""
    if (M < 0).any():
        return None
    basis = np.empty((M.shape[0], width))
    front, j = np.column_stack([M @ v, M.T @ v]), 0
    while front.shape[1]:
        grown = j
        for y in front.T:
            Q = basis[:, :j]
            r = y - Q @ (Q.T @ y)
            r -= Q @ (Q.T @ r)
            if np.linalg.norm(r) > _DEPENDENT_TOL * np.linalg.norm(y):
                basis[:, j] = r / np.linalg.norm(r)
                j += 1
                if j == width:
                    return basis
        P = basis[:, grown:j]
        front = M @ (M.T @ P) + M.T @ (M @ P)
    return None


def beta_bound(A) -> float:
    """Spectral radius of X -> A X A^T + A^T X A (equals rho(A(x)A + A^T(x)A^T)).

    The admissible damping region is ``beta^2 < 1 / beta_bound(A)``.  The
    radius is computed on the quotient of A by structural equivalence
    (:attr:`Adjacency.quotient`, c classes): the operator's nonzero
    eigenvectors lie in ``Q X Q^T``, where it acts as the same operator on
    the c x c quotient matrix A_hat.  G maps positive semi-definite
    matrices to positive semi-definite ones, so rho is its largest
    eigenvalue, and it has a positive semi-definite eigenvector.

    On at most 16 classes (``c <= 2r`` for the start rank r = 8 below) rho
    is the largest eigenvalue of the c^2 x c^2 symmetric matrix
    ``A_hat (x) A_hat + A_hat^T (x) A_hat^T``, by ``eigvalsh``, with no
    iteration.  On more classes it comes from a deterministic power
    iteration on symmetric matrices, normalized in Frobenius norm each
    step.  Its estimate is ``||G[X]||_F`` for the unit iterate X, a lower
    bound on rho at every step, and it stops once the estimate settles:
    its relative change from the step before is at most 1e-10.  It has two
    regimes:

    - Factored, while 2r < c for a rank r that starts at 8: the iterate is
      a thin factor ``X = V V^T``.  Since ``G[V V^T] = F F^T`` for
      ``F = [A_hat V, A_hat^T V]``, a step costs O(c^2 r): form F, take the
      eigenvalues of ``F F^T`` and its eigenvectors ``F W`` from the
      2r x 2r Gram matrix ``F^T F = W diag(w) W^T`` (:func:`_ritz`), and
      keep the top r.  It starts from the unit projector ``V V^T / sqrt(8)``
      onto the c x 8 block V of :func:`_start_block` grown from the class
      degrees ``[A_hat 1, A_hat^T 1]``, as the thin similarity does.  The
      part of ``G[X]`` a step discards, relative in Frobenius norm, is the
      floor the truncation puts under the residual ``||G[X] - rho_hat X||``;
      it moves the estimate by about its square over the relative spectral
      gap.  When it exceeds 1e-6 and has not halved since the step before,
      r doubles.
    - Dense, once r has doubled to 2r >= c, or from the first step where
      there is no start block (A_hat has a negative entry, or all degrees
      are equal): the c x c iterate from the unit ``I_c / sqrt(c)``, which
      overlaps every positive semi-definite eigenvector, at O(c^3) a step,
      updated in place by :func:`_gamma_into` with two c x c buffers
      allocated once.

    No regime reads n or the node order, so on a graph with entries in
    {-1, 0, 1} (whose A_hat has no two equivalent classes) rho on A is rho
    on A_hat, bit for bit.

    rho lies between ``2 ||A_hat||_F^2 / c`` (the Rayleigh quotient of
    ``I_c``) and ``2 ||A_hat||_F^2``.  Where that bracket leaves the normal
    doubles (the upper overflows, or the lower is below the smallest
    normal double), rho cannot be shown to lie within them, and
    ``ValueError`` is raised before any regime runs.  The check is
    conservative: it can reject a graph whose rho is a normal double.

    After ``DEFAULT_MAX_K`` steps in all (read at call time),
    :class:`NonConvergenceError` carries the last estimate and, from the
    second step on, the relative change of the estimate at each step.  The
    dense regime's estimates start afresh, so its first step is not tested
    against the last factored estimate, but its history entry is that
    change.
    """
    A = as_adjacency(A)
    quotient = A.quotient
    M = quotient.entries
    if not M.any():
        raise ValueError("beta_bound requires a nonzero adjacency matrix")
    top = 2.0 * float(np.vdot(M, M))   # rho lies in [top / c, top]
    if not (top < np.inf and top / quotient.c >= np.finfo(float).tiny):
        raise ValueError(f"edge weights out of range: 2 ||A_hat||_F^2 = {top:g} on "
                         f"{quotient.c} classes does not bound rho within the normal doubles")
    rank = _START_RANK
    if quotient.c <= 2 * rank:
        return float(np.linalg.eigvalsh(np.kron(M, M) + np.kron(M.T, M.T))[-1])
    history, estimate, steps, last_discarded = [], 0.0, 0, np.inf
    V = _start_block(M, np.ones(quotient.c), rank)   # None: dense from the start
    if V is not None:
        V /= rank ** 0.25   # V V^T of unit Frobenius norm
    while V is not None and 2 * rank < quotient.c and steps < DEFAULT_MAX_K:
        steps += 1
        F = np.hstack([M @ V, M.T @ V])   # G[V V^T] = F F^T
        power, W = _ritz(F.T @ F)
        norm = float(np.linalg.norm(power))
        if estimate > 0.0:
            history.append(abs(norm - estimate) / estimate)
            if history[-1] <= _TOL:
                return norm
        discarded = float(np.linalg.norm(power[rank:])) / norm
        if discarded > _DISCARD_TOL and 2.0 * discarded > last_discarded:
            rank *= 2
        V = F @ W[:, :rank] / np.sqrt(np.linalg.norm(power[:rank]))
        estimate, last_discarded = norm, discarded
    X = np.eye(quotient.c) / np.sqrt(quotient.c)
    work = np.empty((2, quotient.c, quotient.c))
    last = 0.0
    while steps < DEFAULT_MAX_K:
        steps += 1
        norm = float(np.linalg.norm(_gamma_into(M, X, X, work)))
        if norm == 0.0:
            raise ValueError("similarity operator annihilated the power iterate")
        if estimate > 0.0:
            history.append(abs(norm - estimate) / estimate)
        if abs(norm - last) <= _TOL * last:
            return norm
        X /= norm
        last = estimate = norm
    raise NonConvergenceError(
        f"power iteration for the spectral radius did not settle "
        f"(last estimate {estimate})", state=estimate, history=history)


def _check_request(beta2: float | None, k: int | None = 1,
                   trunc_tol: float | None = None) -> None:
    """Reject a request that no graph could make valid: a ``beta2`` (None
    for the default) that is negative, infinite or NaN, a depth ``k`` (None
    for the fixed point) below 1, and a ``trunc_tol`` (None where it is not
    used) outside (0, 1).  NaN fails every test.  It reads no graph, so
    each entry point calls it first.  The stopping rule is no part of a
    request: every solve reads :data:`DEFAULT_TOL` and
    :data:`DEFAULT_MAX_K`."""
    if beta2 is not None and not 0.0 <= beta2 < np.inf:
        raise ValueError(f"beta2 must be finite and non-negative, got {beta2!r}")
    if k is not None and not k >= 1:
        raise ValueError("iteration depth k must be at least 1")
    if trunc_tol is not None and not 0.0 < trunc_tol < 1.0:
        raise ValueError("trunc_tol must lie strictly between 0 and 1")


def resolve_beta2(A, beta2: float | None) -> float:
    """The damping to use on ``A``: ``None`` selects the default 0.81 / rho
    for the radius rho of :func:`beta_bound`.  A ``beta2`` that is negative,
    infinite or NaN is rejected before ``rho`` is computed, and one at or
    above the admissible bound ``1 / rho`` after.
    """
    _check_request(beta2)
    rho = beta_bound(A)
    if beta2 is None:
        return DEFAULT_BETA2_FRACTION / rho
    if beta2 * rho >= 1.0:
        raise ValueError(
            f"beta2 = {beta2:g} is at or above the admissible bound 1/rho = {1.0 / rho:g}")
    return beta2


def default_beta2(A) -> float:
    """The toolkit default damping: beta^2 = 0.81 / beta_bound(A)."""
    return resolve_beta2(A, None)


def iterate(A, beta2: float, k: int) -> SimilarityState:
    """Run exactly ``k`` steps of the similarity recurrence.

    Only a finite non-negative ``beta2`` is accepted, but no admissibility
    check is made, so this can be used to observe divergence for damping
    above the bound.
    """
    if beta2 is None:
        raise TypeError("iterate needs a damping beta2; see resolve_beta2")
    _check_request(beta2, k)
    A = as_adjacency(A)
    S = _gamma_of_identity(A)
    work = np.empty((2, A.n, A.n))
    for _ in range(k - 1):
        S *= beta2
        S.flat[::A.n + 1] += 1.0
        _gamma_into(A.entries, S, S, work)
    return SimilarityState(S=S, k=k, beta2=beta2, converged=False)


def fixed_point(A, beta2: float | None = None) -> SimilarityState:
    """The fixed point S = G[I + beta^2 S], solved by conjugate gradients.

    The request is checked before A is read.  ``beta2`` defaults to
    0.81 / beta_bound(A) and is rejected at or above the admissible bound
    before any iteration.  Preconditioned CG on ``(I - beta^2 G) S = G[I]``
    runs in the eigenbasis of A's symmetric part (see :func:`_fixed_point`)
    and stops once its residual is at most ``DEFAULT_TOL * ||S||_F``; S is
    then taken to the node basis and symmetrized, and on a graph with no
    negative entry projected onto ``S >= 0``, where the exact S lies.  The
    residual is recomputed from that S directly, so the result is exactly
    symmetric and satisfies ``||S - G[I + beta^2 S]||_F <= DEFAULT_TOL
    ||S||_F``.  Where the exact S is 0 (as it is on the null space of
    ``A A^T + A^T A``), S holds rounding of order ``eps ||S||_F``.  ``k``
    is the number of CG iterations, each one application of G; on an
    undirected graph it is 1.  After ``DEFAULT_MAX_K`` of them (both
    constants read at call time) :class:`NonConvergenceError` carries the
    last state and the relative residual after each iteration.
    """
    _check_request(beta2, None)
    A = as_adjacency(A)
    return _fixed_point(A, resolve_beta2(A, beta2), DEFAULT_TOL, DEFAULT_MAX_K)


def _quotient_graph(A: Adjacency) -> Adjacency:
    """The quotient of A by structural equivalence as a graph: A itself
    when no two nodes are equivalent.  Its own quotient keeps A's c
    classes, also where a weighted A_hat has two equivalent classes (as
    one node joined by weight 2 and a class of four joined by weight 1
    do), so :func:`beta_bound` reads one matrix on both: the damping
    :func:`fixed_point` resolves on it is the one on A, bit for bit."""
    quotient = A.quotient
    if quotient.c == A.n:
        return A
    graph = Adjacency.from_matrix(quotient.entries)
    classes = np.arange(quotient.c)
    object.__setattr__(graph, "quotient", Quotient(classes, classes, np.ones_like(classes),
                                                   graph.entries))
    return graph


def _quotient_similarity(A: Adjacency, beta2: float | None,
                         k: int | None) -> SimilarityState:
    """The similarity at depth k on the quotient of A by structural
    equivalence: the c x c matrix S_hat with ``S_k = Q S_hat Q^T`` (see
    :class:`rolekit.graphcore.Quotient`).  This is the one route from a
    command to S_hat, and the one caller of :func:`iterate` and
    :func:`fixed_point` on the quotient graph, so every command sees the
    same S_hat at a given depth.  The caller has checked the request.  At
    a finite k, ``beta2`` is the damping :func:`resolve_beta2` returned on
    A.  At ``k=None`` it is the request's (None for the default), which
    :func:`fixed_point` resolves on A_hat, to its value on A (see
    :func:`_quotient_graph`), and solves by its one stopping rule; its
    :class:`NonConvergenceError` carries the last iterate lifted to the
    n x n similarity ``Q S_hat Q^T``, with the solve's history; the one
    :func:`beta_bound` raises passes unchanged."""
    if k is not None:
        return iterate(_quotient_graph(A), beta2, k)
    try:
        return fixed_point(_quotient_graph(A), beta2)
    except NonConvergenceError as exc:
        if not isinstance(exc.state, SimilarityState):
            raise   # beta_bound's, carrying its estimate of rho
        lift = A.quotient.lift
        state = replace(exc.state, S=lift(lift(exc.state.S).T))
        raise NonConvergenceError(str(exc), state=state, history=exc.history) from None


def _residual(M: np.ndarray, beta2: float, S: np.ndarray, out: np.ndarray,
              work: np.ndarray) -> np.ndarray:
    """G[I + beta^2 S] - S, the fixed-point residual computed from S itself,
    written into ``out`` with the buffers of :func:`_gamma_into`."""
    np.multiply(S, beta2, out=out)
    out.flat[::M.shape[0] + 1] += 1.0
    _gamma_into(M, out, out, work)
    out -= S
    return out


def _preconditioner(d: np.ndarray, two_beta2: float, out: np.ndarray) -> np.ndarray:
    """``out = H = 1 - 2 beta^2 d d^T``: in the eigenbasis of the symmetric
    part of A (eigenvalues d), the symmetric part of ``I - beta^2 G`` acts
    as the Hadamard product with H."""
    np.multiply.outer(-two_beta2 * d, d, out=out)
    out += 1.0
    return out


def _to_nodes(V: np.ndarray, S: np.ndarray, out: np.ndarray, work: np.ndarray,
              nonneg: bool) -> np.ndarray:
    """``S = _sym(V S V^T)``, in place, through ``out`` and ``work``; on a
    graph with no negative entry then projected onto ``S >= 0``, the cone
    that holds the exact fixed point."""
    np.matmul(V, S, out=work)
    np.matmul(work, V.T, out=out)
    np.add(out, out.T, out=S)
    S /= 2
    if nonneg:
        np.maximum(S, 0.0, out=S)
    return S


def _fixed_point(A: Adjacency, beta2: float, tol: float, max_k: int) -> SimilarityState:
    """Preconditioned CG on (I - beta^2 G) S = G[I] from S = 0, for an
    admissible beta2, run in the eigenbasis of A's symmetric part.

    With ``Ms = (A + A^T)/2 = V diag(d) V^T``, ``Mk = (A - A^T)/2`` and the
    skew-symmetric ``K = V^T Mk V``, ``G[X] = 2 (Ms X Ms - Mk X Mk)`` becomes
    ``G'[X'] = 2 (d d^T o X' - K X' K)`` on ``X' = V^T X V``: a step costs
    the two products of ``K X' K`` where G takes four.  The right-hand side
    is ``G'[I] = 2 diag(d^2) + 2 K K^T``.  The Frobenius inner product does
    not change under ``X -> V^T X V``, so this is the same CG problem in
    another basis.  It is preconditioned by the exact inverse of the
    symmetric part: division by ``H = 1 - 2 beta^2 d_i d_j``
    (:func:`_preconditioner`), positive because ``2 d_i^2`` is the Rayleigh
    quotient of G at ``v_i v_i^T``, so ``2 beta^2 |d_i d_j| <= beta^2 rho
    < 1``.  On an undirected graph K = 0, and one step solves it.

    The solve is scale-free: it runs on ``2^-e A`` for ``||A||_F = m 2^e``
    (``1/2 <= m < 1``) with ``4^e beta^2``, and returns ``4^e`` times its
    S; each scaling is by a power of two, so exact.

    The updated residual drifts from the true one by rounding, and V is
    orthogonal only to rounding.  So once ``||R'||_F <= tol ||S'||_F`` the
    iterate is taken to the nodes, ``S = _sym(V S' V^T)``, projected onto
    ``S >= 0`` where A has no negative entry (:func:`_to_nodes`), and
    accepted only if the true residual ``||G[I + beta^2 S] - S||_F`` of
    :func:`_residual` is at most ``tol ||S||_F``; else CG restarts from
    that residual and S, taken back to the eigenbasis.  The history holds
    the relative residual after each step, the true one after a check.

    The solve holds seven c x c arrays, allocated after ``eigh`` returns
    and updated in place: V, K, S, the residual R, the direction P, its
    image Q and one buffer for ``K P``, H, the preconditioned residual,
    ``alpha P``, ``alpha Q`` and the scaled A of the true-residual check.
    """
    M = A.entries
    nonneg = not (M < 0).any()
    e = int(np.frexp(np.linalg.norm(M))[1])   # ||2^-e M||_F in [1/2, 1)
    beta2_scaled = float(np.ldexp(beta2, 2 * e))
    two_beta2 = 2.0 * beta2_scaled
    Ms = np.add(M, M.T)
    d, V = np.linalg.eigh(np.ldexp(Ms, -e - 1, out=Ms))
    del Ms
    K = np.subtract(M, M.T)
    work = V.T @ np.ldexp(K, -e - 1, out=K)   # V^T Mk
    np.matmul(work, V, out=K)
    R = K @ K.T   # the right-hand side, and the residual at S = 0
    R.flat[::A.n + 1] += d * d
    R *= 2.0
    S = np.zeros_like(R)
    P = np.divide(R, _preconditioner(d, two_beta2, work))
    Q = np.empty_like(R)
    rz = np.vdot(R, P)
    history = []
    for k in range(1, max_k + 1):
        np.matmul(K, P, out=work)
        np.matmul(work, K, out=Q)
        Q *= two_beta2
        Q += np.multiply(_preconditioner(d, two_beta2, work), P, out=work)
        alpha = rz / np.vdot(P, Q)
        S += np.multiply(P, alpha, out=work)
        R -= np.multiply(Q, alpha, out=work)
        history.append(np.linalg.norm(R) / np.linalg.norm(S))
        if history[-1] <= tol:
            _to_nodes(V, S, Q, work, nonneg)
            _residual(np.ldexp(M, -e, out=work), beta2_scaled, S, R, (P, Q))
            history[-1] = np.linalg.norm(R) / np.linalg.norm(S)
            if history[-1] <= tol:
                return SimilarityState(S=np.ldexp(S, 2 * e, out=S), k=k, beta2=beta2,
                                       converged=True)
            for X in (S, R):
                np.matmul(V.T, X, out=work)
                np.matmul(work, V, out=X)
            np.divide(R, _preconditioner(d, two_beta2, work), out=P)
            rz = np.vdot(R, P)
            continue
        np.divide(R, _preconditioner(d, two_beta2, work), out=work)
        rz_next = np.vdot(R, work)
        P *= rz_next / rz
        P += work
        rz = rz_next
    _to_nodes(V, S, Q, work, nonneg)
    raise NonConvergenceError(
        f"similarity solve did not converge within {max_k} iterations",
        state=SimilarityState(S=np.ldexp(S, 2 * e, out=S), k=max_k, beta2=beta2,
                              converged=False),
        history=history)


def pattern_counts(A, ell_max: int) -> list[PatternCount]:
    """Common-target counts N_1 .. N_ell_max of the neighborhood patterns."""
    A = as_adjacency(A)
    if ell_max < 1:
        raise ValueError("ell_max must be at least 1")
    out = []
    N = _gamma_of_identity(A)
    out.append(PatternCount(N=N, ell=1))
    work = np.empty((2, A.n, A.n))
    for ell in range(2, ell_max + 1):
        N = _gamma_into(A.entries, N, np.empty_like(N), work)
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
    conjugated by D.  The request is checked before A_W is read.
    """
    _check_request(beta2, k)
    d, base = _weighted_parts(A_W, d)
    return _conjugate(iterate(base, beta2, k), d)


def scaled_fixed_point(A_W, d, beta2: float | None = None) -> SimilarityState:
    """Fixed point of the weighted-graph recurrence: D S_inf D.

    ``S_inf`` is :func:`fixed_point` of the binary base graph A, so ``beta2``
    is resolved against A, and its stopping rule applies to the solve on A.
    The request is checked before A_W is read.  The solve's
    :class:`NonConvergenceError` carries ``D S D`` of its last iterate.
    """
    _check_request(beta2, None)
    d, base = _weighted_parts(A_W, d)
    beta2 = resolve_beta2(base, beta2)
    try:
        state = _fixed_point(base, beta2, DEFAULT_TOL, DEFAULT_MAX_K)
    except NonConvergenceError as exc:
        raise NonConvergenceError(
            f"weighted {exc}", state=_conjugate(exc.state, d),
            history=exc.history) from None
    return _conjugate(state, d)


def _conjugate(state: SimilarityState, d: np.ndarray) -> SimilarityState:
    return replace(state, S=d[:, None] * state.S * d[None, :])
