"""Role recovery: the classes of an ideal graph, or k-means on similarity rows.

The similarity S_k is positive semi-definite, so S_k = X X^T for a factor X,
and whatever the factor, the cosine between its rows i and j is
``S_ij / sqrt(S_ii S_jj)``.  Extraction reads the role matrix off the block
densities of the adjacency matrix and scores a model with the squared
Frobenius cost ``||A - (PZ) B (PZ)^T||_F^2``.

Everything runs on the quotient by structural equivalence
(:class:`rolekit.graphcore.Quotient`), where S_k is the c x c matrix
``S_hat = Q^T S_k Q`` with the factor ``Q^T X``: the nodes of one class
have parallel rows, so they always share a label, and each class counts
with its size.  The block densities and the cost are read off the quotient
too: the nodes of one class have equal rows and columns of A, so the block
sums are ``W_c^T A[first, first] W_c``, with ``W_c[a, role]`` the size of
class a, and ``||A||^2`` sums ``s_a s_b A[first_a, first_b]^2``.  Once the
quotient is built, extraction reads only the c x c entries ``A[first, first]``
of the n x n matrix, on a checkerboard signed graph too, whose cost is that
of |A|.

One rule picks the model.  A model of cost 0 gives the nodes of one role
equal rows and columns of A, so each of its roles is one class: on an ideal
graph the classes are the roles, and the class partition is kept when it
is exact with a compressive role count, without computing any similarity.
Otherwise extraction sweeps candidate role counts around the gap in the
spectrum of S_k with a deterministic spherical k-means on the unit rows of
a factor (Dhillon, Guan & Kulis, KDD 2004), run from a few seeds, and
keeps the smallest count whose cost is within 5% of the best.

Only the sweep builds a factor, by one of two routes.  At a finite depth,
on a quotient of more than 2b classes (a block of b = r + 8 columns for a
rank r from 8), it is the thin similarity ``S_hat_k ~= X X^T`` of rank r
(:func:`rolekit.lowrank._thin_similarity`), at O(c^2 b) a product, and no
c x c matrix is formed.  Otherwise (fewer classes, no start block, or the
fixed point) it comes from the stack
``F = [A_hat L, A_hat^T L]``, ``S_hat_k = F F^T``, that
:func:`rolekit.lowrank.lowrank_iterate` compresses.
Checkerboard signed graphs are extracted through |A|, with the signs
reattached to the indicator matrix afterwards.  :func:`cluster_rows` groups
the rows of a factor on the nodes greedily by angle; extraction reads no
angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphcore import (
    SIGNED,
    Assignment,
    RoleMatrix,
    _merge_equivalent_roles,
    as_adjacency,
    checkerboard_signature,
)
from .lowrank import (
    _OVERSAMPLE,
    DEFAULT_GAP_RATIO,
    LowRankState,
    _similarity_stack,
    _thin_similarity,
    estimate_rank,
)
from .similarity import _START_RANK, _check_request, resolve_beta2

DEFAULT_ANGLE_TOL = 1e-6
DEFAULT_DEPTH = 6

#: a row of the factor counts as zero at or below this fraction of the
#: largest row norm (its squared norm is the node's diagonal entry of S);
#: :func:`cluster_rows` leaves such a node unassigned
_ZERO_ROW_RTOL = 1e-12

#: the sweep runs k-means from this many seeds per role count, the classes
#: with the largest diagonal entries of S, and keeps the cheapest model
_SWEEP_STARTS = 4


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Outcome of a role extraction run."""

    q_est: int
    assignment: Assignment
    B: RoleMatrix
    residual: float
    unassigned: list[int]
    params: dict

    def to_json_dict(self) -> dict:
        return {
            "q": self.q_est,
            "sigma": [int(v) for v in self.assignment.sigma],
            "B": [int(v) for v in self.B.entries.ravel()],
            "residual": float(self.residual),
            "unassigned": list(self.unassigned),
            "params": self.params,
        }


@dataclass(frozen=True, eq=False)
class SignedRoleSplit:
    """Signed generalized role structure after splitting mixed-sign roles.

    ``B_hat = Z_hat B Z_hat^T`` has entries in {-1,0,1}; ``Z_hat`` maps each
    signed sub-role to (sign, original role); ``assignment`` places every
    node in its sub-role with the sign absorbed into B_hat.
    """

    B_hat: np.ndarray
    Z_hat: np.ndarray
    assignment: Assignment


def _normalized_rows(U: np.ndarray):
    """Unit rows of U, and the mask of its zero rows (norm at most
    ``_ZERO_ROW_RTOL`` times the largest), which stay zero."""
    U = np.asarray(U, dtype=float)
    norms = np.linalg.norm(U, axis=1)
    zero = norms <= _ZERO_ROW_RTOL * (norms.max() if norms.size else 0.0)
    rows = np.divide(U, norms[:, None], out=np.zeros_like(U), where=~zero[:, None])
    return rows, zero


def cluster_rows(U, angle_tol: float = DEFAULT_ANGLE_TOL) -> Assignment:
    """Group the rows of a factor into clusters of nearly-parallel vectors.

    Rows are scanned in node order; each joins the earliest-created cluster
    whose representative lies within ``angle_tol`` of its line (the angle
    between lines is the smaller of the two angles between the vectors),
    else founds a new cluster.  Cluster labels are thus ordered by first
    node index.  Zero rows (disconnected nodes) are left unassigned.  On
    the factor of an ideal graph the clusters are its classes of
    structurally equivalent nodes, the model :func:`extract_roles` keeps
    there without reading a row.
    """
    U = U.U if isinstance(U, LowRankState) else np.asarray(U, dtype=float)
    rows, zero = _normalized_rows(U)
    sigma = -np.ones(U.shape[0], dtype=int)
    reps = []
    for i in np.flatnonzero(~zero):
        angles = np.arccos(np.clip(np.abs(rows[reps] @ rows[i]), 0.0, 1.0))
        hits = np.flatnonzero(angles <= angle_tol)
        if hits.size:
            sigma[i] = hits[0]
        else:
            sigma[i] = len(reps)
            reps.append(i)
    return Assignment(sigma)


def reconstruct_B(A, assignment: Assignment) -> RoleMatrix:
    """Read the role matrix off block densities: B_IJ = 1 iff the block sum
    exceeds half the block size (exact ties resolve to 0)."""
    A = as_adjacency(A)
    sizes = _role_sizes(A, assignment)
    if (sizes == 0).any():
        raise ValueError("every role must own at least one node")
    W = np.zeros((A.n, assignment.q))
    nodes = np.flatnonzero(assignment.sigma >= 0)
    W[nodes, assignment.sigma[nodes]] = 1.0
    return _densest(W.T @ A.entries @ W, sizes)


def extraction_cost(A, assignment: Assignment, B: RoleMatrix) -> float:
    """Squared Frobenius cost ||A - W B W^T||_F^2 of a role model.

    W = PZ is the n x q indicator (signed when the assignment has signs),
    with zero rows for unassigned nodes.  The cost is read off block sums,

        ||A||^2 - 2 <B, W^T A W> + <B o B, s s^T>,   s the role sizes,

    without forming the n x n ideal matrix.  On an integer-valued graph
    every term is an integer, so the cost is exact; otherwise the terms
    cancel to within rounding of ||A||^2, and a negative result is
    clipped to 0.
    """
    A = as_adjacency(A)
    sizes = _role_sizes(A, assignment)
    M = A.entries
    W = assignment.membership()
    return _cost(np.vdot(M, M), W.T @ M @ W, B, sizes)


def _role_sizes(A, assignment: Assignment) -> np.ndarray:
    if assignment.n != A.n:
        raise ValueError("assignment length does not match the graph")
    return assignment.sizes()


def _densest(block_sums: np.ndarray, sizes: np.ndarray) -> RoleMatrix:
    """:func:`reconstruct_B` from the block sums W^T A W."""
    half = np.outer(sizes, sizes) / 2.0
    return RoleMatrix((block_sums > half).astype(float))


def _cost(norm2: float, block_sums: np.ndarray, B: RoleMatrix,
          sizes: np.ndarray) -> float:
    """:func:`extraction_cost` from ||A||^2 and the block sums W^T A W."""
    sizes = sizes.astype(float)
    cost = norm2 - 2.0 * np.vdot(B.entries, block_sums) + sizes @ B.entries**2 @ sizes
    return max(float(cost), 0.0)


def _class_graph(A):
    """``A[first, first]``, the graph on the first node of each class of the
    quotient of A, and ``||A||^2 = sum_ab s_a s_b A[first_a, first_b]^2``
    for the class sizes s: O(c^2), and exact on an integer-valued graph.
    When no two nodes are equivalent, they are A itself, read in place,
    and ``np.vdot(A, A)``."""
    quotient = A.quotient
    M = A.entries
    if quotient.c == A.n:
        return M, np.vdot(M, M)
    base = M[np.ix_(quotient.first, quotient.first)]
    return base, quotient.sizes @ (base * base) @ quotient.sizes


def _role_model(base: np.ndarray, norm2: float, class_sizes: np.ndarray,
                roles: np.ndarray):
    """``reconstruct_B`` and ``extraction_cost`` of the unsigned assignment
    that puts the nodes of class a in role ``roles[a]`` (-1: unassigned),
    every role owning a class, from one block-sum product on the classes.

    ``base`` and ``norm2 = ||A||^2`` come from :func:`_class_graph`.  The
    block sums ``W^T A W`` are ``W_c^T base W_c`` with
    ``W_c[a, roles[a]] = class_sizes[a]``; when no two nodes are
    equivalent, ``base`` is A and ``W_c`` the node indicator W.
    """
    W = np.zeros((roles.size, int(roles.max()) + 1))
    assigned = np.flatnonzero(roles >= 0)
    W[assigned, roles[assigned]] = class_sizes[assigned]
    sizes = W.sum(axis=0)
    block_sums = W.T @ base @ W
    B = _densest(block_sums, sizes)
    return B, _cost(norm2, block_sums, B, sizes)


def split_signed_roles(assignment: Assignment, B: RoleMatrix) -> SignedRoleSplit:
    """Split every mixed-sign role in two, absorbing signs into the role level.

    Each role whose sign column holds both +1 and -1 becomes a (+) and a (-)
    sub-role; the generalized role matrix ``B_hat = Z_hat B Z_hat^T`` then
    reconstructs the signed graph from the unsigned sub-role indicator.  The
    sub-role count is at most 2q.
    """
    signs = assignment.signs
    if signs is None:
        signs = np.ones(assignment.n)
    q = assignment.q
    rows: list[tuple[int, float]] = []       # (role, sign) per sub-role
    sub_of: dict[tuple[int, float], int] = {}
    for role in range(q):
        members = np.flatnonzero(assignment.sigma == role)
        present = sorted(set(signs[members]), reverse=True)  # +1 before -1
        for s in present:
            sub_of[(role, s)] = len(rows)
            rows.append((role, s))
    Z_hat = np.zeros((len(rows), q))
    for idx, (role, s) in enumerate(rows):
        Z_hat[idx, role] = s
    B_hat = Z_hat @ B.entries @ Z_hat.T
    sigma_hat = np.empty(assignment.n, dtype=int)
    sigma_hat.fill(-1)
    for i in range(assignment.n):
        role = assignment.sigma[i]
        if role >= 0:
            sigma_hat[i] = sub_of[(role, signs[i])]
    return SignedRoleSplit(B_hat=B_hat, Z_hat=Z_hat,
                           assignment=Assignment(sigma_hat))


def _farthest_first(R: np.ndarray, start: int, q: int) -> list[int]:
    """q seeds among the unit rows of R, chosen farthest-first from row
    ``start``: each next seed is the row whose largest cosine to the seeds
    so far is least, the lowest index among equals.  A choice never reads
    q, so the seeds for a smaller count are a prefix of these."""
    seeds = [start]
    near = R @ R[start]
    while len(seeds) < min(q, R.shape[0]):
        far = int(np.argmin(near))
        seeds.append(far)
        np.maximum(near, R @ R[far], out=near)
    return seeds


def _spherical_kmeans(R: np.ndarray, weights: np.ndarray, seeds: list[int],
                      max_iter: int = 100) -> np.ndarray:
    """Deterministic spherical k-means of the unit rows of R, one cluster
    per seed row (from :func:`_farthest_first`).

    Row a counts ``weights[a]`` times.  A center is the normalized weighted
    sum of its members, so the cosines to the centers are ``R C^T / |C|``
    for the weighted sums ``C = Z^T R`` (Z the weighted membership matrix),
    at O(m r q) a step for m rows of length r.  Lloyd updates follow from
    the seeds, a cluster left empty is reseeded with the row its center
    serves worst, and the loop returns as soon as the labels repeat,
    before a center update that nothing would read.  Every tie goes to the
    lowest index: among equally close centers (numbered in seed order) and
    among equally badly served rows when reseeding.  Returns one label per
    row, the number of its center.
    """
    m, q = R.shape[0], len(seeds)
    sims = R @ R[seeds].T
    rows = np.arange(m)
    labels = np.zeros(m, dtype=int)
    for _ in range(max_iter):
        new = np.argmax(sims, axis=1)
        if np.bincount(new, minlength=q).min() == 0:
            for label in range(q):
                if not (new == label).any():
                    new[int(np.argmin(sims[rows, new]))] = label
        if np.array_equal(new, labels):
            break
        labels = new
        Z = np.zeros((m, q))
        Z[rows, new] = weights
        C = Z.T @ R
        norms = np.linalg.norm(C, axis=1)
        sims = (R @ C.T) / np.where(norms > 0.0, norms, 1.0)
    return labels


def _gap_estimate(w: np.ndarray, c: int, trunc_tol: float) -> int:
    """The role count the descending spectrum w of the c x c similarity
    suggests (sigma(F)^2 on the exact route, the Ritz values of the block on
    the thin one): :func:`estimate_rank` of the values at least
    ``trunc_tol**2`` times the largest, the squares of the singular values
    that ``lowrank_iterate`` keeps at ``trunc_tol``.  Eigenvalues computed
    from a c x c matrix carry rounding errors of about c * eps times the
    largest, so values below that floor are left out as well: they are
    zero to working precision, and would otherwise set the estimate."""
    floor = max(trunc_tol**2, c * np.finfo(float).eps) * w[0]
    return estimate_rank(w[w >= floor], DEFAULT_GAP_RATIO)


def _similarity_factor(A, beta2: float | None, k: int | None, trunc_tol: float):
    """The damping used, a factor X of ``S_hat_k ~= X X^T`` on the quotient
    of A, and the descending spectrum of ``X X^T`` the gap estimate reads;
    only the sweep calls it.

    At a finite depth, while the quotient has more than 2b classes,
    b = r + 8 for a rank r from 8, X is the thin similarity of rank r
    (:func:`rolekit.lowrank._thin_similarity`) and the spectrum the b Ritz
    values of its block.  r doubles while the gap estimate q on those b
    values satisfies q + 2 > r, so that the sweep's role counts up to
    q + 2 fit in the factor.  The estimate reads all b values, not the top
    r: the largest eigenvalue of an unsigned S stands far above the rest,
    so among r role values the only drop is the first, and q would read 1.
    Otherwise (no thin start block, or the fixed point), X is the c x c
    triangle ``R^T`` of ``F^T = Q R`` for the stack F
    of :func:`rolekit.lowrank._similarity_stack` (``R^T R = F F^T``: F's
    row inner products at half its width), and the spectrum ``sigma(F)^2``.
    ``beta2`` is resolved here on A at a finite depth, by the solve on
    A_hat at the fixed point.
    """
    quotient = A.quotient
    if k is not None:
        beta2 = resolve_beta2(A, beta2)
        rank = _START_RANK
        while quotient.c > 2 * (rank + _OVERSAMPLE):
            thin = _thin_similarity(quotient.entries, quotient.sizes, beta2, k, rank)
            if thin is None:
                break
            if _gap_estimate(thin[1], quotient.c, trunc_tol) + 2 <= rank:
                return (beta2, *thin)
            rank *= 2
    F, state = _similarity_stack(A, beta2, k)
    X = np.linalg.qr(F.T, mode="r").T
    return beta2 if state is None else state.beta2, X, np.linalg.eigvalsh(X @ X.T)[::-1]


def extract_roles(A, beta2: float | None = None, k: int | None = DEFAULT_DEPTH,
                  trunc_tol: float = 1e-10) -> ExtractionResult:
    """Full pipeline: group nodes into roles, rebuild B, score.

    The request is checked (:func:`rolekit.similarity._check_request`)
    before the graph is read, and ``beta2`` (None for 0.81 / rho) is
    rejected at or above the admissible bound ``1 / rho`` before any
    similarity step.  Nodes with no edge are left unassigned.  The classes
    of structurally equivalent nodes are kept when they reproduce the
    graph exactly with a compressive role count (q at most half the
    assigned nodes), as on ideal graphs: an exact model gives the nodes of
    one role equal rows and columns of A, so no other model is exact.
    Such a model computes no similarity; only ``beta2`` is resolved, on A.
    Otherwise the sweep runs on the unit rows of a factor X of the
    similarity S_k at depth ``k`` on the quotient by structural
    equivalence (:func:`_similarity_factor`); ``k=None`` takes its fixed
    point, solved as :func:`rolekit.similarity.fixed_point` solves it,
    whose :class:`rolekit.similarity.NonConvergenceError` carries the last
    iterate as an n x n similarity state.  The sweep runs spherical
    k-means (:func:`_spherical_kmeans`) for role counts within 2 of the
    spectral-gap estimate, from each of the four classes with the largest
    diagonal entries ``|X_a|^2`` of S_k.  Each start's seeds are grown
    farthest-first once, for the largest count, and each count takes a
    prefix of them.  A partition is scored once, however many trials reach
    it under whatever labels; each count keeps its cheapest model (the
    first start on a tie), and the sweep the smallest count within 5% of
    the least cost.
    ``params`` records which of the two gave the result (``method``:
    ``greedy`` for the classes, ``sweep``) and the two constants
    ``angle_tol`` (the default tolerance of :func:`cluster_rows`) and
    ``gap_ratio``.  The gap estimate is
    :func:`rolekit.lowrank.estimate_rank` with ``DEFAULT_GAP_RATIO`` on
    the spectrum of S_k (see :func:`_gap_estimate`), which leaves out the
    values below ``trunc_tol**2`` times the largest.

    Signed graphs with a checkerboard signature D are extracted through
    |A|, with the signs reattached to the indicator matrix; since
    ``A = D |A| D``, the residual on |A| is the one on A.
    """
    _check_request(beta2, k, trunc_tol)
    A = as_adjacency(A)
    signature = None
    work = A
    if A.kind == SIGNED:
        signature = checkerboard_signature(A)
        if signature is not None:
            work = abs(A)
    quotient = work.quotient
    if not quotient.entries.any():
        raise ValueError("cannot extract roles from an empty graph")
    # the classes with an edge: S_aa = 0 only on the others, whose nodes
    # are left unassigned
    edges = quotient.entries != 0.0
    act = np.flatnonzero(edges.any(axis=0) | edges.any(axis=1))
    n_active = int(quotient.sizes[act].sum())

    def roles(labels):   # labels of the active classes -> role of each class
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        sigma = -np.ones(quotient.c, dtype=int)
        sigma[act] = np.argsort(np.argsort(first))[inverse]   # by first node
        return sigma

    base, norm2 = _class_graph(work)
    # an exact model (cost 0) gives the nodes of one role equal rows and
    # columns of A, so each of its roles is one class: the only exact model
    # is the class partition, kept when it is compressive (at most
    # n_active // 2 roles).  ``method`` names it "greedy", as recorded
    # outputs do
    chosen, method = None, "greedy"
    if act.size <= n_active // 2:
        classes = roles(np.arange(act.size))
        B, cost = _role_model(base, norm2, quotient.sizes, classes)
        if cost == 0.0:
            chosen = (classes, B, 0.0)

    if chosen is not None:   # an exact model reads no similarity
        beta2 = resolve_beta2(work, beta2)
    else:
        method = "sweep"
        beta2, X, w = _similarity_factor(work, beta2, k, trunc_tol)
        q_guess = _gap_estimate(w, quotient.c, trunc_tol)
        # k-means runs on the classes ranked by S_aa = |X_a|^2, largest
        # first, so its ties go to the larger S_aa and not to the earlier node
        order = np.argsort(-np.einsum("ij,ij->i", X[act], X[act]), kind="stable")
        rows_ranked = _normalized_rows(X[act])[0][order]
        weights = quotient.sizes[act][order].astype(float)
        counts = range(max(1, q_guess - 2), min(act.size, q_guess + 2) + 1)
        seeds = [_farthest_first(rows_ranked, start, counts[-1])
                 for start in range(min(_SWEEP_STARTS, act.size))]
        labels = np.empty(act.size, dtype=int)
        scored = {}   # each distinct partition is scored once
        candidates = []
        for q in counts:
            best = None
            for grown in seeds:   # the first start wins ties
                labels[order] = _spherical_kmeans(rows_ranked, weights, grown[:q])
                trial = roles(labels)
                key = trial.tobytes()
                if key not in scored:
                    scored[key] = _role_model(base, norm2, quotient.sizes, trial)
                B, cost = scored[key]
                if best is None or cost < best[2]:
                    best = (trial, B, cost)
            candidates.append(best)
        # extra roles can always soak up a little noise, so a pure argmin
        # drifts upward; keep the smallest q within 5% of the best cost
        least = min(c[2] for c in candidates)
        chosen = next(c for c in candidates if c[2] <= 1.05 * least)

    sigma, B, residual = chosen
    B, assignment = _merge_equivalent_roles(B, Assignment(sigma[quotient.labels]))
    if signature is not None:
        assignment = Assignment(assignment.sigma, signs=signature.diag.copy())

    params = {
        "beta2": float(beta2),
        "k": "fixed-point" if k is None else int(k),
        "trunc_tol": float(trunc_tol),
        "angle_tol": DEFAULT_ANGLE_TOL,
        "gap_ratio": DEFAULT_GAP_RATIO,
        "method": method,
    }
    return ExtractionResult(
        q_est=assignment.q,
        assignment=assignment,
        B=B,
        residual=float(residual),
        unassigned=assignment.unassigned(),
        params=params,
    )
