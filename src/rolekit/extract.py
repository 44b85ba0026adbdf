"""Role recovery: group nodes by the angles of their similarity rows, rebuild B.

The similarity S_k is positive semi-definite, so S_k = U U^T for a factor U,
and whatever the factor, the cosine between its rows i and j is the entry
K_ij of the cosine Gram matrix

    K = D^(-1/2) S_k D^(-1/2),   D = diag(S_k).

On an ideal graph the nodes form exactly q groups of pairwise-parallel rows,
one per role, for every depth k.  Extraction therefore groups nodes by K
alone, reads the role matrix off the block densities of the adjacency
matrix, and scores the fit with the squared Frobenius cost
``||A - (PZ) B (PZ)^T||_F^2``.

S_k is computed on the quotient by structural equivalence
(:class:`rolekit.graphcore.Quotient`), where it is the c x c matrix
``S_hat = Q^T S_k Q``: the nodes of one class have equal rows of S_k, so
they always share a label, each class counts with its size, and K_ij is
``K_hat[a, b]`` for the classes a of i and b of j.

For graphs that are not exactly ideal the parallel groups blur; extraction
then sweeps candidate role counts around the gap in the spectrum of S_k with
a deterministic kernel spherical k-means on K (Dhillon, Guan & Kulis, KDD
2004), run from a few seeds, and keeps the smallest count whose cost is
within 5% of the best.
Checkerboard signed graphs are extracted through |A|, with the signs
reattached to the indicator matrix afterwards.  :func:`cluster_rows` runs
the same greedy grouping on the rows of an explicit factor.
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
from .lowrank import DEFAULT_GAP_RATIO, LowRankState, estimate_rank
from .similarity import DEFAULT_MAX_K, _quotient_similarity

DEFAULT_ANGLE_TOL = 1e-6
DEFAULT_DEPTH = 6

#: a node's row of the factor counts as zero below this fraction of the
#: largest row norm (its squared norm is the node's diagonal entry of S)
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


def _greedy_scan(m: int, cosines, angle_tol: float,
                 max_q: int | None = None) -> np.ndarray | None:
    """Group m items by line angle, scanning them in order.

    ``cosines(i, reps)`` gives the cosines between item i and the items in
    the index array ``reps``; the angle between two lines is the arccos of
    the absolute cosine.  Each item joins the earliest-created group whose
    first item lies within ``angle_tol`` of its line, else founds a new
    group, so labels are ordered by first item.  With ``max_q`` the scan
    stops, returning None, when an item would found group ``max_q + 1``.
    """
    labels = np.empty(m, dtype=int)
    reps = np.empty(m, dtype=int)
    q = 0
    for i in range(m):
        angles = np.arccos(np.clip(np.abs(cosines(i, reps[:q])), 0.0, 1.0))
        hits = np.flatnonzero(angles <= angle_tol)
        if hits.size:
            labels[i] = hits[0]
        elif q == max_q:
            return None
        else:
            labels[i] = q
            reps[q] = i
            q += 1
    return labels


def cluster_rows(U, angle_tol: float = DEFAULT_ANGLE_TOL, *,
                 max_q: int | None = None) -> Assignment | None:
    """Group the rows of a factor into clusters of nearly-parallel vectors.

    Rows are scanned in node order; each joins the earliest-created cluster
    whose representative lies within ``angle_tol`` of its line (the angle
    between lines is the smaller of the two angles between the vectors),
    else founds a new cluster.  Cluster labels are thus ordered by first
    node index.  Zero rows (disconnected nodes) are left unassigned.  With
    ``max_q`` the scan stops, returning None, when a row would found
    cluster ``max_q + 1``.  :func:`extract_roles` runs the same scan on
    the cosine Gram matrix of S instead of on a factor.
    """
    U = U.U if isinstance(U, LowRankState) else np.asarray(U, dtype=float)
    rows, zero = _normalized_rows(U)
    rows = rows[~zero]
    labels = _greedy_scan(rows.shape[0], lambda i, reps: rows[reps] @ rows[i],
                          angle_tol, max_q)
    if labels is None:
        return None
    sigma = -np.ones(U.shape[0], dtype=int)
    sigma[~zero] = labels
    return Assignment(sigma)


def reconstruct_B(A, assignment: Assignment) -> RoleMatrix:
    """Read the role matrix off block densities: B_IJ = 1 iff the block sum
    exceeds half the block size (exact ties resolve to 0)."""
    A = as_adjacency(A)
    if assignment.n != A.n:
        raise ValueError("assignment length does not match the graph")
    sizes = assignment.sizes()
    if (sizes == 0).any():
        raise ValueError("every role must own at least one node")
    W = np.zeros((A.n, assignment.q))
    nodes = np.flatnonzero(assignment.sigma >= 0)
    W[nodes, assignment.sigma[nodes]] = 1.0
    block_sums = W.T @ A.entries @ W
    half = np.outer(sizes, sizes) / 2.0
    return RoleMatrix((block_sums > half).astype(float))


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
    if assignment.n != A.n:
        raise ValueError("assignment length does not match the graph")
    M = A.entries
    W = assignment.membership()
    sizes = assignment.sizes().astype(float)
    cost = (np.vdot(M, M) - 2.0 * np.vdot(B.entries, W.T @ M @ W)
            + sizes @ B.entries**2 @ sizes)
    return max(float(cost), 0.0)


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


def _kernel_kmeans(K: np.ndarray, weights: np.ndarray, q: int, start: int,
                   max_iter: int = 100) -> np.ndarray:
    """Deterministic spherical k-means of unit vectors known by their cosines.

    ``K`` is the cosine Gram matrix of m unit vectors, and vector a counts
    ``weights[a]`` times.  A center is the normalized weighted sum of its
    members, so the cosines to the centers are ``K Z / sqrt(diag(Z^T K Z))``
    for the weighted membership matrix Z, and no vector is ever formed.
    Seeds are chosen farthest-first from vector ``start``; Lloyd updates
    follow, a cluster left empty is reseeded with the vector its center
    serves worst, and the loop stops when the labels repeat.  Every tie
    goes to the lowest index: among equally far vectors when seeding, among
    equally close centers (numbered in seed order), and among equally
    badly served vectors when reseeding.  Returns one label per vector, the
    number of its center.
    """
    m = K.shape[0]
    q = min(q, m)
    seeds = [start]
    near = K[start].copy()
    while len(seeds) < q:
        far = int(np.argmin(near))
        seeds.append(far)
        np.maximum(near, K[far], out=near)
    sims = K[:, seeds]
    rows = np.arange(m)
    labels = np.zeros(m, dtype=int)
    for _ in range(max_iter):
        new = np.argmax(sims, axis=1)
        for label in range(q):
            if not (new == label).any():
                new[int(np.argmin(sims[rows, new]))] = label
        Z = np.zeros((m, q))
        Z[rows, new] = weights
        KZ = K @ Z
        norms = np.sqrt(np.maximum((Z * KZ).sum(axis=0), 0.0))
        sims = KZ / np.where(norms > 0.0, norms, 1.0)
        if np.array_equal(new, labels):
            break
        labels = new
    return labels


def _gap_estimate(S: np.ndarray, trunc_tol: float, gap_ratio: float) -> int:
    """The role count the spectrum of S suggests: :func:`estimate_rank` of
    its descending eigenvalues, keeping those at least ``trunc_tol**2``
    times the largest, the squares of the singular values that
    ``lowrank_iterate`` keeps at ``trunc_tol``.  Eigenvalues computed from
    S itself carry rounding errors of about c * eps times the largest for
    a c x c matrix (a factor's singular values carry them only squared), so
    values below that floor are left out as well: they are zero to working
    precision, and would otherwise set the estimate by rounding alone."""
    w = np.linalg.eigvalsh(S)[::-1]
    floor = max(trunc_tol**2, S.shape[0] * np.finfo(float).eps) * w[0]
    return estimate_rank(w[w >= floor], gap_ratio)


def extract_roles(A, beta2: float | None = None, k: int | None = DEFAULT_DEPTH,
                  trunc_tol: float = 1e-10, angle_tol: float = DEFAULT_ANGLE_TOL,
                  gap_ratio: float = DEFAULT_GAP_RATIO,
                  max_k: int = DEFAULT_MAX_K) -> ExtractionResult:
    """Full pipeline: compute the similarity, group nodes, rebuild B, score.

    The similarity S_k at depth ``k`` runs on the quotient by structural
    equivalence; ``k=None`` takes its fixed point, solved by conjugate
    gradients to a relative residual of
    :data:`rolekit.similarity.DEFAULT_TOL`, as ``spectrum_report`` does,
    with ``max_k`` capping the iterations; past the cap,
    :class:`rolekit.similarity.NonConvergenceError` carries the last
    iterate as an n x n similarity state.  A ``k`` or ``max_k`` below 1 is
    rejected before anything is computed.  At every depth ``beta2`` (None
    for 0.81 / rho) is rejected at or above the admissible bound
    ``1 / rho``.  Nodes are grouped on the cosine Gram matrix K of S_k
    (see the module docstring), with nodes whose diagonal entry of S_k is
    negligible left unassigned, by one rule.  First the greedy scan: nodes
    in order join the first group whose first node lies within
    ``angle_tol`` of their line.  Its result is kept when it reproduces the
    graph exactly with a compressive role count (q at most half the
    assigned nodes), as on ideal graphs; the scan stops as soon as it would
    exceed that count.  Otherwise the sweep runs: kernel spherical k-means
    on K for role counts within 2 of the spectral-gap estimate, each count
    seeded farthest-first from each of the four classes with the largest
    diagonal entries of S_k and scored by its cheapest model, keeping the
    smallest count within 5% of the least cost.  ``params["method"]``
    records which of the two gave the result.  The gap estimate is
    :func:`rolekit.lowrank.estimate_rank` with ``gap_ratio`` on the
    eigenvalues of S_k; ``trunc_tol`` sets its floor, as eigenvalues below
    ``trunc_tol**2`` times the largest are left out (and so are those below
    the rounding floor of the eigensolver, see :func:`_gap_estimate`).

    Signed graphs with a checkerboard signature are extracted through |A|;
    the signs are reattached to the indicator matrix and the residual is
    computed against the signed graph.
    """
    A = as_adjacency(A)
    if not A.entries.any():
        raise ValueError("cannot extract roles from an empty graph")
    if not 0.0 < trunc_tol < 1.0:
        raise ValueError("trunc_tol must lie strictly between 0 and 1")
    if not angle_tol >= 0.0:
        raise ValueError("angle_tol must be non-negative")
    if not 0.0 < gap_ratio <= 1.0:
        raise ValueError("gap_ratio must lie in (0, 1]")

    signature = None
    work = A
    if A.kind == SIGNED:
        signature = checkerboard_signature(A)
        if signature is not None:
            work = abs(A)

    quotient = work.quotient
    state = _quotient_similarity(work, beta2, k, max_k)
    S, beta2 = state.S, state.beta2
    diag = np.maximum(np.diag(S), 0.0)
    norms = np.sqrt(diag / quotient.sizes)   # the nodes' factor row norms
    act = np.flatnonzero(norms > _ZERO_ROW_RTOL * norms.max())
    root = np.sqrt(diag[act])
    K = S[np.ix_(act, act)]
    K /= root[:, None]
    K /= root
    n_active = int(quotient.sizes[act].sum())

    def lift(labels):   # labels of the active classes -> node assignment
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        sigma = -np.ones(quotient.c, dtype=int)
        sigma[act] = np.argsort(np.argsort(first))[inverse]   # by first node
        return Assignment(sigma[quotient.labels])

    # greedy is kept only when exact with at most n_active // 2 roles
    chosen, method = None, "greedy"
    labels = _greedy_scan(act.size, lambda a, reps: K[a, reps], angle_tol,
                          n_active // 2)
    if labels is not None:
        greedy = lift(labels)
        B = reconstruct_B(work, greedy)
        if extraction_cost(work, greedy, B) == 0.0:
            chosen = (greedy, B, 0.0)

    if chosen is None:
        method = "sweep"
        q_guess = _gap_estimate(S, trunc_tol, gap_ratio)
        # k-means runs on the classes ranked by S_aa, largest first, so its
        # ties go to the larger S_aa and not to the earlier node
        rank = np.argsort(-diag[act], kind="stable")
        K_rank = K[np.ix_(rank, rank)]
        weights = quotient.sizes[act][rank].astype(float)
        labels = np.empty(act.size, dtype=int)
        candidates = []
        for q in range(max(1, q_guess - 2), min(act.size, q_guess + 2) + 1):
            best = None
            for start in range(min(_SWEEP_STARTS, act.size)):   # the first wins ties
                labels[rank] = _kernel_kmeans(K_rank, weights, q, start)
                asg = lift(labels)
                B = reconstruct_B(work, asg)
                cost = extraction_cost(work, asg, B)
                if best is None or cost < best[2]:
                    best = (asg, B, cost)
            candidates.append(best)
        # extra roles can always soak up a little noise, so a pure argmin
        # drifts upward; keep the smallest q within 5% of the best cost
        least = min(c[2] for c in candidates)
        chosen = next(c for c in candidates if c[2] <= 1.05 * least)

    assignment, B, residual = chosen
    B, assignment = _merge_equivalent_roles(B, assignment)

    if signature is not None:
        assignment = Assignment(assignment.sigma, signs=signature.diag.copy())
        residual = extraction_cost(A, assignment, B)

    params = {
        "beta2": float(beta2),
        "k": "fixed-point" if k is None else int(k),
        "trunc_tol": float(trunc_tol),
        "angle_tol": float(angle_tol),
        "gap_ratio": float(gap_ratio),
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
