"""Role recovery: cluster the rows of the similarity factor, rebuild B.

On an ideal graph the rows of the thin factor U (with S_k = U U^T) form
exactly q clusters of pairwise-parallel vectors, one per role, for every
depth k.  Extraction therefore normalizes the rows, groups them by angular
distance, reads the role matrix off the block densities of the adjacency
matrix, and scores the fit with the squared Frobenius cost
``||A - (PZ) B (PZ)^T||_F^2``.

For graphs that are not exactly ideal the parallel clusters blur; extraction
then sweeps candidate role counts around the singular-value gap estimate
with a deterministic spherical k-means and keeps the smallest count whose
cost is within a few percent of the best.  Checkerboard signed graphs are
extracted through |A|, with the signs reattached to the indicator matrix
afterwards.
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
from .lowrank import LowRankState, estimate_rank, lowrank_iterate
from .similarity import DEFAULT_MAX_K, resolve_beta2

DEFAULT_ANGLE_TOL = 1e-6
DEFAULT_GAP_RATIO = 0.5
DEFAULT_DEPTH = 6

#: a factor row counts as zero below this fraction of the largest row norm
_ZERO_ROW_RTOL = 1e-12


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
    """Unit rows with the sign convention: first entry of largest magnitude
    is made positive.  Returns (rows, zero_mask)."""
    U = np.asarray(U, dtype=float)
    norms = np.linalg.norm(U, axis=1)
    zero = norms <= _ZERO_ROW_RTOL * (norms.max() if norms.size else 0.0)
    rows = np.divide(U, norms[:, None], out=np.zeros_like(U), where=~zero[:, None])
    if rows.size:
        lead = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
        rows[lead < 0] *= -1.0
    return rows, zero


def cluster_rows(U, angle_tol: float = DEFAULT_ANGLE_TOL, *,
                 max_q: int | None = None) -> Assignment | None:
    """Group the rows of a factor into clusters of nearly-parallel vectors.

    Rows are scanned in node order; each joins the earliest-created cluster
    whose representative lies within ``angle_tol`` of its line (the angle
    between lines is the smaller of the two angles between the vectors),
    else founds a new cluster.  Cluster labels are thus ordered by first
    node index.  Zero rows (disconnected nodes) are left unassigned.  With
    ``max_q`` the scan stops, returning None, when a row would found
    cluster ``max_q + 1``: ``extract_roles`` in ``auto`` mode never keeps
    such a grouping.
    """
    U = U.U if isinstance(U, LowRankState) else np.asarray(U, dtype=float)
    rows, zero = _normalized_rows(U)
    sigma = -np.ones(rows.shape[0], dtype=int)
    reps = np.empty_like(rows)
    q = 0
    for i in np.flatnonzero(~zero):
        row = rows[i]
        angles = np.arccos(np.clip(np.abs(reps[:q] @ row), 0.0, 1.0))
        hits = np.flatnonzero(angles <= angle_tol)
        if hits.size:
            sigma[i] = hits[0]
        elif q == max_q:
            return None
        else:
            sigma[i] = q
            reps[q] = row
            q += 1
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


def _spherical_kmeans(rows: np.ndarray, active: np.ndarray, q: int,
                      max_iter: int = 100) -> np.ndarray:
    """Deterministic spherical k-means on sign-normalized unit rows.

    Farthest-first initialization from the first active row, Lloyd updates
    with cosine similarity, empty clusters reseeded on the worst-served row.
    Returns a label array over all rows (-1 for inactive ones).
    """
    labels = -np.ones(rows.shape[0], dtype=int)
    idx = np.flatnonzero(active)
    pts = rows[idx]
    m = pts.shape[0]
    q = min(q, m)

    centers = [pts[0]]
    sims = pts @ pts[0]
    while len(centers) < q:
        far = int(np.argmin(sims))
        centers.append(pts[far])
        sims = np.maximum(sims, pts @ pts[far])
    C = np.vstack(centers)

    assign = np.zeros(m, dtype=int)
    for _ in range(max_iter):
        new_assign = np.argmax(pts @ C.T, axis=1)
        for label in range(q):
            members = new_assign == label
            if not members.any():
                served = (pts * C[new_assign]).sum(axis=1)
                new_assign[int(np.argmin(served))] = label
                members = new_assign == label
            center = pts[members].mean(axis=0)
            norm = np.linalg.norm(center)
            if norm > 0:
                center = center / norm
                lead = int(np.argmax(np.abs(center)))
                if center[lead] < 0:
                    center = -center
                C[label] = center
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    # relabel clusters by first node occurrence for reproducibility
    relabel = -np.ones(q, dtype=int)
    next_label = 0
    for a in assign:
        if relabel[a] < 0:
            relabel[a] = next_label
            next_label += 1
    labels[idx] = relabel[assign]
    return labels


def extract_roles(A, beta2: float | None = None, k: int | None = DEFAULT_DEPTH,
                  trunc_tol: float = 1e-10, angle_tol: float = DEFAULT_ANGLE_TOL,
                  gap_ratio: float = DEFAULT_GAP_RATIO,
                  method: str = "auto", max_k: int = DEFAULT_MAX_K) -> ExtractionResult:
    """Full pipeline: factor the similarity, cluster rows, rebuild B, score.

    ``k=None`` factors the similarity at its fixed point, solved by
    conjugate gradients with ``max_k`` capping the iterations.  ``method`` is
    ``"greedy"`` (angular grouping, exact on ideal graphs), ``"sweep"``
    (spherical k-means over role counts around the spectral-gap estimate,
    keeping the smallest count within 5% of the least cost), or ``"auto"``:
    the greedy result is kept when it reproduces the graph exactly with a
    compressive role count (q at most half the assigned nodes), otherwise
    the sweep runs.

    Signed graphs with a checkerboard signature are extracted through |A|;
    the signs are reattached to the indicator matrix and the residual is
    computed against the signed graph.
    """
    A = as_adjacency(A)
    if not A.entries.any():
        raise ValueError("cannot extract roles from an empty graph")
    if method not in ("auto", "greedy", "sweep"):
        raise ValueError(f"unknown extraction method: {method!r}")

    signature = None
    work = A
    if A.kind == SIGNED:
        signature = checkerboard_signature(A)
        if signature is not None:
            work = abs(A)

    beta2, _ = resolve_beta2(work, beta2)
    state = lowrank_iterate(work, beta2, k=k, trunc_tol=trunc_tol, max_k=max_k)
    rows, zero = _normalized_rows(state.U)
    active = ~zero
    n_active = int(active.sum())

    chosen = None
    resolved = method
    if method in ("auto", "greedy"):
        # auto keeps greedy only when exact with at most n_active // 2 roles
        max_q = n_active // 2 if method == "auto" else None
        greedy = cluster_rows(state.U, angle_tol, max_q=max_q)
        if greedy is not None:
            B = reconstruct_B(work, greedy)
            cost = extraction_cost(work, greedy, B)
            if method == "greedy" or cost == 0.0:
                chosen = (greedy, B, cost)
                resolved = "greedy"

    if chosen is None:
        resolved = "sweep"
        q_guess = estimate_rank(state.sigma**2, gap_ratio)
        candidates = []
        for q in range(max(1, q_guess - 2), min(n_active, q_guess + 2) + 1):
            labels = _spherical_kmeans(rows, active, q)
            asg = Assignment(labels)
            B = reconstruct_B(work, asg)
            candidates.append((asg, B, extraction_cost(work, asg, B)))
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
        "method": resolved,
    }
    return ExtractionResult(
        q_est=assignment.q,
        assignment=assignment,
        B=B,
        residual=float(residual),
        unassigned=assignment.unassigned(),
        params=params,
    )
