"""Shared helpers and reference data for the test suite."""

from __future__ import annotations

import numpy as np

from rolekit import Adjacency, Assignment

# the 6-node signed checkerboard reference graph (3-cycle role structure,
# sizes (2,1,3), block signs (+,-,-,+,-,-))
SIGNED_EXAMPLE = np.array([
    [0, 0, -1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, -1, 1, 1],
    [1, -1, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0, 0],
], dtype=float)

SIGNED_EXAMPLE_Q = np.array([1, -1, -1, 1, -1, -1], dtype=float)

# the rank-deficient 3-role counterexample: minimal B with rank[B B^T] = 2
RANK_DEFICIENT = np.array([
    [0, 0, 0],
    [1, 0, 1],
    [1, 0, 1],
], dtype=float)

RANK_DEFICIENT_S1 = np.array([
    [2, 0, 2],
    [0, 2, 2],
    [2, 2, 4],
], dtype=float)

# 5-node bipartite clique (parts of size 2 and 3)
BIPARTITE_CLIQUE = np.array([
    [0, 0, 1, 1, 1],
    [0, 0, 1, 1, 1],
    [1, 1, 0, 0, 0],
    [1, 1, 0, 0, 0],
    [1, 1, 0, 0, 0],
], dtype=float)

# a digraph whose fixed-point system CG cannot finish in 3 iterations at
# beta^2 = 0.9 / rho (it needs 17 at tol 1e-15)
SLOW_CG = np.array([
    [0, 1, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 1, 0, 1, 0, 0],
    [1, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0],
], dtype=float)

# a 12-node digraph, the sum of three disjoint permutation matrices with
# zero diagonal, no two of its nodes equivalent: every in- and out-degree
# is 3, so G[1 1^T] = 18 (1 1^T), and beta_bound's Lanczos iteration stops
# after one step at rho = 18, while CG needs 14 iterations at DEFAULT_TOL
# and the default beta^2 (15 at 0.9 / rho, 14 at 0.99 / rho)
THREE_PERMUTATIONS = sum(np.eye(12)[list(p)] for p in (
    (3, 8, 11, 7, 1, 4, 2, 0, 5, 6, 9, 10),
    (1, 6, 7, 10, 5, 0, 3, 9, 2, 4, 11, 8),
    (11, 9, 5, 2, 10, 8, 7, 1, 6, 3, 4, 0),
))

# THREE_PERMUTATIONS with every node doubled: 24 nodes in 12 classes of 2,
# whose quotient has one value wherever THREE_PERMUTATIONS has a 1 (about
# 2: sqrt(2) 1 sqrt(2) rounded), so it is as regular, and Lanczos again
# stops after one step
DOUBLED_PERMUTATIONS = np.kron(THREE_PERMUTATIONS, np.ones((2, 2)))


def random_digraph(rng: np.random.Generator, n_max: int = 20,
                   n_min: int = 2) -> Adjacency:
    """Random nonzero binary digraph with size and density drawn at random."""
    n = int(rng.integers(n_min, n_max + 1))
    density = float(rng.uniform(0.08, 0.5))
    M = (rng.random((n, n)) < density).astype(float)
    if not M.any():
        M[0, int(rng.integers(0, n))] = 1.0
    return Adjacency.from_matrix(M)


def kron_rho(A) -> float:
    """Dense oracle for the similarity-operator spectral radius:
    largest |eigenvalue| of kron(A, A) + kron(A^T, A^T)."""
    M = A.entries if isinstance(A, Adjacency) else np.asarray(A, dtype=float)
    K = np.kron(M, M) + np.kron(M.T, M.T)
    return float(np.abs(np.linalg.eigvalsh(K)).max())


def lanczos_rho(A, tol: float = 1e-14, max_steps: int = 300) -> float:
    """Oracle for the similarity-operator spectral radius on quotients too
    large for kron_rho: Lanczos on G[X] = M X M^T + M^T X M over c x c
    matrices (M the quotient matrix) from I_c / sqrt(c), with each new
    vector orthogonalized against every earlier one, twice.  The Ritz
    values are those of the projection of G on the basis, and it stops once
    the top Ritz pair's residual bound is at most ``tol`` times its value.
    It shares no code with beta_bound."""
    M = A.quotient.entries
    c = M.shape[0]
    basis = np.empty((max_steps, c, c))   # pages are touched step by step
    basis[0] = np.eye(c) / np.sqrt(c)
    H = np.zeros((max_steps, max_steps))
    for j in range(max_steps - 1):
        Y = M @ basis[j] @ M.T + M.T @ basis[j] @ M
        Q = basis[:j + 1]
        for _ in range(2):
            coef = np.tensordot(Q, Y, axes=([1, 2], [0, 1]))
            Y -= np.tensordot(coef, Q, axes=1)
            H[:j + 1, j] += coef
        beta = np.linalg.norm(Y)
        theta, W = np.linalg.eigh(H[:j + 1, :j + 1], UPLO="U")   # column j holds step j
        if beta * abs(W[-1, -1]) <= tol * theta[-1]:
            return float(theta[-1])
        np.divide(Y, beta, out=basis[j + 1])
    raise AssertionError("the oracle Lanczos did not converge")


def orth_basis(M: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Orthonormal basis of the column space, rank from SVD threshold unless given."""
    U, s, _ = np.linalg.svd(M)
    if rank is None:
        if s.size == 0 or s[0] == 0:
            return U[:, :0]
        rank = int((s > max(M.shape) * np.finfo(float).eps * s[0]).sum())
    return U[:, :rank]


def sin_max_angle(X: np.ndarray, Y: np.ndarray) -> float:
    """Sine of the largest principal angle between two column spaces.

    Computed from the residual of projecting one basis on the other, which
    stays accurate for angles near zero (unlike arccos of the smallest
    singular value).
    """
    Qx = orth_basis(X)
    Qy = orth_basis(Y)
    if Qx.shape[1] != Qy.shape[1]:
        return 1.0
    if Qx.shape[1] == 0:
        return 0.0
    R = Qy - Qx @ (Qx.T @ Qy)
    return float(np.linalg.svd(R, compute_uv=False)[0])


def canonicalize(assignment: Assignment):
    """Relabel roles by first node occurrence; returns (sigma, role_order)."""
    sigma = assignment.sigma
    order: list[int] = []
    seen = set()
    for v in sigma:
        if v >= 0 and v not in seen:
            seen.add(int(v))
            order.append(int(v))
    relabel = {old: new for new, old in enumerate(order)}
    out = np.array([relabel[v] if v >= 0 else -1 for v in sigma], dtype=int)
    return out, order


def same_partition_and_B(result, truth_B, truth_assignment) -> bool:
    """Ground-truth comparison up to role relabeling."""
    got_sigma, got_order = canonicalize(result.assignment)
    want_sigma, want_order = canonicalize(truth_assignment)
    if not np.array_equal(got_sigma, want_sigma):
        return False
    got_B = result.B.entries[np.ix_(got_order, got_order)]
    want_B = truth_B.entries[np.ix_(want_order, want_order)]
    return np.array_equal(got_B, want_B)
