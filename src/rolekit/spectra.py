"""Perturbation lab: random edge flips, expected matrices, spectra reports.

An ideal graph perturbed by independent entrywise flips (existing edges
removed with probability ``p_in``, missing ones added with probability
``p_out``) keeps its q dominant singular values close to the ideal ones
while the rest fill a noise floor.  The similarity matrix widens the
relative gap at position q, which is what makes the role count detectable;
this module samples such perturbations reproducibly, builds the expected
matrices, reports the singular values of A, S^(1/2) and S side by side, and
provides the closed-form depth scaling of the undirected case for checking
how the gap grows with the iteration depth and the damping weight.  The
report takes S by the same route and to the same tolerance as extraction,
so both see one S at every depth.  Like extraction, it works on the
quotient by structural equivalence: with c classes, ``A = Q A_hat Q^T``
and ``S = Q S_hat Q^T`` for orthonormal Q
(:class:`rolekit.graphcore.Quotient`), so the nonzero singular values of A
and S are those of A_hat and S_hat, and the rest are exactly 0.

Random draws use the Philox counter-based generator (numpy's implementation)
so a seed reproduces bit-identically across platforms; entries are drawn in
row-major order, one uniform per matrix entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphcore import UNWEIGHTED, Adjacency, RoleMatrix, as_adjacency
from .lowrank import DEFAULT_GAP_RATIO, estimate_rank
from .similarity import _check_request, _quotient_similarity, resolve_beta2

CONVENTIONS = ("occupancy", "flip")


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for (seed, stream); independent per stream index."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 32) + int(stream)))


@dataclass(frozen=True)
class PerturbationModel:
    """Entrywise flip model: 1 -> 0 with p_in, 0 -> 1 with p_out."""

    p_in: float
    p_out: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p_in <= 1.0 and 0.0 <= self.p_out <= 1.0):
            raise ValueError("flip probabilities must lie in [0, 1]")


def perturb(A, model: PerturbationModel) -> Adjacency:
    """Apply independent entrywise flips to a binary graph, reproducibly."""
    A = as_adjacency(A)
    if A.kind != UNWEIGHTED:
        raise ValueError("perturbation is defined for unweighted graphs")
    u = rng_for(model.seed).random((A.n, A.n))
    M = A.entries.copy()
    ones = M == 1.0
    M[ones & (u < model.p_in)] = 0.0
    M[~ones & (u < model.p_out)] = 1.0
    return Adjacency.from_matrix(M)


def expected_adjacency(B: RoleMatrix, sizes, p_in: float, p_out: float,
                       convention: str = "occupancy") -> np.ndarray:
    """Expected adjacency matrix of a randomly realized role structure.

    Two conventions coexist in the literature and differ in the role of
    p_in.  "occupancy": an edge exists with probability p_in inside the
    blocks selected by B and with probability p_out elsewhere, giving
    (PZ) [p_in B + p_out (J - B)] (PZ)^T.  "flip": p_in is the probability
    an ideal edge is deleted (the perturbation model above), so the in-block
    occupancy is 1 - p_in.  The result has rank at most q.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    sizes = np.asarray(sizes, dtype=int).ravel()
    if (sizes < 1).any():
        raise ValueError("every role size must be at least 1")
    inside = p_in if convention == "occupancy" else 1.0 - p_in
    Eb = inside * B.entries + p_out * (1.0 - B.entries)
    roles = np.repeat(np.arange(B.q), sizes)
    return Eb[np.ix_(roles, roles)]


def ideal_singular_values(B: RoleMatrix, sizes) -> np.ndarray:
    """Nonzero singular values of an ideal graph: those of N^(1/2) B N^(1/2)."""
    sizes = np.asarray(sizes, dtype=float).ravel()
    if sizes.shape[0] != B.q:
        raise ValueError("sizes must list one count per role")
    if (sizes < 1).any():
        raise ValueError("every role size must be at least 1")
    root = np.sqrt(sizes)
    Bt = root[:, None] * B.entries * root[None, :]
    return np.linalg.svd(Bt, compute_uv=False)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Descending singular values of A, S^(1/2) and S, plus the gap estimate.

    ``sigma_S_half`` holds the square roots of ``sigma_S``, the singular
    values of a symmetric square root of S.  ``gap_index`` is the role
    count estimated from the spectrum of S; the CSV and SVG do not show
    it.  ``beta2_source`` records whether the damping was supplied or
    derived from the default rule.
    """

    sigma_A: np.ndarray
    sigma_S_half: np.ndarray
    sigma_S: np.ndarray
    gap_index: int
    beta2: float
    k_or_fixed: int | str
    beta2_source: str = "user"

    def to_csv_text(self) -> str:
        lines = ["index,sigma_A,sigma_S_half,sigma_S"]
        for i in range(self.sigma_A.size):
            lines.append(",".join([
                str(i + 1),
                format(self.sigma_A[i], ".9g"),
                format(self.sigma_S_half[i], ".9g"),
                format(self.sigma_S[i], ".9g"),
            ]))
        return "\n".join(lines) + "\n"


def spectrum_report(A, beta2: float | None = None, k: int | None = None,
                    top_m: int = 10) -> SpectrumReport:
    """The top ``min(top_m, n)`` singular values of A, S^(1/2) and S: those
    of A_hat and S_hat on the c classes, then exact zeros.

    ``k=None`` solves for the fixed point by the one stopping rule of
    :func:`rolekit.similarity.fixed_point`, as ``extract_roles`` does; its
    :class:`rolekit.similarity.NonConvergenceError` carries the last
    iterate as an n x n similarity state.  Otherwise the recurrence runs
    ``k`` steps.  The request and ``beta2`` follow the rules of
    ``extract_roles``.  S_hat is symmetric positive semi-definite,
    so ``sigma_S`` is taken as the moduli of its eigenvalues
    (``eigvalsh``; rounding can leave some slightly below 0), and
    ``sigma_S_half`` as ``sqrt(sigma_S)``.  ``gap_index`` is the role count
    :func:`rolekit.lowrank.estimate_rank` reads off ``sigma_S`` at the gap
    ratio 0.5.
    """
    _check_request(beta2, k)
    if top_m < 1:
        raise ValueError("top_m must be at least 1")
    A = as_adjacency(A)
    resolved = beta2 if k is None else resolve_beta2(A, beta2)
    state = _quotient_similarity(A, resolved, k)
    m = min(top_m, A.n)
    sigma_A, sigma_S = np.zeros((2, m))   # exactly 0 past the c-th
    top = min(m, A.quotient.c)
    sigma_A[:top] = np.linalg.svd(A.quotient.entries, compute_uv=False)[:top]
    sigma_S[:top] = np.sort(np.abs(np.linalg.eigvalsh(state.S)))[::-1][:top]
    return SpectrumReport(
        sigma_A=sigma_A,
        sigma_S_half=np.sqrt(sigma_S),
        sigma_S=sigma_S,
        gap_index=estimate_rank(sigma_S, DEFAULT_GAP_RATIO),
        beta2=float(state.beta2),
        k_or_fixed="fixed-point" if k is None else int(k),
        beta2_source="user" if beta2 is not None else "auto-0.81/rho",
    )


def undirected_sigma_at_depth(lam: float, beta: float, k: int) -> float:
    """Closed-form singular value of S_k^(1/2) for an undirected graph.

    ``lam`` is the corresponding singular value of S_1^(1/2) (which equals
    sqrt(2) times the singular value of A); the depth-k value is
    ``lam * sqrt(sum_{l=1..k} (beta lam)^(2(l-1)))``.
    """
    if lam < 0 or beta < 0:
        raise ValueError("lam and beta must be non-negative")
    if k < 1:
        raise ValueError("depth k must be at least 1")
    if beta * lam >= 1.0:
        raise ValueError("beta * lam must be strictly below 1")
    r = (beta * lam) ** 2
    total = float(k) if r == 1.0 else (1.0 - r**k) / (1.0 - r)
    return lam * np.sqrt(total)


def ratio_monotonicity_check(lam_hi: float, lam_lo: float, beta: float,
                             k_max: int) -> bool:
    """Verify the gap-growth properties of the depth-scaled singular values.

    For 0 < lam_lo < lam_hi with beta * lam_hi < 1, checks that the ratio of
    the depth-k values strictly increases with k up to ``k_max``, that the
    limit-to-initial scaling factor (1 - (beta lam_lo)^2)/(1 - (beta lam_hi)^2)
    exceeds 1, and that this factor strictly increases along a damping grid
    up to ``beta``.
    """
    if not 0.0 < lam_lo < lam_hi:
        raise ValueError("need 0 < lam_lo < lam_hi")
    if beta <= 0 or beta * lam_hi >= 1.0:
        raise ValueError("need 0 < beta with beta * lam_hi < 1")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    ratios = [
        undirected_sigma_at_depth(lam_hi, beta, kk)
        / undirected_sigma_at_depth(lam_lo, beta, kk)
        for kk in range(1, k_max + 1)
    ]
    # the increments shrink geometrically and eventually fall below the float
    # resolution of the ratio itself; require growth up to a few ulps per
    # step and strictly overall
    ulps = 4.0 * np.finfo(float).eps
    if any(b < a * (1.0 - ulps) for a, b in zip(ratios, ratios[1:])):
        return False
    if not ratios[-1] > ratios[0]:
        return False

    def factor(b: float) -> float:
        return (1.0 - (b * lam_lo) ** 2) / (1.0 - (b * lam_hi) ** 2)

    if factor(beta) <= 1.0:
        return False
    grid = np.linspace(beta / 10.0, beta, 10)
    factors = [factor(b) for b in grid]
    return all(b > a for a, b in zip(factors, factors[1:]))
