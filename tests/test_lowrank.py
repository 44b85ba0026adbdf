import numpy as np
import pytest

from conftest import (
    DOUBLED_PERMUTATIONS,
    RANK_DEFICIENT,
    THREE_PERMUTATIONS,
    random_digraph,
    sin_max_angle,
)
from rolekit import (
    Adjacency,
    NonConvergenceError,
    PerturbationModel,
    SimilarityState,
    apply_rank_one_weights,
    beta_bound,
    default_beta2,
    estimate_rank,
    fixed_point,
    generate_structure,
    iterate,
    lowrank_iterate,
    perturb,
)
from rolekit import similarity
from rolekit.lowrank import _compress, _similarity_stack, _thin_similarity
from rolekit.similarity import DEFAULT_TOL, _quotient_graph

# the published 10-value spectra of the ideal and perturbed block cycles,
# used as realistic inputs to the gap-based rank estimate
IDEAL_SIGMA_A = [200, 141.421356237309, 141.421356237309, 99.9999999999998,
                 2.08192986419419e-12, 1.77453123322964e-12, 1.56022517173823e-12,
                 1.44113022280848e-12, 1.36186919200412e-12, 1.15925439729614e-12]

PERTURBED_SIGMA_S = [3205.07370276626, 321.993558784018, 205.863615923114,
                     179.615503928212, 60.6564005517509, 52.9801453378983,
                     48.1980990180845, 44.34348963481, 43.977038366827,
                     41.5390132121015]


def test_ideal_block_cycle_keeps_rank_q():
    A, B, _ = generate_structure("block_cycle", (2, 1, 1, 2))
    beta2 = 0.5 * default_beta2(A)
    for k in (1, 2, 4, 6):
        state = lowrank_iterate(A, beta2, k=k)
        assert state.r == 4
        dense_rank = np.linalg.matrix_rank(iterate(A, beta2, k).S)
        assert state.r == dense_rank


def test_rank_deficient_example_keeps_rank_two():
    A = Adjacency.from_matrix(RANK_DEFICIENT)
    beta2 = 0.5 * default_beta2(A)
    for k in (1, 3, 6):
        assert lowrank_iterate(A, beta2, k=k).r == 2


def test_single_edge_rank_two():
    M = np.zeros((4, 4))
    M[0, 2] = 1.0
    A = Adjacency.from_matrix(M)
    state = lowrank_iterate(A, 0.1, k=3)
    assert state.r == 2
    assert np.linalg.matrix_rank(np.hstack([M, M.T])) == 2


def test_factor_matches_dense_iterates():
    rng = np.random.default_rng(13)
    for _ in range(10):
        A = random_digraph(rng, n_max=50, n_min=5)
        beta2 = 0.8 * default_beta2(A)
        for k in (1, 3, 6):
            state = lowrank_iterate(A, beta2, k=k, trunc_tol=1e-10)
            S = iterate(A, beta2, k).S
            err = np.linalg.norm(state.U @ state.U.T - S) / np.linalg.norm(S)
            assert err <= 10 * state.trunc_tol


def test_factor_columns_orthogonal_scaled_by_sigma():
    rng = np.random.default_rng(19)
    A = random_digraph(rng, n_max=20, n_min=8)
    state = lowrank_iterate(A, 0.5 * default_beta2(A), k=4)
    Q = state.U / state.sigma
    assert np.allclose(Q.T @ Q, np.eye(state.r), atol=1e-10)
    assert np.all(np.diff(state.sigma) <= 1e-12 * state.sigma[0])


def test_factor_spans_compound_image_on_ideal_graphs():
    rng = np.random.default_rng(3)
    for sizes in [(3, 4, 5), (2, 5, 3, 4)]:
        A, _, _ = generate_structure("block_cycle", sizes,
                                     perm=rng.permutation(int(sum(sizes))))
        compound = np.hstack([A.entries, A.entries.T])
        state = lowrank_iterate(A, 0.5 * default_beta2(A), k=4, trunc_tol=1e-10)
        assert sin_max_angle(state.U, compound) < 1e-6


def test_ideal_graph_rank_equals_role_compound_rank():
    # on an ideal graph with minimal B the kept rank equals rank([B B^T])
    from rolekit import RoleMatrix, build_ideal, is_minimal_role_matrix
    rng = np.random.default_rng(23)
    found = 0
    while found < 8:
        q = int(rng.integers(2, 5))
        B = RoleMatrix((rng.random((q, q)) < 0.5).astype(float))
        if not is_minimal_role_matrix(B):
            continue
        found += 1
        sizes = rng.integers(1, 5, size=q)
        A = build_ideal(B, sizes, perm=rng.permutation(int(sizes.sum())))
        want = np.linalg.matrix_rank(np.hstack([B.entries, B.entries.T]))
        state = lowrank_iterate(A, 0.5 * default_beta2(A), k=4, trunc_tol=1e-10)
        assert state.r == want
        assert want <= q


def test_rank_never_exceeds_compound_rank():
    rng = np.random.default_rng(29)
    for _ in range(10):
        A = random_digraph(rng, n_max=15)
        compound_rank = np.linalg.matrix_rank(np.hstack([A.entries, A.entries.T]))
        state = lowrank_iterate(A, 0.5 * default_beta2(A), k=5)
        assert state.r <= compound_rank


def test_fixed_point_factor_matches_dense_fixed_point():
    A, _, _ = generate_structure("block_cycle", (5, 4, 3, 5))
    beta2 = 0.5 * default_beta2(A)
    state = lowrank_iterate(A, beta2, k=None)
    from rolekit import fixed_point
    S = fixed_point(A, beta2).S
    assert np.allclose(state.U @ state.U.T, S, rtol=1e-6)


def test_beta2_none_is_the_default_at_every_depth():
    # None selects 0.81 / rho, as in every entry point.  At a finite depth it
    # is resolved on A, as default_beta2 does, and at the fixed point the
    # solve resolves it on the quotient graph, which keeps A's classes, so
    # the factors are equal bit for bit at every depth
    ideal, _, _ = generate_structure("block_cycle", (6, 5, 7, 4))
    noisy = perturb(ideal, PerturbationModel(p_in=0.1, p_out=0.1, seed=3))
    for A in (ideal, noisy):
        beta2 = default_beta2(A)
        for k in (1, 3, None):
            got, want = lowrank_iterate(A, None, k), lowrank_iterate(A, beta2, k)
            assert np.array_equal(got.U, want.U)
            assert np.array_equal(got.sigma, want.sigma)


def test_weighted_factor_keeps_the_exact_rank():
    # c = n here (the weights make no two nodes equivalent) while the rank
    # is 4; the small eigenvalues of S_k sit near eps * ||S_k|| and their
    # square roots above the 1e-10 cutoff, so a factor taken from an
    # eigendecomposition of S_k would keep them.  [A L, A^T L] does not.
    base, _, _ = generate_structure("block_cycle", (6, 5, 7, 4))
    d = np.random.default_rng(0).uniform(0.5, 2.0, base.n)
    W = apply_rank_one_weights(base, d)
    assert W.quotient.c == W.n
    beta2 = default_beta2(W)
    for k in (1, 3, 6, None):
        state = lowrank_iterate(W, beta2, k=k, trunc_tol=1e-10)
        if k is None:
            S = fixed_point(W, beta2).S
        else:
            S = iterate(W, beta2, k).S
        assert state.r == 4
        assert np.linalg.norm(state.U @ state.U.T - S) <= 1e-12 * np.linalg.norm(S)


def _stack_graphs():
    """An ideal graph (4 classes), a noisy one and a rank-one weighted one
    (no two nodes equivalent in either)."""
    ideal, _, _ = generate_structure("block_cycle", (6, 5, 7, 4))
    noisy, _, _ = generate_structure("block_cycle", (10, 10, 10, 10))
    noisy = perturb(noisy, PerturbationModel(p_in=0.1, p_out=0.1, seed=3))
    d = np.random.default_rng(0).uniform(0.5, 2.0, ideal.n)
    weighted = apply_rank_one_weights(ideal, d)
    assert (ideal.quotient.c, noisy.quotient.c, weighted.quotient.c) == (4, 40, 22)
    return ideal, noisy, weighted


@pytest.mark.parametrize("k", [1, 3, 6])
def test_the_stack_factors_the_iterate_at_a_finite_depth(k):
    for A in _stack_graphs():
        beta2 = default_beta2(A)
        F, state = _similarity_stack(A, beta2, k)
        S = iterate(_quotient_graph(A), beta2, k).S
        assert F.shape == (A.quotient.c, 2 * A.quotient.c)
        assert (state is None) == (k == 1)
        assert np.linalg.norm(F @ F.T - S) <= 1e-12 * np.linalg.norm(S)


def test_the_stack_at_the_fixed_point_lies_within_the_solve_residual():
    # F F^T = G[I + beta^2 S] for the solve's S, whose true residual is at
    # most DEFAULT_TOL ||S||; forming F F^T adds rounding of about c eps
    for A in _stack_graphs():
        F, state = _similarity_stack(A, None, None)
        want = fixed_point(_quotient_graph(A))
        assert (state.k, state.beta2, state.converged) == (want.k, want.beta2, True)
        assert np.array_equal(state.S, want.S)
        c = A.quotient.c
        bound = DEFAULT_TOL + 4 * c * np.finfo(float).eps
        assert np.linalg.norm(F @ F.T - state.S) <= bound * np.linalg.norm(state.S)


def test_estimate_rank_on_ideal_spectrum():
    assert estimate_rank(IDEAL_SIGMA_A, 0.01) == 4


def test_estimate_rank_flat_spectrum_returns_full_length():
    assert estimate_rank([3.0, 3.0, 3.0, 3.0], 0.01) == 4


def test_estimate_rank_on_perturbed_similarity_spectrum():
    assert estimate_rank(PERTURBED_SIGMA_S, 0.5) == 4


def test_estimate_rank_rejects_empty_input():
    with pytest.raises(ValueError):
        estimate_rank([], 0.1)


def test_lowrank_nonconvergence_history_has_one_residual_per_iteration(monkeypatch):
    # CG needs 14 iterations on this graph at the default tolerance, and
    # beta_bound's Lanczos one, so each cap is the solve's
    A = Adjacency.from_matrix(THREE_PERMUTATIONS)
    beta2 = default_beta2(A)
    for max_k in (2, 3, 6):
        monkeypatch.setattr(similarity, "DEFAULT_MAX_K", max_k)
        with pytest.raises(NonConvergenceError) as info:
            lowrank_iterate(A, beta2, k=None)
        state, history = info.value.state, info.value.history
        assert isinstance(state, SimilarityState)
        assert state.k == max_k
        # the fixed point is a CG solve: one relative residual per iteration
        assert len(history) == max_k
        assert all(h > DEFAULT_TOL for h in history)


def test_lowrank_nonconvergence_carries_the_fixed_point_state(monkeypatch):
    # past the cap the error is the similarity solve's, as from fixed_point:
    # the n x n state of the last CG iterate and its residual history, on a
    # graph with no equivalent nodes and on one with 12 classes of 24
    # nodes, where CG needs 14 iterations and beta_bound's Lanczos one
    graph = Adjacency.from_matrix(THREE_PERMUTATIONS)
    classes = Adjacency.from_matrix(DOUBLED_PERMUTATIONS)
    assert (graph.quotient.c, classes.quotient.c, classes.n) == (12, 12, 24)
    monkeypatch.setattr(similarity, "DEFAULT_MAX_K", 2)
    for A in (graph, classes):
        beta2 = 0.99 / beta_bound(A)
        with pytest.raises(NonConvergenceError) as dense:
            fixed_point(A, beta2)
        with pytest.raises(NonConvergenceError) as info:
            lowrank_iterate(A, beta2, k=None)
        state, want = info.value.state, dense.value.state
        assert isinstance(state, SimilarityState) and isinstance(want, SimilarityState)
        assert (state.k, state.beta2, state.converged) == (2, beta2, False)
        assert state.S.shape == (A.n, A.n)
        assert np.linalg.norm(state.S - want.S) <= 1e-12 * np.linalg.norm(want.S)
        assert info.value.history == pytest.approx(dense.value.history, rel=1e-9)


@pytest.mark.parametrize("bad", [{"max_k": 0}], ids=["max_k=0"])
def test_lowrank_rejects_bad_fixed_point_settings_before_any_solve(monkeypatch, bad):
    # the solve's step cap is no argument: max_k is a TypeError
    def boom(*args, **kwargs):
        raise AssertionError("a solve ran before the settings were checked")
    for name in ("beta_bound", "gamma", "_gamma_into"):
        monkeypatch.setattr(similarity, name, boom)
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    for k in (None, 3):
        with pytest.raises(TypeError, match=next(iter(bad))):
            lowrank_iterate(A, 0.01, k=k, **bad)


def test_lowrank_validates_arguments():
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        lowrank_iterate(A, 0.01, k=0)
    with pytest.raises(ValueError):
        lowrank_iterate(A, 0.01, k=2, trunc_tol=0.0)
    with pytest.raises(ValueError):
        lowrank_iterate(Adjacency.from_matrix(np.zeros((2, 2))), 0.01, k=2)


# ---------------------------------------------------------------------------
# _compress: wide stacks go through the QR of the transpose, tall ones
# through the QR of the stack itself; both must be the SVD of the stack
# ---------------------------------------------------------------------------

COMPRESS_SHAPES = [(30, 97), (40, 120), (25, 25), (60, 9), (1, 6), (6, 1)]


def _stack_with_spectrum(rng, shape, s):
    """Random m x w matrix with singular values s (len(s) = min(m, w))."""
    m, w = shape
    X, _ = np.linalg.qr(rng.standard_normal((m, len(s))))
    Y, _ = np.linalg.qr(rng.standard_normal((w, len(s))))
    return (X * s) @ Y.T


@pytest.mark.parametrize("shape", COMPRESS_SHAPES)
def test_compress_is_the_svd_of_the_stack(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    F = rng.standard_normal(shape)
    U, sigma = _compress(F, 1e-12)
    want = np.linalg.svd(F, compute_uv=False)
    assert U.shape == (shape[0], min(shape))          # nothing truncated
    G = F @ F.T
    assert np.linalg.norm(U @ U.T - G) <= 1e-12 * np.linalg.norm(G)
    assert np.allclose(sigma, want, rtol=0, atol=1e-12 * want[0])
    Q = U / sigma
    assert np.allclose(Q.T @ Q, np.eye(U.shape[1]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", COMPRESS_SHAPES)
def test_compress_keeps_exactly_the_values_above_the_cutoff(shape):
    rng = np.random.default_rng(7 * shape[0] + shape[1])
    r = min(shape)
    # a spectrum spread over 8 decades, so no value lies near a cutoff
    s = np.logspace(0, -8, r) if r > 1 else np.ones(1)
    s = s * (1 + 0.3 * rng.random(r))
    s = np.sort(s)[::-1]
    F = _stack_with_spectrum(rng, shape, s)
    want = np.linalg.svd(F, compute_uv=False)
    for trunc_tol in (0.5, 1e-3, 1e-6, 1e-9):
        U, sigma = _compress(F, trunc_tol)
        kept = want[want >= trunc_tol * want[0]]
        assert sigma.size == kept.size == U.shape[1]
        assert np.allclose(sigma, kept, rtol=0, atol=1e-12 * want[0])
        Q = U / sigma
        assert np.allclose(Q.T @ Q, np.eye(sigma.size), rtol=0, atol=1e-10)


def test_compress_keeps_a_value_exactly_at_the_cutoff():
    # powers of two keep every product exact, so 2^-10 sits exactly on the
    # cutoff 2^-11 * s0 and must be kept; 2^-12 must not
    s = np.array([2.0, 2.0 ** -10, 2.0 ** -12])
    for F in (np.diag(s), np.hstack([np.diag(s), np.zeros((3, 5))]),
              np.vstack([np.diag(s), np.zeros((5, 3))])):
        _, sigma = _compress(F, 2.0 ** -11)
        assert np.array_equal(sigma, s[:2])


def test_compress_of_a_zero_stack_is_empty():
    for shape in [(4, 9), (9, 4)]:
        U, sigma = _compress(np.zeros(shape), 1e-3)
        assert U.shape == (shape[0], 0) and sigma.size == 0


# ---------------------------------------------------------------------------
# the thin similarity: S_k ~= X X^T at a fixed rank, by subspace iteration
# ---------------------------------------------------------------------------

def test_the_thin_ritz_values_match_the_dense_similarity():
    # 10%-flipped 4-role block cycles of 200 nodes, depth 6, rank 8: the
    # role eigenvalues of S_6 lead its spectrum, and the fixed-rank
    # similarity keeps them to about 4e-5 relative (the dropped tail of
    # each iterate moves them a little); X X^T has the kept Ritz values as
    # its eigenvalues
    rng = np.random.default_rng(200)
    for seed in range(4):
        A, _, _ = generate_structure("block_cycle", (50,) * 4, perm=rng.permutation(200))
        A = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=seed))
        quotient = A.quotient
        assert quotient.c == 200
        beta2 = default_beta2(A)
        X, theta = _thin_similarity(quotient.entries, quotient.sizes, beta2, 6, 8)
        assert X.shape == (200, 8) and theta.size == 16
        want = np.linalg.eigvalsh(iterate(A, beta2, 6).S)[::-1]
        np.testing.assert_allclose(theta[:4], want[:4], rtol=1e-4, atol=0)
        np.testing.assert_allclose(np.linalg.eigvalsh(X.T @ X)[::-1], theta[:8],
                                   rtol=1e-10, atol=0)
