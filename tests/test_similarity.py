import numpy as np
import pytest

from conftest import (
    RANK_DEFICIENT,
    RANK_DEFICIENT_S1,
    SIGNED_EXAMPLE,
    kron_rho,
    random_digraph,
    sin_max_angle,
)
from rolekit import (
    Adjacency,
    NonConvergenceError,
    PerturbationModel,
    apply_rank_one_weights,
    beta_bound,
    checkerboard_signature,
    default_beta2,
    extract_roles,
    fixed_point,
    gamma,
    generate_structure,
    iterate,
    pattern_counts,
    perturb,
    scaled_fixed_point,
    scaled_iterate,
    similarity,
    spectrum_report,
)
from rolekit.similarity import resolve_beta2

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


def kron_fixed_point(A, beta2):
    """Dense oracle: solve (I - beta^2 (A(x)A + A^T(x)A^T)) vec S = vec G[I]."""
    M = A.entries
    n = A.n
    K = np.kron(M, M) + np.kron(M.T, M.T)
    rhs = (M @ M.T + M.T @ M).ravel()
    return np.linalg.solve(np.eye(n * n) - beta2 * K, rhs).reshape(n, n)


def fixed_point_residual(A, state):
    """||S - G[I + beta^2 S]||_F / ||S||_F."""
    S = state.S
    return (np.linalg.norm(S - gamma(A, np.eye(A.n) + state.beta2 * S))
            / np.linalg.norm(S))


# ---------------------------------------------------------------------------
# the similarity operator
# ---------------------------------------------------------------------------

def test_gamma_single_edge_on_identity():
    A = Adjacency.from_matrix([[0, 1], [0, 0]])
    assert np.array_equal(gamma(A, np.eye(2)), np.eye(2))


def test_gamma_is_linear_in_zero():
    A = Adjacency.from_matrix([[0, 1], [1, 1]])
    assert np.array_equal(gamma(A, np.zeros((2, 2))), np.zeros((2, 2)))


def test_gamma_rank_deficient_example():
    A = Adjacency.from_matrix(RANK_DEFICIENT)
    assert np.array_equal(gamma(A, np.eye(3)), RANK_DEFICIENT_S1)


def test_gamma_rejects_shape_mismatch():
    A = Adjacency.from_matrix([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        gamma(A, np.eye(3))


def test_gamma_preserves_structure():
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = random_digraph(rng, n_max=10)
        X = rng.random((A.n, A.n))
        X = X @ X.T  # symmetric PSD nonnegative
        Y = gamma(A, X)
        assert np.allclose(Y, Y.T, atol=1e-12)
        assert np.linalg.eigvalsh((Y + Y.T) / 2).min() >= -1e-10 * max(
            1.0, np.linalg.norm(Y, 2))
        assert Y.min() >= 0


# ---------------------------------------------------------------------------
# admissible damping bound
# ---------------------------------------------------------------------------

def test_beta_bound_single_edge():
    A = Adjacency.from_matrix([[0, 1], [0, 0]])
    assert beta_bound(A) == pytest.approx(1.0, abs=1e-10)
    assert kron_rho(A) == pytest.approx(1.0, abs=1e-12)


def test_beta_bound_symmetric_doubles_square():
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    # for symmetric A the operator radius is 2 rho(A)^2
    assert beta_bound(A) == pytest.approx(2.0, rel=1e-9)


def test_beta_bound_matches_kronecker_oracle_on_reference():
    A = Adjacency.from_matrix(RANK_DEFICIENT)
    assert beta_bound(A) == pytest.approx(kron_rho(A), rel=1e-8)


def test_beta_bound_matches_kronecker_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(12):
        A = random_digraph(rng, n_max=12, n_min=3)
        assert beta_bound(A) == pytest.approx(kron_rho(A), rel=1e-6)


def test_beta_bound_rejects_zero_graph():
    with pytest.raises(ValueError):
        beta_bound(Adjacency.from_matrix(np.zeros((3, 3))))


# ---------------------------------------------------------------------------
# the recurrence and its fixed point
# ---------------------------------------------------------------------------

def test_iterate_collapses_without_damping():
    rng = np.random.default_rng(1)
    A = random_digraph(rng, n_max=8)
    S1 = gamma(A, np.eye(A.n))
    for k in (1, 3, 7):
        assert np.allclose(iterate(A, 0.0, k).S, S1, atol=1e-12)


def test_iterate_rank_deficient_example_depth_one():
    A = Adjacency.from_matrix(RANK_DEFICIENT)
    assert np.array_equal(iterate(A, 0.1, 1).S, RANK_DEFICIENT_S1)


def test_iterate_undirected_two_cycle_closed_form():
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    S3 = iterate(A, 0.1, 3).S
    assert np.allclose(S3, 2.48 * np.eye(2), atol=1e-12)


def test_fixed_point_without_damping_is_depth_one():
    A = Adjacency.from_matrix(RANK_DEFICIENT)
    state = fixed_point(A, 0.0)
    assert state.converged
    assert np.allclose(state.S, RANK_DEFICIENT_S1, atol=1e-12)


def test_fixed_point_undirected_two_cycle_geometric_series():
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    state = fixed_point(A, 0.1, tol=1e-13)
    assert np.allclose(state.S, 2.5 * np.eye(2), rtol=1e-10)


def test_fixed_point_small_block_cycle_reference_values():
    # B = 4-cycle, sizes (20,10,10,20).  On the role level the fixed point is
    # diag(2d, d, d, 2d) with d = 300 / (1 - 500 beta^2), so the singular
    # values of S_inf are {2d, 2d, d, d}.
    beta2 = 1.17953e-3
    d = 300.0 / (1.0 - 500.0 * beta2)
    A, _, _ = generate_structure("block_cycle", (20, 10, 10, 20))
    state = fixed_point(A, beta2, tol=1e-12)
    sv = np.linalg.svd(state.S, compute_uv=False)
    assert np.allclose(sv[:4], [2 * d, 2 * d, d, d], rtol=1e-8)
    # printed reference values reproduce to 1e-3 relative
    assert np.allclose(sv[:4], [1462.5824, 1462.5824, 731.2912, 731.2912],
                       rtol=1e-3)
    assert sv[4] < 1e-8 * sv[0]


def test_fixed_point_rejects_beta_at_or_above_bound():
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        fixed_point(A, 0.5)       # exactly at 1/rho
    with pytest.raises(ValueError):
        fixed_point(A, 0.6)


def test_fixed_point_nonconvergence_carries_state():
    A = Adjacency.from_matrix(SLOW_CG)
    with pytest.raises(NonConvergenceError) as info:
        fixed_point(A, 0.9 / beta_bound(A), tol=1e-15, max_k=3)
    assert info.value.state is not None
    assert info.value.state.k == 3
    assert not info.value.state.converged


def test_fixed_point_nonconvergence_history_has_one_residual_per_iteration():
    A = Adjacency.from_matrix(SLOW_CG)
    for max_k in (1, 3, 5):
        with pytest.raises(NonConvergenceError) as info:
            fixed_point(A, 0.9 / beta_bound(A), tol=1e-15, max_k=max_k)
        history = info.value.history
        assert len(history) == max_k
        assert all(h > 1e-15 for h in history)


def test_fixed_point_two_cycle_near_the_bound_is_one_iteration():
    # G[I] = 2 I is an eigenvector of G, so CG solves S = 2 I + 0.98 S at once
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    state = fixed_point(A, 0.49, tol=1e-15, max_k=3)
    assert state.converged
    assert state.k == 1
    assert np.allclose(state.S, 100.0 * np.eye(2), rtol=1e-12, atol=0)


def test_fixed_point_matches_kronecker_solve():
    rng = np.random.default_rng(53)
    graphs = [random_digraph(rng, n_max=8) for _ in range(20)]
    graphs.append(Adjacency.from_matrix(SIGNED_EXAMPLE))
    for A in graphs:
        state = fixed_point(A)
        want = kron_fixed_point(A, state.beta2)
        assert np.linalg.norm(state.S - want) <= 1e-9 * np.linalg.norm(want)
        assert np.array_equal(state.S, state.S.T)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_fixed_point_true_residual_within_tol(tol):
    rng = np.random.default_rng(59)
    for _ in range(10):
        A = random_digraph(rng, n_max=12, n_min=3)
        state = fixed_point(A, 0.95 / beta_bound(A), tol=tol)
        assert fixed_point_residual(A, state) <= tol


def test_fixed_point_agrees_with_deep_recurrence():
    rng = np.random.default_rng(61)
    for _ in range(10):
        A = random_digraph(rng, n_max=10, n_min=3)
        beta2 = default_beta2(A)
        S = fixed_point(A, beta2).S
        deep = iterate(A, beta2, 400).S
        assert np.linalg.norm(S - deep) <= 1e-9 * np.linalg.norm(deep)


def test_fixed_point_iteration_count_on_noisy_block_cycle():
    perm = np.random.default_rng(67).permutation(200)
    A, _, _ = generate_structure("block_cycle", (50, 50, 50, 50), perm=perm)
    noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=1))
    state = fixed_point(noisy)
    assert state.converged
    assert state.k <= 40


# ---------------------------------------------------------------------------
# damping resolution
# ---------------------------------------------------------------------------

def count_beta_bound(monkeypatch):
    calls = []
    original = similarity.beta_bound

    def counted(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(similarity, "beta_bound", counted)
    return calls


def test_resolve_beta2_default_and_user_values():
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    assert resolve_beta2(A, None) == pytest.approx((0.405, 2.0), rel=1e-9)
    beta2, rho = resolve_beta2(A, 0.3)
    assert beta2 == 0.3
    assert rho == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(ValueError, match="admissible bound"):
        resolve_beta2(A, 0.5)


def test_resolve_beta2_rejects_negative_before_the_bound(monkeypatch):
    calls = count_beta_bound(monkeypatch)
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="non-negative"):
        resolve_beta2(A, -0.1)
    with pytest.raises(ValueError, match="non-negative"):
        extract_roles(A, beta2=-0.1)
    assert calls == []


def test_spectrum_report_computes_the_bound_once(monkeypatch):
    calls = count_beta_bound(monkeypatch)
    A, _, _ = generate_structure("block_cycle", (3, 2, 2, 3))
    report = spectrum_report(A)
    assert len(calls) == 1
    assert report.beta2_source == "auto-0.81/rho"
    assert report.beta2 == pytest.approx(0.81 / beta_bound(A), rel=1e-12)
    spectrum_report(A, k=3)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# pattern counts
# ---------------------------------------------------------------------------

def test_pattern_counts_depth_one_matches_s1():
    A = Adjacency.from_matrix(RANK_DEFICIENT)
    counts = pattern_counts(A, 1)
    assert counts[0].ell == 1
    assert np.array_equal(counts[0].N, RANK_DEFICIENT_S1)


def test_pattern_counts_zero_graph_all_zero():
    A = Adjacency.from_matrix(np.zeros((4, 4)))
    for pc in pattern_counts(A, 3):
        assert not pc.N.any()


def test_pattern_counts_length_two_expansion():
    rng = np.random.default_rng(8)
    M = (rng.random((8, 8)) < 0.4).astype(float)
    A = Adjacency.from_matrix(M)
    N2 = pattern_counts(A, 2)[1].N
    want = (M @ M @ M.T @ M.T + M @ M.T @ M @ M.T
            + M.T @ M @ M.T @ M + M.T @ M.T @ M @ M)
    assert np.allclose(N2, want, atol=1e-9)


def test_pattern_counts_partial_sum_identity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        A = random_digraph(rng, n_max=12)
        beta2 = 0.9 * default_beta2(A)
        counts = pattern_counts(A, 5)
        acc = np.zeros((A.n, A.n))
        for pc in counts:
            acc = acc + beta2 ** (pc.ell - 1) * pc.N
            Sk = iterate(A, beta2, pc.ell).S
            assert np.allclose(Sk, acc, rtol=1e-10)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_iterates_share_image_with_compound_matrix():
    rng = np.random.default_rng(23)
    for _ in range(20):
        A = random_digraph(rng, n_max=12, n_min=3)
        compound = np.hstack([A.entries, A.entries.T])
        r = np.linalg.matrix_rank(compound)
        beta2 = default_beta2(A)
        for k in (1, 2, 5):
            S = iterate(A, beta2, k).S
            assert np.linalg.matrix_rank(S) == r
            assert sin_max_angle(S, compound) < 1e-8


def test_iterates_monotone_in_loewner_order():
    rng = np.random.default_rng(29)
    for _ in range(10):
        A = random_digraph(rng, n_max=10)
        beta2 = default_beta2(A)
        prev = iterate(A, beta2, 1).S
        for k in range(2, 6):
            cur = iterate(A, beta2, k).S
            lam_min = np.linalg.eigvalsh(cur - prev).min()
            assert lam_min >= -1e-9 * np.linalg.norm(cur, 2)
            prev = cur


def test_similarity_state_invariants():
    rng = np.random.default_rng(31)
    for _ in range(8):
        A = random_digraph(rng, n_max=10)
        S = fixed_point(A).S
        assert np.allclose(S, S.T, atol=1e-12 * max(1, abs(S).max()))
        assert np.linalg.eigvalsh(S).min() >= -1e-10 * np.linalg.norm(S, 2)
        assert S.min() >= 0  # unsigned input


def test_bipartite_blocks_stay_exactly_zero():
    rng = np.random.default_rng(37)
    n1, n2 = 4, 5
    M = np.zeros((n1 + n2, n1 + n2))
    M[:n1, n1:] = (rng.random((n1, n2)) < 0.6)
    M[n1:, :n1] = (rng.random((n2, n1)) < 0.6)
    A = Adjacency.from_matrix(M)
    for k in (1, 2, 4):
        S = iterate(A, default_beta2(A), k).S
        assert not S[:n1, n1:].any()
        assert not S[n1:, :n1].any()


def test_checkerboard_conjugation_identity():
    A = Adjacency.from_matrix(SIGNED_EXAMPLE)
    Q = checkerboard_signature(A)
    beta2 = default_beta2(A)
    for k in (1, 2, 4):
        S_signed = iterate(A, beta2, k).S
        S_plain = iterate(abs(A), beta2, k).S
        assert np.array_equal(S_plain, Q.conjugate(S_signed))
        assert np.array_equal(S_plain, np.abs(S_signed))


def test_undirected_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(3, 10))
        M = (rng.random((n, n)) < 0.4).astype(float)
        M = np.triu(M, 1)
        M = M + M.T
        if not M.any():
            M[0, 1] = M[1, 0] = 1.0
        A = Adjacency.from_matrix(M)
        beta2 = 0.9 / (2 * np.linalg.norm(M, 2) ** 2)
        A2 = M @ M
        for k in (1, 2, 4):
            S = iterate(A, beta2, k).S
            want = np.zeros_like(M)
            term = 2 * A2
            for _ell in range(k):
                want = want + term
                term = term @ (2 * beta2 * A2)
            assert np.allclose(S, want, rtol=1e-10)


def test_divergence_outside_the_admissible_region():
    rng = np.random.default_rng(43)
    for _ in range(5):
        A = random_digraph(rng, n_max=10, n_min=4)
        rho = beta_bound(A)
        good = fixed_point(A, 0.9 / rho, tol=1e-10)
        assert good.converged
        norms = [np.linalg.norm(iterate(A, 1.1 / rho, k).S) for k in (1, 50)]
        assert norms[1] > 10 * norms[0]


# ---------------------------------------------------------------------------
# rank-one weighted graphs
# ---------------------------------------------------------------------------

def test_scaled_iteration_with_unit_weights_matches_plain():
    A, _, _ = generate_structure("community", (3, 4))
    W = apply_rank_one_weights(A, np.ones(A.n))
    plain = fixed_point(A, 0.01, tol=1e-12)
    scaled = scaled_fixed_point(W, np.ones(A.n), 0.01, tol=1e-12)
    assert np.allclose(scaled.S, plain.S, rtol=1e-10)


def test_scaled_first_step_direct_value():
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    d = np.array([2.0, 3.0])
    W = apply_rank_one_weights(A, d)
    S1D = scaled_iterate(W, d, 0.01, 1).S
    assert np.allclose(S1D, [[8, 0], [0, 18]], atol=1e-12)


def test_scaled_iterates_equal_conjugated_plain_iterates():
    rng = np.random.default_rng(47)
    for _ in range(6):
        A, _, _ = generate_structure("block_cycle", rng.integers(2, 5, size=3))
        d = rng.uniform(0.5, 2.0, size=A.n)
        W = apply_rank_one_weights(A, d)
        beta2 = 0.5 * default_beta2(A)
        for k in (1, 2, 4):
            SD = scaled_iterate(W, d, beta2, k).S
            S = iterate(A, beta2, k).S
            assert np.allclose(SD, d[:, None] * S * d[None, :], rtol=1e-10)


def test_scaled_fixed_point_matches_deep_scaled_recurrence():
    rng = np.random.default_rng(71)
    for _ in range(6):
        A = random_digraph(rng, n_max=10, n_min=3)
        d = rng.uniform(0.3, 3.0, size=A.n)
        W = apply_rank_one_weights(A, d)
        beta2 = default_beta2(A)
        SD = scaled_fixed_point(W, d, beta2).S
        deep = scaled_iterate(W, d, beta2, 400).S
        assert np.linalg.norm(SD - deep) <= 1e-9 * np.linalg.norm(deep)


def test_scaled_fixed_point_nonconvergence_carries_weighted_state():
    A = Adjacency.from_matrix(SLOW_CG)
    d = np.linspace(0.5, 2.0, A.n)
    W = apply_rank_one_weights(A, d)
    beta2 = 0.9 / beta_bound(A)
    with pytest.raises(NonConvergenceError) as info:
        scaled_fixed_point(W, d, beta2, tol=1e-15, max_k=3)
    with pytest.raises(NonConvergenceError) as plain:
        fixed_point(A, beta2, tol=1e-15, max_k=3)
    assert info.value.state.k == 3
    assert len(info.value.history) == 3
    assert np.allclose(info.value.state.S,
                       d[:, None] * plain.value.state.S * d[None, :], rtol=1e-12)


def test_scaled_rejects_non_rank_one_weighted_input():
    M = np.array([[0.0, 2.0], [5.0, 0.0]])
    with pytest.raises(ValueError):
        scaled_iterate(Adjacency.from_matrix(M), np.array([1.0, 1.0]), 0.01, 1)
