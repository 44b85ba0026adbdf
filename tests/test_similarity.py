import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    RANK_DEFICIENT,
    RANK_DEFICIENT_S1,
    SIGNED_EXAMPLE,
    SLOW_CG,
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
    lowrank_iterate,
    pattern_counts,
    perturb,
    scaled_fixed_point,
    scaled_iterate,
    similarity,
    spectrum_report,
)
from rolekit.similarity import resolve_beta2

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


def dense_beta_bound(A) -> float:
    """The dense power iteration beta_bound ran before its factored regime:
    on the quotient, from I_c / sqrt(n), until the estimate settles."""
    quotient = A.quotient
    M = quotient.entries
    X = np.eye(quotient.c) / np.sqrt(A.n)
    estimate = 0.0
    for _ in range(10000):
        Y = M @ X @ M.T + M.T @ X @ M
        Y = (Y + Y.T) / 2
        norm = float(np.linalg.norm(Y))
        if estimate > 0.0 and abs(norm - estimate) <= 1e-10 * estimate:
            return norm
        X = Y / norm
        estimate = norm
    raise AssertionError("the dense power iteration did not settle")


def _signs(n, seed):
    return np.where(np.random.default_rng(seed).random(n) < 0.5, -1.0, 1.0)


def _hard_graph(name):
    rng = np.random.default_rng(0)
    if name == "sparse_er":        # c = 414: no dominant low-rank eigenvector
        return (rng.random((500, 500)) < 0.002).astype(float)
    if name == "er_p05":           # a truncation floor near 3e-7 at rank 8
        return (rng.random((500, 500)) < 0.05).astype(float)
    if name == "directed_cycle":   # eigenvalues of G at +rho and -rho
        return np.roll(np.eye(60), 1, axis=1)
    if name == "bipartite":        # edges only between two parts: -rho too
        M = np.zeros((60, 60))
        M[:25, 25:] = rng.random((25, 35)) < 0.3
        M[25:, :25] = rng.random((35, 25)) < 0.2
        return M
    if name == "checkerboard_signed":
        base = perturb(generate_structure("block_cycle", (10, 12, 9, 11))[0],
                       PerturbationModel(p_in=0.1, p_out=0.1, seed=4)).entries
        d = _signs(base.shape[0], 4)
        return d[:, None] * base * d[None, :]
    if name == "rank_one_weighted":   # c = n = 220, rank-4 eigenvector
        A, _, _ = generate_structure("block_cycle", (60, 50, 70, 40))
        return apply_rank_one_weights(A, rng.uniform(0.5, 2.0, A.n)).entries
    if name.startswith("c"):       # c just above the exact switch at 2r = 16
        c = int(name[1:])
        return (np.random.default_rng(c).random((c, c)) < 0.3).astype(float)
    raise KeyError(name)


@pytest.mark.parametrize("name", ["sparse_er", "er_p05", "directed_cycle",
                                  "bipartite", "checkerboard_signed",
                                  "rank_one_weighted", "c17", "c18", "c24"])
def test_beta_bound_agrees_with_the_dense_iteration(name):
    A = Adjacency.from_matrix(_hard_graph(name))
    assert beta_bound(A) == pytest.approx(dense_beta_bound(A), rel=1e-10)


def test_beta_bound_matches_kronecker_oracle_past_the_exact_switch():
    rng = np.random.default_rng(17)
    for _ in range(6):
        A = random_digraph(rng, n_max=30, n_min=17)
        assert A.quotient.c > 16
        assert beta_bound(A) == pytest.approx(kron_rho(A), rel=1e-9)


def test_beta_bound_keeps_a_thin_factor_on_noisy_block_cycles(monkeypatch):
    A, _, _ = generate_structure("block_cycle", (50, 50, 50, 50))
    noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=7))
    assert noisy.quotient.c == 200
    widths = []
    compress = similarity._compress

    def spy(F, trunc_tol):
        widths.append(F.shape[1])
        return compress(F, trunc_tol)

    monkeypatch.setattr(similarity, "_compress", spy)
    rho = beta_bound(noisy)
    # the start compresses one 2c-wide stack; every step after it is thin
    assert widths[0] == 400 and max(widths[1:]) <= 32
    assert rho == pytest.approx(dense_beta_bound(noisy), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), density=st.floats(0.05, 0.6),
       signed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_beta_bound_is_invariant_under_node_permutation(n, density, signed, seed):
    rng = np.random.default_rng(seed)
    M = (rng.random((n, n)) < density).astype(float)
    assume(M.any())
    if signed:
        d = _signs(n, seed)
        M = d[:, None] * M * d[None, :]
    perm = rng.permutation(n)
    before = beta_bound(Adjacency.from_matrix(M))
    after = beta_bound(Adjacency.from_matrix(M[np.ix_(perm, perm)]))
    assert after == pytest.approx(before, rel=1e-9)


def test_beta_bound_nonconvergence_history_has_one_change_per_step(monkeypatch):
    # slow_cg runs the exact iteration (c = 6) and er_p05 the factored one;
    # c24 runs 7 factored steps, then restarts in the exact regime
    for name, max_ks in (("slow_cg", (2, 4, 7)), ("er_p05", (2, 4, 7)),
                         ("c24", (2, 7, 10))):
        A = Adjacency.from_matrix(SLOW_CG if name == "slow_cg" else _hard_graph(name))
        rho = dense_beta_bound(A)
        for max_k in max_ks:
            monkeypatch.setattr(similarity, "DEFAULT_MAX_K", max_k)
            with pytest.raises(NonConvergenceError) as info:
                beta_bound(A)
            history = info.value.history
            # every step after the first compares its estimate with the last one
            assert len(history) == max_k - 1
            assert all(h > 1e-10 for h in history)
            # every estimate is a lower bound on rho
            assert 0 < info.value.state <= rho * (1 + 1e-12)


def test_beta_bound_rejects_zero_graph():
    with pytest.raises(ValueError):
        beta_bound(Adjacency.from_matrix(np.zeros((3, 3))))


def test_gamma_of_identity_equals_the_general_operator():
    rng = np.random.default_rng(11)
    for n in (1, 7, 40, 130):
        M = (rng.random((n, n)) < 0.3).astype(float)
        signs = np.where(rng.random((n, n)) < 0.5, -1.0, 1.0)
        # integer entries: every sum is exact in either order
        for A in (Adjacency.from_matrix(M), Adjacency.from_matrix(M * signs)):
            want = similarity._sym(gamma(A, np.eye(n)))
            got = similarity._gamma_of_identity(A)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        W = Adjacency.from_matrix(M * rng.lognormal(0.0, 1.0, (n, n)))
        got = similarity._gamma_of_identity(W)
        np.testing.assert_allclose(got, similarity._sym(gamma(W, np.eye(n))),
                                   rtol=1e-14, atol=0)
        assert np.array_equal(got, got.T)


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


def no_solve(monkeypatch):
    """Make every similarity solve, and the bound it resolves beta2 against,
    fail the test if it runs."""
    def boom(*args, **kwargs):
        raise AssertionError("a solve ran before the settings were checked")
    for name in ("beta_bound", "_fixed_point", "iterate"):
        monkeypatch.setattr(similarity, name, boom)


BAD_SOLVE_SETTINGS = [{"tol": float("nan")}, {"max_k": 0}]


@pytest.mark.parametrize("bad", BAD_SOLVE_SETTINGS, ids=["tol=nan", "max_k=0"])
def test_fixed_point_rejects_bad_settings_before_any_solve(monkeypatch, bad):
    no_solve(monkeypatch)
    with pytest.raises(ValueError, match=next(iter(bad))):
        fixed_point(Adjacency.from_matrix(SLOW_CG), **bad)


@pytest.mark.parametrize("bad", BAD_SOLVE_SETTINGS, ids=["tol=nan", "max_k=0"])
def test_scaled_fixed_point_rejects_bad_settings_before_any_solve(monkeypatch, bad):
    A = Adjacency.from_matrix(SLOW_CG)
    d = np.linspace(0.5, 2.0, A.n)
    W = apply_rank_one_weights(A, d)
    no_solve(monkeypatch)
    with pytest.raises(ValueError, match=next(iter(bad))):
        scaled_fixed_point(W, d, **bad)


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


# ---------------------------------------------------------------------------
# oracles across the engine's paths, on random small graphs
# ---------------------------------------------------------------------------

def _random_graph(n, density, kind, seed):
    """A random digraph, unsigned, signed or weighted; None if empty."""
    rng = np.random.default_rng(seed)
    M = (rng.random((n, n)) < density).astype(float)
    if kind == "signed":
        M *= rng.choice([-1.0, 1.0], size=(n, n))
    elif kind == "weighted":
        M *= rng.uniform(0.2, 3.0, size=(n, n))
    return Adjacency.from_matrix(M) if M.any() else None


GRAPH_ARGS = dict(n=st.integers(1, 14), density=st.floats(0.05, 0.7),
                  kind=st.sampled_from(("unsigned", "signed", "weighted")),
                  seed=st.integers(0, 2**32 - 1))


def _close(X, Y, rel):
    return np.linalg.norm(X - Y) <= rel * max(np.linalg.norm(Y), 1e-300)


@settings(max_examples=40, deadline=None)
@given(**GRAPH_ARGS, k=st.integers(1, 6), fraction=st.floats(0.05, 0.95))
def test_iterate_and_fixed_point_commute_with_node_permutation(n, density, kind, seed,
                                                               k, fraction):
    A = _random_graph(n, density, kind, seed)
    assume(A is not None)
    beta2 = fraction / beta_bound(A)
    perm = np.random.default_rng(seed).permutation(n)
    B = Adjacency.from_matrix(A.entries[np.ix_(perm, perm)])
    # S(P A P^T) = P S(A) P^T
    assert _close(iterate(B, beta2, k).S, iterate(A, beta2, k).S[np.ix_(perm, perm)], 1e-12)
    assert _close(fixed_point(B, beta2).S, fixed_point(A, beta2).S[np.ix_(perm, perm)],
                  1e-9)


@settings(max_examples=40, deadline=None)
@given(**GRAPH_ARGS, k=st.integers(1, 6), fraction=st.floats(0.05, 0.95))
def test_the_factor_reproduces_the_dense_iterate(n, density, kind, seed, k, fraction):
    A = _random_graph(n, density, kind, seed)
    assume(A is not None)
    beta2 = fraction / beta_bound(A)
    U = lowrank_iterate(A, beta2, k=k).U
    assert _close(U @ U.T, iterate(A, beta2, k).S, 1e-9)


@settings(max_examples=40, deadline=None)
@given(**GRAPH_ARGS, fraction=st.floats(0.05, 0.95))
def test_the_fixed_point_factor_reproduces_the_dense_fixed_point(n, density, kind, seed,
                                                                 fraction):
    A = _random_graph(n, density, kind, seed)
    assume(A is not None)
    beta2 = fraction / beta_bound(A)
    U = lowrank_iterate(A, beta2).U
    # U U^T = G[I + beta^2 S] for the accepted S, within the residual of S
    assert _close(U @ U.T, fixed_point(A, beta2).S, 1e-9)
