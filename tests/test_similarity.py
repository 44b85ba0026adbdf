import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    RANK_DEFICIENT,
    RANK_DEFICIENT_S1,
    SIGNED_EXAMPLE,
    SLOW_CG,
    THREE_PERMUTATIONS,
    kron_rho,
    lanczos_rho,
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
from rolekit.similarity import (
    DEFAULT_MAX_K,
    DEFAULT_TOL,
    SimilarityState,
    _fixed_point,
    resolve_beta2,
)

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
    # at most 12 classes, so Lanczos runs from the first step
    rng = np.random.default_rng(42)
    for _ in range(12):
        A = random_digraph(rng, n_max=12, n_min=3)
        assert beta_bound(A) == pytest.approx(kron_rho(A), rel=1e-12)


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
    if name.startswith("c"):       # c just above 2r = 16, where the factored regime runs
        c = int(name[1:])
        return (np.random.default_rng(c).random((c, c)) < 0.3).astype(float)
    raise KeyError(name)


@pytest.mark.parametrize("name", ["sparse_er", "er_p05", "directed_cycle",
                                  "bipartite", "checkerboard_signed",
                                  "rank_one_weighted", "c17", "c18", "c24"])
def test_beta_bound_agrees_with_the_dense_iteration(name):
    # each graph against an oracle with a stop that bounds its error, not
    # one that stops where an estimate settles: kron_rho on at most 30
    # classes, 2 d^2 on the regular directed cycle (in- and out-degree 1,
    # so G[1 1^T] = 2 (1 1^T)), and else the reorthogonalized
    # Lanczos of conftest, a dense iteration on c x c matrices.  er_p05 is
    # settled by the factored regime, whose stop (a relative change of at
    # most 1e-10 in one step) leaves it 2.5e-12 low; the others reach Lanczos
    A = Adjacency.from_matrix(_hard_graph(name))
    if name == "directed_cycle":
        rho = 2.0
    else:
        rho = kron_rho(A.quotient.entries) if A.quotient.c <= 30 else lanczos_rho(A)
    assert beta_bound(A) == pytest.approx(rho, rel=1e-10 if name == "er_p05" else 1e-12)


def test_beta_bound_lanczos_applies_g_into_buffers_allocated_once(monkeypatch):
    # Lanczos applies G through _gamma_into, into three c x c buffers and
    # one pair of work buffers allocated once, and agrees with the
    # Kronecker sum: from the first step on at most 16 classes (c = 9),
    # where no start block is grown, and once the factored rank doubles
    # past c / 2 (c = 17)
    applied, starts = [], []
    original_gamma, original_start = similarity._gamma_into, similarity._start_block

    def gamma_spy(M, X, out, work, *rest):
        applied.append((X.shape, out is X, id(out), id(work)))
        return original_gamma(M, X, out, work, *rest)

    def start_spy(M, v, width):
        starts.append(M.shape[0])
        return original_start(M, v, width)

    monkeypatch.setattr(similarity, "_gamma_into", gamma_spy)
    monkeypatch.setattr(similarity, "_start_block", start_spy)
    small = generate_structure("block_cycle", (3, 4, 2, 5, 3, 4, 2, 6, 3))[0]
    A = Adjacency.from_matrix(_hard_graph("c17"))
    for graph, c in ((small, 9), (A, 17)):
        applied.clear()
        assert graph.quotient.c == c
        assert beta_bound(graph) == pytest.approx(kron_rho(graph.quotient.entries), rel=1e-13)
        assert {(shape, aliased) for shape, aliased, _, _ in applied} == {((c, c), False)}
        assert len({out for _, _, out, _ in applied}) == 3
        assert len({work for _, _, _, work in applied}) == 1
    assert starts == [17]
    assert len(applied) == 14   # 2r = 16 < c = 17 at the start


def test_beta_bound_on_a_graph_is_beta_bound_on_its_quotient_graph():
    # no regime reads n, so rho on A and on the quotient graph A_hat agree
    # bit for bit: in Lanczos (from the first step at c = 9 and on every
    # signed graph, at c = 17 to 20 after the rank doubles to 16) and in the
    # factored regime (c = 40, unsigned), on graphs with equivalent nodes
    # (c < n), unsigned and signed alike
    rng = np.random.default_rng(5)
    for c in (9, 17, 18, 20, 40):
        for signed in (False, True):
            M = (rng.random((c, c)) < 0.3).astype(float)
            if signed:
                d = _signs(c, c)
                M = d[:, None] * M * d[None, :]
            labels = rng.permutation(np.concatenate([np.arange(c), rng.integers(0, c, 7)]))
            A = Adjacency.from_matrix(M[np.ix_(labels, labels)])
            assert A.quotient.c == c < A.n
            on_quotient = beta_bound(similarity._quotient_graph(A))
            assert beta_bound(A) == on_quotient
            assert on_quotient == pytest.approx(lanczos_rho(A), rel=1e-9)


def test_beta_bound_matches_kronecker_oracle_on_17_to_30_nodes():
    rng = np.random.default_rng(17)
    for _ in range(6):
        A = random_digraph(rng, n_max=30, n_min=17)
        assert A.quotient.c > 16
        assert beta_bound(A) == pytest.approx(kron_rho(A), rel=1e-9)


def _random_quotient(rng, c, kind):
    """A random c-node graph of the kind, redrawn until it has an edge and
    no two equivalent nodes."""
    while True:
        M = (rng.random((c, c)) < rng.uniform(0.1, 0.5)).astype(float)
        if kind == "signed":
            M *= np.where(rng.random((c, c)) < 0.5, -1.0, 1.0)
        if kind == "weighted":
            M *= rng.lognormal(0.0, 1.0, (c, c))
        if kind == "undirected":
            M = np.triu(M)
            M += M.T
        if M.any() and Adjacency.from_matrix(M).quotient.c == c:
            return M


@pytest.mark.parametrize("kind", ["unsigned", "signed", "weighted", "undirected"])
def test_lanczos_matches_the_kronecker_sum_on_random_quotients(kind, monkeypatch):
    # with no start block Lanczos runs from the first step, as it does on
    # at most 16 classes and once the factored rank has doubled past c / 2:
    # from 1 1^T / c on A_hat >= 0, from I_c / sqrt(c) on a signed A_hat.
    # On at most 16 classes it takes at most 100 steps
    monkeypatch.setattr(similarity, "_start_block", lambda *args: None)
    steps = []
    original = similarity._gamma_into
    monkeypatch.setattr(similarity, "_gamma_into",
                        lambda *args: steps.append(1) or original(*args))
    rng = np.random.default_rng(29)
    for c in (17, 24, 31, 40, 1, 2, 9, 16):
        M = _random_quotient(rng, c, kind)
        steps.clear()
        assert beta_bound(Adjacency.from_matrix(M)) == pytest.approx(kron_rho(M), rel=1e-13)
        assert c > 16 or len(steps) <= 100


def test_beta_bound_keeps_a_thin_factor_on_noisy_block_cycles(monkeypatch):
    A, _, _ = generate_structure("block_cycle", (50, 50, 50, 50))
    noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=7))
    assert noisy.quotient.c == 200
    starts, widths = [], []
    original_start, original_ritz = similarity._start_block, similarity._ritz

    def start_spy(M, v, width):
        starts.append((M.shape, v.tolist() == [1.0] * M.shape[0], width))
        return original_start(M, v, width)

    def ritz_spy(T):
        widths.append(T.shape[0])
        return original_ritz(T)

    monkeypatch.setattr(similarity, "_start_block", start_spy)
    monkeypatch.setattr(similarity, "_ritz", ritz_spy)
    rho = beta_bound(noisy)
    # one c x 8 start block from the ones vector, no c x 2c stack: every
    # step takes the Ritz values of a Gram matrix at most 32 wide
    assert starts == [((200, 200), True, 8)]
    assert widths and max(widths) <= 32
    assert rho == pytest.approx(lanczos_rho(noisy), rel=1e-10)


def test_beta_bound_on_equal_degrees_takes_one_lanczos_step(monkeypatch):
    # every class of a directed 20-cycle has out- and in-degree 1, so the
    # degrees grow a start block of one column, and Lanczos runs from the
    # first step.  Its start 1 1^T / c is an eigenvector of G, so it stops
    # after one step: a step cap of 1 leaves none for a factored step
    M = np.roll(np.eye(20), 1, axis=1)
    A = Adjacency.from_matrix(M)
    assert A.quotient.c == 20
    assert similarity._start_block(M, np.ones(20), 8) is None
    monkeypatch.setattr(similarity, "DEFAULT_MAX_K", 1)
    assert beta_bound(A) == pytest.approx(2.0, rel=1e-15)


def test_beta_bound_on_a_sign_swapped_graph_starts_from_the_identity(monkeypatch):
    # M = [[B, -I], [-I, B]] commutes with the swap of its halves, and so
    # do its degrees: a start grown from them, and every factor G takes it
    # to, stays in the swap-symmetric half, where M acts as B - I.  M is
    # D |M| D for D = diag(I, -I), so rho is that of |M| = [[B, I], [I, B]],
    # and its eigenvector lies in the other half.  From the degrees the
    # estimate settled 40 % low.  A negative entry leaves no start block,
    # and Lanczos starts from I_c / sqrt(c), which overlaps every positive
    # semi-definite eigenvector
    m = 40
    B = (np.random.default_rng(1).random((m, m)) < 0.2).astype(float)
    np.fill_diagonal(B, 0.0)
    M = np.block([[B, -np.eye(m)], [-np.eye(m), B]])
    A = Adjacency.from_matrix(M)
    assert A.quotient.c == 2 * m
    assert similarity._start_block(M, np.ones(2 * m), 8) is None
    starts = []
    original = similarity._gamma_into

    def spy(M, X, *rest):
        if not starts:
            starts.append(X.copy())
        return original(M, X, *rest)

    monkeypatch.setattr(similarity, "_gamma_into", spy)
    assert beta_bound(A) == pytest.approx(lanczos_rho(Adjacency.from_matrix(np.abs(M))),
                                          rel=1e-12)
    assert np.array_equal(starts[0], np.eye(2 * m) / np.sqrt(2 * m))


def test_beta_bound_keeps_a_thin_factor_on_undirected_graphs(monkeypatch):
    # on a symmetric A_hat the in-degrees are the out-degrees: the start
    # block skips A_hat^T 1, grows on from A_hat 1 alone, and the factored
    # regime settles with no c x c iterate
    rng = np.random.default_rng(5)
    M = np.triu(rng.random((300, 300)) < 0.05, 1).astype(float)
    M += M.T
    A = Adjacency.from_matrix(M)
    assert A.quotient.c == 300
    V = similarity._start_block(M, np.ones(300), 8)
    assert V.shape == (300, 8)
    assert np.abs(V.T @ V - np.eye(8)).max() < 1e-12
    monkeypatch.setattr(similarity, "_gamma_into",
                        lambda *args: pytest.fail("Lanczos ran"))
    # on a symmetric A_hat, G[X] = 2 A_hat X A_hat: rho = 2 max lambda(A_hat)^2
    assert beta_bound(A) == pytest.approx(2 * np.abs(np.linalg.eigvalsh(M)).max() ** 2,
                                          rel=1e-10)


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
    assert after == pytest.approx(before, rel=1e-12)


def test_beta_bound_nonconvergence_history_has_one_change_per_step(monkeypatch):
    # er_p05 settles in 8 factored steps; c24 runs 8 factored steps, then
    # Lanczos; the signed checkerboard graph runs Lanczos from the first
    # step.  Each factored step after the first records the relative change
    # of its estimate, and each Lanczos step its relative residual bound.
    for name, max_ks, lanczos_only in (("er_p05", (2, 4, 7), False),
                                       ("c24", (2, 8, 10), False),
                                       ("checkerboard_signed", (1, 5), True)):
        A = Adjacency.from_matrix(_hard_graph(name))
        rho = lanczos_rho(A)
        for max_k in max_ks:
            monkeypatch.setattr(similarity, "DEFAULT_MAX_K", max_k)
            with pytest.raises(NonConvergenceError) as info:
                beta_bound(A)
            history = info.value.history
            assert len(history) == max_k - (not lanczos_only)
            assert all(h > 1e-10 for h in history)
            # every estimate is a lower bound on rho
            assert 0 < info.value.state <= rho * (1 + 1e-12)


def test_beta_bound_is_scale_free():
    # Lanczos runs on A_hat scaled by a power of two, and the factored
    # regime and the start block take norms of values so scaled, so no
    # square overflows or underflows (and pytest turns a RuntimeWarning into
    # an error): this digraph, which leaves the factored regime for
    # Lanczos, gives s^2 rho at every scale inside the double range
    rng = np.random.default_rng(5)
    M = (rng.random((40, 40)) < 0.2) * rng.lognormal(0.0, 1.0, (40, 40))
    np.fill_diagonal(M, 0.0)
    rho = beta_bound(Adjacency.from_matrix(M))
    assert rho == pytest.approx(lanczos_rho(Adjacency.from_matrix(M)), rel=1e-13)
    for s in (1e-150, 1e-120, 1e77, 1e100, 1e150):
        scaled = beta_bound(Adjacency.from_matrix(s * M))
        assert scaled / s**2 == pytest.approx(rho, rel=1e-13)


def test_beta_bound_rejects_zero_graph():
    with pytest.raises(ValueError):
        beta_bound(Adjacency.from_matrix(np.zeros((3, 3))))


def test_beta_bound_rejects_weights_past_the_double_range(monkeypatch):
    # rho lies in [2 ||A_hat||_F^2 / c, 2 ||A_hat||_F^2]: squares that
    # underflow left rho 0 (0.81 / rho divided by zero) or subnormal (an
    # infinite default beta2), and squares that overflow led the power
    # iteration through NaN to its step cap.  Both ends are rejected before
    # any iteration, on 2 classes (Lanczos from the first step) and on 40
    # (the factored regime first).  Well inside the range, scaling the
    # weights by a power of two scales rho by its square exactly
    pair = np.array([[0.0, 1.0], [1.0, 0.0]])
    rng = np.random.default_rng(5)
    digraph = (rng.random((40, 40)) < 0.2) * rng.lognormal(0.0, 1.0, (40, 40))
    rhos = [beta_bound(Adjacency.from_matrix(M)) for M in (pair, digraph)]
    assert Adjacency.from_matrix(digraph).quotient.c == 40
    for M, rho in zip((pair, digraph), rhos):
        for e in (-200, 200):
            assert beta_bound(Adjacency.from_matrix(2.0**e * M)) == 2.0**(2 * e) * rho
    for name in ("_gamma_into", "_ritz", "_start_block"):
        monkeypatch.setattr(similarity, name, lambda *args, _name=name: pytest.fail(_name))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: pytest.fail("eigvalsh"))
    for M in (pair, digraph):
        for scale in (1e-200, 1e-160, 1e160):
            with pytest.raises(ValueError, match="out of range"):
                beta_bound(Adjacency.from_matrix(scale * M))


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
    state = fixed_point(A, 0.1)
    assert np.allclose(state.S, 2.5 * np.eye(2), rtol=1e-10)


def test_fixed_point_small_block_cycle_reference_values():
    # B = 4-cycle, sizes (20,10,10,20).  On the role level the fixed point is
    # diag(2d, d, d, 2d) with d = 300 / (1 - 500 beta^2), so the singular
    # values of S_inf are {2d, 2d, d, d}.
    beta2 = 1.17953e-3
    d = 300.0 / (1.0 - 500.0 * beta2)
    A, _, _ = generate_structure("block_cycle", (20, 10, 10, 20))
    state = fixed_point(A, beta2)
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


#: the stopping rule is no argument: DEFAULT_TOL and DEFAULT_MAX_K hold for
#: every solve, and a keyword that sets either is a TypeError
BAD_SOLVE_SETTINGS = [{"tol": float("nan")}, {"max_k": 0}]


def no_keyword(bad):
    return pytest.raises(TypeError, match=f"unexpected keyword argument '{next(iter(bad))}'")


@pytest.mark.parametrize("bad", BAD_SOLVE_SETTINGS, ids=["tol=nan", "max_k=0"])
def test_fixed_point_rejects_bad_settings_before_any_solve(monkeypatch, bad):
    no_solve(monkeypatch)
    with no_keyword(bad):
        fixed_point(Adjacency.from_matrix(SLOW_CG), **bad)


@pytest.mark.parametrize("bad", BAD_SOLVE_SETTINGS, ids=["tol=nan", "max_k=0"])
def test_scaled_fixed_point_rejects_bad_settings_before_any_solve(monkeypatch, bad):
    A = Adjacency.from_matrix(SLOW_CG)
    d = np.linspace(0.5, 2.0, A.n)
    W = apply_rank_one_weights(A, d)
    no_solve(monkeypatch)
    with no_keyword(bad):
        scaled_fixed_point(W, d, **bad)


def test_fixed_point_nonconvergence_carries_state(monkeypatch):
    # CG needs 15 iterations on this graph at DEFAULT_TOL, and beta_bound's
    # Lanczos one, so the cap is the solve's
    A = Adjacency.from_matrix(THREE_PERMUTATIONS)
    beta2 = 0.9 / beta_bound(A)
    monkeypatch.setattr(similarity, "DEFAULT_MAX_K", 3)
    with pytest.raises(NonConvergenceError) as info:
        fixed_point(A, beta2)
    assert isinstance(info.value.state, SimilarityState)
    assert info.value.state.k == 3
    assert not info.value.state.converged


def test_fixed_point_nonconvergence_history_has_one_residual_per_iteration(monkeypatch):
    # beta_bound's Lanczos stops after one step here, so each cap is met by
    # the solve, whose error carries its state
    A = Adjacency.from_matrix(THREE_PERMUTATIONS)
    beta2 = 0.9 / beta_bound(A)
    for max_k in (1, 3, 5):
        monkeypatch.setattr(similarity, "DEFAULT_MAX_K", max_k)
        with pytest.raises(NonConvergenceError) as info:
            fixed_point(A, beta2)
        assert isinstance(info.value.state, SimilarityState)
        history = info.value.history
        assert len(history) == max_k
        assert all(h > DEFAULT_TOL for h in history)


def test_fixed_point_two_cycle_near_the_bound_is_one_iteration():
    # G[I] = 2 I is an eigenvector of G, so CG solves S = 2 I + 0.98 S at once
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    state = _fixed_point(A, 0.49, 1e-15, 3)
    assert state.converged
    assert state.k == 1
    assert np.allclose(state.S, 100.0 * np.eye(2), rtol=1e-12, atol=0)


def _reference_cg(A, beta2, tol, max_k):
    """Plain CG on (I - beta^2 G) S = G[I] in the node basis, with no
    preconditioner, every application of G through gamma and _sym and a
    fresh array for every update, stopped by the solve's contract (accept
    on the true residual, else restart from it): (S, k, history, restarts),
    with k None past max_k and restarts the number of true-residual checks
    that failed."""
    S = np.zeros((A.n, A.n))
    R = similarity._gamma_of_identity(A)
    P = R.copy()
    rr = np.vdot(R, R)
    history, restarts = [], 0
    for k in range(1, max_k + 1):
        Q = similarity._sym(gamma(A, P)) * -beta2 + P
        alpha = rr / np.vdot(P, Q)
        S = S + alpha * P
        R = R - alpha * Q
        size = np.linalg.norm(S)
        history.append(np.linalg.norm(R) / size)
        if history[-1] <= tol:
            R = similarity._sym(gamma(A, np.eye(A.n) + beta2 * S)) - S
            history[-1] = np.linalg.norm(R) / size
            if history[-1] <= tol:
                return S, k, history, restarts
            restarts += 1
            P = R.copy()
            rr = np.vdot(R, R)
            continue
        rr_next = np.vdot(R, R)
        P = P * (rr_next / rr) + R
        rr = rr_next
    return S, None, history, restarts


def _reference_pcg(A, beta2, tol, max_k):
    """The solve of _fixed_point written plainly, with a fresh array for
    every update: preconditioned CG in the eigenbasis of A's symmetric
    part, on A scaled by a power of two, accepted on the true residual in
    the node basis.  Returns (S, k, history, restarts) as _reference_cg."""
    M = A.entries
    e = np.frexp(np.linalg.norm(M))[1]
    Mx, beta2x = np.ldexp(M, -e), np.ldexp(beta2, 2 * e)
    d, V = np.linalg.eigh((Mx + Mx.T) / 2)
    K = V.T @ ((Mx - Mx.T) / 2) @ V
    H = 1.0 + np.multiply.outer(-2 * beta2x * d, d)

    def to_nodes(X):
        X = similarity._sym(V @ X @ V.T)
        return np.maximum(X, 0.0) if (M >= 0).all() else X

    S = np.zeros((A.n, A.n))
    R = 2 * (K @ K.T + np.diag(d * d))
    P = R / H
    rz = np.vdot(R, P)
    history, restarts = [], 0
    for k in range(1, max_k + 1):
        Q = H * P + 2 * beta2x * (K @ P @ K)
        alpha = rz / np.vdot(P, Q)
        S = S + alpha * P
        R = R - alpha * Q
        history.append(np.linalg.norm(R) / np.linalg.norm(S))
        if history[-1] <= tol:
            S = to_nodes(S)
            R = similarity._sym(gamma(Mx, np.eye(A.n) + beta2x * S)) - S
            history[-1] = np.linalg.norm(R) / np.linalg.norm(S)
            if history[-1] <= tol:
                return np.ldexp(S, 2 * e), k, history, restarts
            restarts += 1
            S, R = V.T @ S @ V, V.T @ R @ V
            P = R / H
            rz = np.vdot(R, P)
            continue
        Z = R / H
        rz_next = np.vdot(R, Z)
        P = P * (rz_next / rz) + Z
        rz = rz_next
    return np.ldexp(to_nodes(S), 2 * e), None, history, restarts


def _oracle_graphs():
    """(graph, tol): a noisy block cycle with no equivalent nodes (c = 60)
    and the quotient graph of one with two flipped edges (c = 8) at the
    default tolerance, and a weighted graph whose first true-residual check
    fails at 1e-14, so that the solve restarts from the true residual."""
    A, _, _ = generate_structure("block_cycle", (15,) * 4,
                                 perm=np.random.default_rng(31).permutation(60))
    noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=31))
    assert noisy.quotient.c == 60
    yield noisy, similarity.DEFAULT_TOL
    A, _, _ = generate_structure("block_cycle", (3, 2, 4, 3))
    M = A.entries.copy()
    M[0, 5], M[7, 1] = 1.0 - M[0, 5], 1.0 - M[7, 1]
    quotient = similarity._quotient_graph(Adjacency.from_matrix(M))
    assert quotient.n == 8
    yield quotient, similarity.DEFAULT_TOL
    rng = np.random.default_rng(83)
    M = (rng.random((12, 12)) < 0.3) * rng.lognormal(0.0, 1.0, (12, 12))
    A = Adjacency.from_matrix(M)
    assert _reference_pcg(A, default_beta2(A), 1e-14, 100)[3] == 1
    yield A, 1e-14


def test_the_fixed_point_solve_equals_the_plain_cg_loop_bit_for_bit():
    for A, tol in _oracle_graphs():
        beta2 = default_beta2(A)
        state = _fixed_point(A, beta2, tol, DEFAULT_MAX_K)
        S, k, history, _ = _reference_pcg(A, beta2, tol, 100)
        assert np.array_equal(state.S, S)
        assert (state.k, state.converged) == (k, True)
        for max_k in (3, k - 1):
            with pytest.raises(NonConvergenceError) as info:
                _fixed_point(A, beta2, tol, max_k)
            S, k_ref, history, _ = _reference_pcg(A, beta2, tol, max_k)
            assert k_ref is None
            assert np.array_equal(info.value.state.S, S)
            assert (info.value.state.k, info.value.state.converged) == (max_k, False)
            assert info.value.history == tuple(history)


def test_the_fixed_point_solve_agrees_with_the_unpreconditioned_cg_loop():
    # the node-basis CG of _reference_cg stops by the same contract: both
    # are accepted on the true residual, so they agree far below its tol
    for A, tol in _oracle_graphs():
        beta2 = default_beta2(A)
        state = _fixed_point(A, beta2, tol, DEFAULT_MAX_K)
        S, k, _, _ = _reference_cg(A, beta2, tol, 100)
        assert k is not None
        assert np.linalg.norm(state.S - S) <= 1e-12 * np.linalg.norm(S)
        assert state.k <= k


def test_iterate_and_pattern_counts_equal_their_plain_loops_bit_for_bit():
    for A, _ in _oracle_graphs():
        beta2 = default_beta2(A)
        S = N = similarity._gamma_of_identity(A)
        counts = [N]
        for k in range(2, 7):
            S = similarity._sym(gamma(A, np.eye(A.n) + beta2 * S))
            N = similarity._sym(gamma(A, N))
            counts.append(N)
            assert np.array_equal(iterate(A, beta2, k).S, S)
        got = pattern_counts(A, 6)
        assert all(np.array_equal(c.N, want) for c, want in zip(got, counts, strict=True))


def test_the_fixed_point_solve_holds_at_most_seven_and_a_half_arrays():
    # the eigenvectors V, K, S, R, P, Q and one buffer, allocated once after
    # eigh returns; a solve that allocates its updates, its preconditioner
    # or its true-residual check afresh peaks at 8 arrays of 8 c^2 bytes
    # or more
    A, _, _ = generate_structure("block_cycle", (50,) * 4,
                                 perm=np.random.default_rng(5).permutation(200))
    A = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=5))
    c = A.quotient.c
    assert c == 200
    beta2 = default_beta2(A)
    tracemalloc.start()
    try:
        fixed_point(A, beta2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 8 * c * c


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
        state = _fixed_point(A, 0.95 / beta_bound(A), tol, DEFAULT_MAX_K)
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


def _solve_graph(n, density, kind, seed):
    """A random digraph on n nodes: unsigned, signed or with lognormal
    weights; None if empty."""
    rng = np.random.default_rng(seed)
    M = (rng.random((n, n)) < density).astype(float)
    if kind == "signed":
        M *= rng.choice([-1.0, 1.0], size=(n, n))
    elif kind == "lognormal":
        M *= rng.lognormal(0.0, 1.0, size=(n, n))
    return Adjacency.from_matrix(M) if M.any() else None


SOLVE_ARGS = dict(n=st.integers(2, 40), density=st.floats(0.05, 0.5),
                  kind=st.sampled_from(("unsigned", "signed", "lognormal")),
                  seed=st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None)
@given(**SOLVE_ARGS)
def test_fixed_point_agrees_with_the_kronecker_solve(n, density, kind, seed):
    A = _solve_graph(n, density, kind, seed)
    assume(A is not None)
    state = fixed_point(A)
    want = kron_fixed_point(A, state.beta2)
    assert np.linalg.norm(state.S - want) <= 1e-12 * np.linalg.norm(want)
    assert np.array_equal(state.S, state.S.T)


@settings(max_examples=25, deadline=None)
@given(**SOLVE_ARGS)
def test_fixed_point_is_equivariant_under_node_permutation(n, density, kind, seed):
    A = _solve_graph(n, density, kind, seed)
    assume(A is not None)
    perm = np.random.default_rng(seed).permutation(n)
    B = Adjacency.from_matrix(A.entries[np.ix_(perm, perm)])
    want = fixed_point(A).S[np.ix_(perm, perm)]
    assert np.linalg.norm(fixed_point(B).S - want) <= 1e-12 * np.linalg.norm(want)


def test_an_undirected_graph_solves_in_one_step():
    # A's skew part is 0, so the preconditioner is the exact inverse
    rng = np.random.default_rng(73)
    for n in (5, 30, 90):
        M = np.triu(rng.random((n, n)) < 0.2, 1).astype(float)
        M *= rng.lognormal(0.0, 1.0, (n, n))
        A = Adjacency.from_matrix(M + M.T)
        state = fixed_point(A)
        assert (state.k, state.converged) == (1, True)
        assert fixed_point_residual(A, state) <= DEFAULT_TOL


def test_fixed_point_is_nonnegative_on_unsigned_graphs():
    # on a two-sided digraph (edges only between the sides) the exact S is
    # entrywise non-negative, and 0 between the sides; the eigenbasis
    # leaves rounding of both signs there, and the solve keeps S >= 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        M = np.zeros((22, 22))
        M[:10, 10:] = rng.random((10, 12)) < 0.4
        M[10:, :10] = rng.random((12, 10)) < 0.4
        A = Adjacency.from_matrix(M)
        state = fixed_point(A)
        assert state.S.min() >= 0.0
        assert state.S[:10, 10:].max() <= 1e-13 * np.linalg.norm(state.S)
        assert fixed_point_residual(A, state) <= 2 * DEFAULT_TOL


@pytest.mark.parametrize("e", [-300, -200, 200, 300])
def test_fixed_point_is_scale_free(e):
    # scaling A by 2^e scales rho and S by 4^e, each exactly; the
    # solve runs on A scaled near unit norm either way.  At 2^+-300 the
    # squared norms of an unscaled solve leave the doubles; beta_bound's
    # Lanczos runs on A scaled the same way
    rng = np.random.default_rng(79)
    M = (rng.random((12, 12)) < 0.3) * rng.lognormal(0.0, 1.0, (12, 12))
    want = fixed_point(Adjacency.from_matrix(M)).S
    got = np.ldexp(fixed_point(Adjacency.from_matrix(np.ldexp(M, e))).S, -2 * e)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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
    assert resolve_beta2(A, None) == pytest.approx(0.405, rel=1e-9)
    assert resolve_beta2(A, 0.3) == 0.3
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
        good = fixed_point(A, 0.9 / rho)
        assert good.converged
        norms = [np.linalg.norm(iterate(A, 1.1 / rho, k).S) for k in (1, 50)]
        assert norms[1] > 10 * norms[0]


# ---------------------------------------------------------------------------
# rank-one weighted graphs
# ---------------------------------------------------------------------------

def test_scaled_iteration_with_unit_weights_matches_plain():
    A, _, _ = generate_structure("community", (3, 4))
    W = apply_rank_one_weights(A, np.ones(A.n))
    plain = fixed_point(A, 0.01)
    scaled = scaled_fixed_point(W, np.ones(A.n), 0.01)
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


def test_scaled_fixed_point_nonconvergence_carries_weighted_state(monkeypatch):
    # beta2 is resolved on the binary base, where beta_bound's Lanczos stops
    # after one step, so the cap is the solve's
    A = Adjacency.from_matrix(THREE_PERMUTATIONS)
    d = np.linspace(0.5, 2.0, A.n)
    W = apply_rank_one_weights(A, d)
    beta2 = 0.9 / beta_bound(A)
    monkeypatch.setattr(similarity, "DEFAULT_MAX_K", 3)
    with pytest.raises(NonConvergenceError) as info:
        scaled_fixed_point(W, d, beta2)
    with pytest.raises(NonConvergenceError) as plain:
        fixed_point(A, beta2)
    assert isinstance(info.value.state, SimilarityState)
    assert isinstance(plain.value.state, SimilarityState)
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
