import numpy as np
import pytest

from conftest import orth_basis
from rolekit import (
    Adjacency,
    NonConvergenceError,
    PerturbationModel,
    RoleMatrix,
    default_beta2,
    expected_adjacency,
    fixed_point,
    generate_structure,
    ideal_singular_values,
    iterate,
    perturb,
    ratio_monotonicity_check,
    rng_for,
    similarity,
    spectrum_report,
    undirected_sigma_at_depth,
)
from rolekit.graphcore import STRUCTURE_KINDS


# ---------------------------------------------------------------------------
# perturbation sampling
# ---------------------------------------------------------------------------

def test_perturb_noop_without_probability():
    A, _, _ = generate_structure("community", (3, 4))
    out = perturb(A, PerturbationModel(p_in=0.0, p_out=0.0, seed=9))
    assert np.array_equal(out.entries, A.entries)


def test_perturb_certain_flips_complement_the_graph():
    A, _, _ = generate_structure("block_cycle", (2, 3))
    out = perturb(A, PerturbationModel(p_in=1.0, p_out=1.0, seed=9))
    assert np.array_equal(out.entries, 1.0 - A.entries)


def test_perturb_deterministic_per_seed():
    A, _, _ = generate_structure("block_cycle", (5, 5, 5, 5))
    m = PerturbationModel(p_in=0.1, p_out=0.1, seed=4)
    assert np.array_equal(perturb(A, m).entries, perturb(A, m).entries)
    other = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=5))
    assert not np.array_equal(perturb(A, m).entries, other.entries)


def test_perturb_mean_flip_count_matches_expectation():
    A, _, _ = generate_structure("block_cycle", (50, 50, 50, 50))
    ones = int(A.entries.sum())
    zeros = A.n * A.n - ones
    expected = 0.05 * ones + 0.05 * zeros
    flips = []
    for seed in range(200):
        out = perturb(A, PerturbationModel(p_in=0.05, p_out=0.05, seed=seed))
        flips.append(np.linalg.norm(out.entries - A.entries) ** 2)
    assert abs(np.mean(flips) - expected) <= 0.05 * expected


def test_perturb_rejects_non_binary_input():
    A = Adjacency.from_matrix([[0, 2.5], [0, 0]])
    with pytest.raises(ValueError):
        perturb(A, PerturbationModel(p_in=0.1, p_out=0.1))
    with pytest.raises(ValueError):
        PerturbationModel(p_in=1.5, p_out=0.0)


# ---------------------------------------------------------------------------
# expected matrices
# ---------------------------------------------------------------------------

def test_expected_adjacency_occupancy_recovers_ideal():
    A, B, truth = generate_structure("block_cycle", (3, 2, 4))
    E = expected_adjacency(B, truth.sizes(), p_in=1.0, p_out=0.0,
                           convention="occupancy")
    assert np.array_equal(E, A.entries)


def test_expected_adjacency_equal_probabilities_rank_one():
    B = RoleMatrix([[1, 0], [0, 1]])
    E = expected_adjacency(B, (3, 4), p_in=0.3, p_out=0.3)
    assert np.allclose(E, 0.3 * np.ones((7, 7)))
    assert np.linalg.matrix_rank(E) == 1


def test_expected_adjacency_rank_and_spectrum_oracle():
    B = RoleMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    sizes = (5, 5, 5, 5)
    E = expected_adjacency(B, sizes, p_in=0.9, p_out=0.1)
    assert np.linalg.matrix_rank(E) == 4
    # oracle: block expansion equals N^(1/2) Eb N^(1/2) on the role level
    Eb = 0.9 * B.entries + 0.1 * (1 - B.entries)
    root = np.sqrt(np.asarray(sizes, dtype=float))
    want = np.linalg.svd(root[:, None] * Eb * root[None, :], compute_uv=False)
    got = np.linalg.svd(E, compute_uv=False)
    assert np.allclose(got[:4], want, rtol=1e-10)


def test_expected_adjacency_flip_convention_inverts_p_in():
    B = RoleMatrix([[0, 1], [1, 0]])
    flip = expected_adjacency(B, (2, 2), p_in=0.2, p_out=0.1, convention="flip")
    occ = expected_adjacency(B, (2, 2), p_in=0.8, p_out=0.1, convention="occupancy")
    assert np.array_equal(flip, occ)
    with pytest.raises(ValueError):
        expected_adjacency(B, (2, 2), 0.1, 0.1, convention="nope")


def test_mean_perturbation_aligned_with_role_subspace():
    # the expected flip matrix lives in the span of the role indicator, so
    # the empirical mean over many draws leaves almost nothing orthogonal
    A, B, truth = generate_structure("block_cycle", (15, 15, 15, 15))
    p_in = p_out = 0.1
    trials = 500
    acc = np.zeros_like(A.entries)
    for t in range(trials):
        out = perturb(A, PerturbationModel(p_in=p_in, p_out=p_out, seed=1000 + t))
        acc += out.entries - A.entries
    mean_delta = acc / trials
    U_q = orth_basis(truth.membership())
    P_perp = np.eye(A.n) - U_q @ U_q.T
    ratio = np.linalg.norm(P_perp @ mean_delta, 2) / np.linalg.norm(mean_delta, 2)
    entry_std = np.sqrt(max(p_in * (1 - p_in), p_out * (1 - p_out)) / trials)
    sampling = 2 * np.sqrt(A.n) * entry_std / np.linalg.norm(mean_delta, 2)
    assert ratio <= 5 * sampling


# ---------------------------------------------------------------------------
# spectra of ideal graphs and reports
# ---------------------------------------------------------------------------

def test_ideal_singular_values_block_cycle():
    B = RoleMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    got = ideal_singular_values(B, (200, 100, 100, 200))
    assert np.allclose(got, [200, 141.421356, 141.421356, 100], atol=1e-6)


def test_ideal_singular_values_identity_roles():
    got = ideal_singular_values(RoleMatrix(np.eye(3)), (7, 7, 7))
    assert np.allclose(got, [7, 7, 7], atol=1e-12)


def test_ideal_singular_values_bipartite_pair():
    got = ideal_singular_values(RoleMatrix([[0, 1], [1, 0]]), (2, 3))
    assert np.allclose(got, [np.sqrt(6), np.sqrt(6)], atol=1e-12)


def test_ideal_singular_values_match_dense_svd():
    from rolekit import build_ideal

    rng = np.random.default_rng(15)
    for _ in range(5):
        q = int(rng.integers(2, 5))
        B = RoleMatrix((rng.random((q, q)) < 0.5).astype(float))
        sizes = rng.integers(1, 6, size=q)
        A = build_ideal(B, sizes)
        dense = np.linalg.svd(A.entries, compute_uv=False)
        got = ideal_singular_values(B, sizes)
        assert np.allclose(np.sort(got)[::-1], dense[:q], atol=1e-9)


def test_spectrum_report_small_ideal_block_cycle():
    A, _, _ = generate_structure("block_cycle", (20, 10, 10, 20))
    report = spectrum_report(A, beta2=1.17953e-3, top_m=10)
    assert np.allclose(report.sigma_A[:4], [20, 14.142136, 14.142136, 10],
                       atol=1e-6)
    assert np.allclose(report.sigma_S_half[:4],
                       [38.2437, 38.2437, 27.0424, 27.0424], rtol=1e-3)
    assert report.gap_index == 4
    assert np.allclose(report.sigma_S, report.sigma_S_half**2, rtol=1e-8)
    assert report.k_or_fixed == "fixed-point"
    assert report.beta2_source == "user"


def test_spectrum_report_fixed_point_resolves_each_singular_value():
    # the solve bounds its residual relative to ||S||_F, yet the smallest
    # reported singular values must be accurate well inside 9 digits too
    perm = np.random.default_rng(67).permutation(200)
    A, _, _ = generate_structure("block_cycle", (50, 50, 50, 50), perm=perm)
    noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=1))
    report = spectrum_report(noisy, top_m=10)
    deep = iterate(noisy, report.beta2, 400).S
    want = np.linalg.svd(deep, compute_uv=False)[:10]
    assert np.all(np.abs(report.sigma_S - want) <= 1e-11 * want)


def test_spectrum_report_finite_depth_and_auto_beta():
    A, _, _ = generate_structure("community", (4, 4, 4))
    report = spectrum_report(A, k=2, top_m=5)
    assert report.k_or_fixed == 2
    assert report.beta2_source == "auto-0.81/rho"
    assert report.sigma_A.size == 5


def test_spectrum_report_csv_shape():
    A, _, _ = generate_structure("community", (4, 4))
    report = spectrum_report(A, k=1, top_m=6)
    lines = report.to_csv_text().strip().split("\n")
    assert lines[0] == "index,sigma_A,sigma_S_half,sigma_S"
    assert len(lines) == 1 + 6
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(4.0)


def _ideal_graphs():
    """Ideal graphs of every structure kind (the signed example, whose S has
    rank 3 on c = 5 classes, included), and a block cycle with three
    disconnected nodes, which form one more class."""
    for kind in STRUCTURE_KINDS:
        sizes = {"signed_example": None,
                 "bipartite_communities": (3, 4, 2, 5, 3, 2)}.get(kind, (3, 4, 2, 5))
        yield generate_structure(kind, sizes)[0]
    A, _, _ = generate_structure("block_cycle", (3, 4, 2, 5))
    M = np.zeros((A.n + 3, A.n + 3))
    M[3:, 3:] = A.entries
    yield Adjacency.from_matrix(M)


@pytest.mark.parametrize("k", [None, 3])
def test_spectrum_report_commutes_with_node_permutation(k):
    rng = np.random.default_rng(2009)
    for A in _ideal_graphs():
        c = A.quotient.c
        want = spectrum_report(A, k=k, top_m=A.n)
        for _ in range(4):
            perm = rng.permutation(A.n)
            got = spectrum_report(A.entries[np.ix_(perm, perm)], k=k, top_m=A.n)
            for name in ("sigma_A", "sigma_S"):
                g, w = getattr(got, name), getattr(want, name)
                assert g.size == A.n
                assert not g[c:].any() and not w[c:].any()
                # values that are rounding noise of an exact 0 (the signed
                # example's last two) compare against the largest
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14 * w[0])
            assert (got.gap_index, got.beta2) == pytest.approx((want.gap_index, want.beta2),
                                                               rel=1e-12)


@pytest.mark.parametrize("k", [None, 3])
def test_sigma_S_are_the_singular_values_of_S_hat(k):
    rng = np.random.default_rng(53)
    M = (rng.random((30, 30)) < 0.2).astype(float)
    signed = M * np.where(rng.random(M.shape) < 0.4, -1.0, 1.0)
    weighted = M * rng.lognormal(0.0, 1.0, M.shape)
    for A in (*_ideal_graphs(), Adjacency.from_matrix(signed),
              Adjacency.from_matrix(weighted)):
        S_hat = similarity._quotient_similarity(A, None, k).S
        want = np.linalg.svd(S_hat, compute_uv=False)
        got = spectrum_report(A, k=k, top_m=A.n).sigma_S
        # values that are rounding noise of an exact 0 compare against the largest
        np.testing.assert_allclose(got[:want.size], want, rtol=1e-12, atol=1e-14 * want[0])
        assert not got[want.size:].any()


@pytest.mark.parametrize("k", [None, 3])
def test_spectrum_report_applies_the_operator_on_the_quotient_only(monkeypatch, k):
    shapes = []
    original = similarity.gamma

    def recording(A, X):
        shapes.append(np.shape(X))
        return original(A, X)

    monkeypatch.setattr(similarity, "gamma", recording)
    A, _, _ = generate_structure("block_cycle", (20, 10, 10, 20))
    report = spectrum_report(A, k=k)
    assert shapes and set(shapes) == {(4, 4)}
    assert report.sigma_S.size == 10 and not report.sigma_S[4:].any()


def test_spectrum_report_nonconvergence_carries_the_last_iterate_on_the_nodes():
    # two flipped edges leave 8 classes of 12 nodes; the solve runs on the
    # quotient, and its last iterate is lifted to the nodes
    A, _, _ = generate_structure("block_cycle", (3, 2, 4, 3))
    M = A.entries.copy()
    M[0, 5], M[7, 1] = 1.0 - M[0, 5], 1.0 - M[7, 1]
    A = Adjacency.from_matrix(M)
    assert A.quotient.c == 8
    beta2 = default_beta2(A)
    for got in (None, beta2):
        with pytest.raises(NonConvergenceError) as info:
            spectrum_report(A, beta2=got, max_k=3)
        with pytest.raises(NonConvergenceError) as dense:
            fixed_point(A, beta2, max_k=3)
        state, want = info.value.state, dense.value.state
        assert state.S.shape == (A.n, A.n)
        # a default beta2 is resolved on the quotient: A's to rounding
        assert (state.k, state.converged) == (3, False)
        assert state.beta2 == pytest.approx(beta2, rel=1e-12)
        assert np.linalg.norm(state.S - want.S) <= 1e-12 * np.linalg.norm(want.S)
        assert info.value.history == pytest.approx(dense.value.history, rel=1e-9)


# ---------------------------------------------------------------------------
# closed-form depth scaling (undirected case)
# ---------------------------------------------------------------------------

def test_depth_one_returns_lambda():
    assert undirected_sigma_at_depth(3.7, 0.2, 1) == pytest.approx(3.7)


def test_depth_two_direct_series_value():
    got = undirected_sigma_at_depth(2.0, 0.4, 2)
    assert got == pytest.approx(2.0 * np.sqrt(1 + 0.64), abs=1e-12)


def test_vanishing_damping_keeps_lambda():
    for k in (1, 3, 10):
        assert undirected_sigma_at_depth(2.0, 0.0, k) == pytest.approx(2.0)


def test_depth_scaling_rejects_inadmissible_damping():
    with pytest.raises(ValueError):
        undirected_sigma_at_depth(2.0, 0.5, 3)


def test_closed_form_matches_iterated_recurrence():
    from rolekit import iterate
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(3, 8))
        M = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
        M = M + M.T
        if not M.any():
            M[0, 1] = M[1, 0] = 1.0
        A = Adjacency.from_matrix(M)
        lam1 = np.sqrt(2) * np.linalg.svd(M, compute_uv=False)
        beta = 0.9 / lam1[0]
        for k in (1, 2, 5):
            S = iterate(A, beta**2, k).S
            got = np.linalg.svd(S, compute_uv=False)
            want = np.sort([undirected_sigma_at_depth(l, beta, k)
                            for l in lam1])[::-1] ** 2
            # compare on the scale of S itself; square roots near zero would
            # amplify the eps-level noise of the dense iteration
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * want[0])


def test_ratio_monotonicity_reference_point():
    assert ratio_monotonicity_check(2.0, 1.0, 0.4, 20)


def test_ratio_scaling_factor_grows_with_damping():
    # closed form: factor(beta) = (1 - beta^2) / (1 - 4 beta^2) at (2, 1)
    factors = [(1 - b**2) / (1 - 4 * b**2) for b in np.linspace(0.05, 0.45, 9)]
    assert all(b > a for a, b in zip(factors, factors[1:]))
    for b in np.linspace(0.05, 0.45, 9):
        assert ratio_monotonicity_check(2.0, 1.0, float(b), 10)


def test_ratio_monotonicity_rejects_bad_preconditions():
    with pytest.raises(ValueError):
        ratio_monotonicity_check(1.0, 2.0, 0.1, 10)
    with pytest.raises(ValueError):
        ratio_monotonicity_check(2.0, 1.0, 0.5, 10)
    with pytest.raises(ValueError):
        ratio_monotonicity_check(2.0, 1.0, 0.1, 1)


def test_singular_value_ordering_preserved_across_depth():
    rng = np.random.default_rng(33)
    for _ in range(20):
        lams = np.sort(rng.uniform(0.1, 5.0, size=6))[::-1]
        beta = 0.95 / lams[0]
        for k in (2, 4, 8):
            vals = [undirected_sigma_at_depth(l, beta, k) for l in lams]
            assert all(a > b or np.isclose(a, b) for a, b in zip(vals, vals[1:]))


def test_rng_streams_are_independent():
    a = rng_for(7, 0).random(4)
    b = rng_for(7, 1).random(4)
    assert not np.allclose(a, b)
    assert np.allclose(a, rng_for(7, 0).random(4))
