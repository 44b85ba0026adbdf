import json

import numpy as np
import pytest

from conftest import (
    DOUBLED_PERMUTATIONS,
    RANK_DEFICIENT,
    SIGNED_EXAMPLE,
    canonicalize,
    same_partition_and_B,
)
from rolekit import (
    Adjacency,
    Assignment,
    NonConvergenceError,
    PerturbationModel,
    RoleMatrix,
    SimilarityState,
    build_ideal,
    checkerboard_signature,
    cluster_rows,
    default_beta2,
    estimate_rank,
    extract_roles,
    extraction_cost,
    fixed_point,
    generate_structure,
    ideal_adjacency,
    iterate,
    lowrank_iterate,
    perturb,
    reconstruct_B,
    spectrum_report,
    split_signed_roles,
)
from rolekit.extract import (
    _ZERO_ROW_RTOL,
    _farthest_first,
    _gap_estimate,
    _normalized_rows,
    _spherical_kmeans,
)
from rolekit import extract, lowrank, similarity
from rolekit.graphcore import _merge_equivalent_roles
from rolekit.lowrank import DEFAULT_GAP_RATIO, _similarity_stack
from rolekit.similarity import _quotient_similarity

# the 5-role signed generalized role matrix of the 6-node checkerboard example
SIGNED_SPLIT_B_HAT = np.array([
    [0, 0, -1, 0, 0],
    [0, 0, 1, 0, 0],
    [0, 0, 0, -1, 1],
    [1, -1, 0, 0, 0],
    [-1, 1, 0, 0, 0],
], dtype=float)


# ---------------------------------------------------------------------------
# cluster_rows
# ---------------------------------------------------------------------------

def test_cluster_rows_separates_nonparallel_rows_beyond_rank():
    # three directions inside a rank-2 space still give three clusters
    U = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    asg = cluster_rows(U)
    assert asg.q == 3
    assert np.array_equal(asg.sigma, [0, 1, 2])


def test_cluster_rows_identical_rows_single_cluster():
    U = np.tile([0.3, -0.4], (5, 1))
    asg = cluster_rows(U)
    assert asg.q == 1


def test_cluster_rows_antiparallel_rows_share_a_line():
    U = np.array([[1.0, 2.0], [-1.0, -2.0]])
    assert cluster_rows(U).q == 1


def test_cluster_rows_zero_rows_unassigned():
    U = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    asg = cluster_rows(U)
    assert asg.unassigned() == [1]
    assert asg.q == 2


def test_cluster_rows_recovers_block_cycle_ground_truth():
    A, _, truth = generate_structure("block_cycle", (20, 10, 10, 20))
    state = lowrank_iterate(A, 0.5 * default_beta2(A), k=3, trunc_tol=1e-10)
    asg = cluster_rows(state.U)
    assert asg.q == 4
    got, _ = canonicalize(asg)
    want, _ = canonicalize(truth)
    assert np.array_equal(got, want)


def test_cluster_count_independent_of_depth():
    A, B, _ = generate_structure("overlapping", (4, 3, 5))
    beta2 = 0.5 * default_beta2(A)
    for k in (1, 2, 3, 6):
        state = lowrank_iterate(A, beta2, k=k)
        assert cluster_rows(state.U).q == B.q


def test_cluster_representatives_never_parallel_for_minimal_B():
    rng = np.random.default_rng(6)
    for sizes in [(3, 4, 5), (2, 2, 3, 3)]:
        A, _, _ = generate_structure("block_cycle", sizes,
                                     perm=rng.permutation(int(sum(sizes))))
        state = lowrank_iterate(A, 0.5 * default_beta2(A), k=4)
        U = state.U
        asg = cluster_rows(U)
        reps = [U[np.flatnonzero(asg.sigma == r)[0]] for r in range(asg.q)]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                u, v = reps[i], reps[j]
                cosang = abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
                assert np.arccos(min(cosang, 1.0)) > 1e-6


def _normalized_rows_by_row(U):
    """The per-row definition: divide every nonzero row by its norm."""
    norms = np.linalg.norm(U, axis=1)
    zero = norms <= _ZERO_ROW_RTOL * (norms.max() if norms.size else 0.0)
    rows = np.zeros_like(U)
    for i in np.flatnonzero(~zero):
        rows[i] = U[i] / norms[i]
    return rows, zero


def _cluster_rows_by_pair(U, angle_tol=1e-6):
    """Greedy grouping with one angle test per (row, representative) pair."""
    rows, zero = _normalized_rows_by_row(U)
    sigma = -np.ones(rows.shape[0], dtype=int)
    reps = []
    for i in range(rows.shape[0]):
        if zero[i]:
            continue
        for label, rep in enumerate(reps):
            if np.arccos(np.clip(abs(float(rows[i] @ rep)), 0.0, 1.0)) <= angle_tol:
                sigma[i] = label
                break
        else:
            sigma[i] = len(reps)
            reps.append(rows[i])
    return sigma


def _bundled_rows(rng, n=300, d=12, bundles=7):
    """Rows in planted near-parallel bundles (angles ~1e-9, far inside the
    default tolerance), loose copies (angles ~1e-4, far outside it),
    sign-flipped and rescaled copies, exact zero rows, rows too small to
    count, and rows with tied leading magnitudes."""
    dirs = rng.standard_normal((bundles, d))
    if d >= 2:
        # two entries of equal top magnitude and opposite sign: a sign
        # convention by leading entry would split this bundle into two
        # nearly antiparallel halves; grouping by line angle must not
        top = np.abs(dirs[0]).max() + 1.0
        dirs[0, :2] = [top, -top]
    U = np.empty((n, d))
    for i in range(n):
        kind = rng.integers(6)
        base = dirs[rng.integers(bundles)]
        scale = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)
        if kind == 0:
            U[i] = scale * (base + 1e-9 * rng.standard_normal(d))
        elif kind == 1:
            U[i] = scale * (base + 1e-4 * rng.standard_normal(d))
        elif kind == 2 and i > 0:
            U[i] = -U[rng.integers(i)]
        elif kind == 3:
            U[i] = rng.standard_normal(d)
        elif kind == 4:
            U[i] = 0.0
        else:
            U[i] = scale * base
    U[rng.integers(n, size=5)] = 1e-15              # below the zero-row cutoff
    if d >= 2:
        tied = rng.integers(n, size=5)
        U[tied] = 0.0
        U[tied, :2] = [-2.0, 2.0]                   # tie: the first entry leads
    return U


def test_normalized_rows_equal_the_per_row_definition_bit_for_bit():
    rng = np.random.default_rng(29)
    cases = [_bundled_rows(rng), _bundled_rows(rng, n=40, d=1),
             np.array([[0.0, -0.0], [-3.0, 3.0], [0.0, -1e-300]]),
             np.zeros((4, 3)), np.zeros((3, 0)), np.zeros((0, 3))]
    for U in cases:
        rows, zero = _normalized_rows(U)
        want_rows, want_zero = _normalized_rows_by_row(U)
        assert rows.shape == want_rows.shape
        assert rows.tobytes() == want_rows.tobytes()
        assert np.array_equal(zero, want_zero)


def test_cluster_rows_equals_the_per_pair_loop():
    rng = np.random.default_rng(31)
    for _ in range(4):
        U = _bundled_rows(rng)
        for angle_tol in (1e-6, 1e-3, 0.3):
            got = cluster_rows(U, angle_tol).sigma
            assert np.array_equal(got, _cluster_rows_by_pair(U, angle_tol))


def test_cluster_rows_equals_the_per_pair_loop_on_a_noisy_factor():
    A, _, _ = generate_structure("block_cycle", (15, 15, 15, 15))
    noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=3))
    U = lowrank_iterate(noisy, default_beta2(noisy), k=6, trunc_tol=1e-3).U
    for angle_tol in (1e-6, 0.2, 0.5):
        got = cluster_rows(U, angle_tol).sigma
        assert np.array_equal(got, _cluster_rows_by_pair(U, angle_tol))


# ---------------------------------------------------------------------------
# reconstruct_B and extraction_cost
# ---------------------------------------------------------------------------

def test_reconstruct_B_exact_on_ideal_blocks():
    for kind, sizes in [("community", (3, 4)), ("block_cycle", (3, 2, 4)),
                        ("overlapping", (3, 3, 3))]:
        A, B, truth = generate_structure(kind, sizes)
        got = reconstruct_B(A, truth)
        assert np.array_equal(got.entries, B.entries)


def test_reconstruct_B_density_threshold():
    # block (0,1) density 0.75 -> edge; block (1,0) density 0.5 -> tie -> 0
    A = Adjacency.from_matrix(np.array([
        [0, 0, 1, 1],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ], dtype=float))
    asg = Assignment.from_blocks((2, 2))
    B = reconstruct_B(A, asg)
    assert B.entries[0, 1] == 1.0
    assert B.entries[1, 0] == 0.0


def test_reconstruct_B_on_perturbed_block_cycle():
    A, B, truth = generate_structure("block_cycle", (10, 10, 10, 10))
    noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=123))
    got = reconstruct_B(noisy, truth)
    assert np.array_equal(got.entries, B.entries)


def test_empty_roles_rejected_at_assignment_level():
    with pytest.raises(ValueError):
        Assignment(np.array([0, 0, 2]))  # role 1 owns no node
    with pytest.raises(ValueError):
        Assignment(np.array([-1, -1, -1]))


def test_extraction_cost_zero_on_ideal_triple():
    A, B, truth = generate_structure("community", (4, 5, 3))
    assert extraction_cost(A, truth, B) == 0.0


def test_extraction_cost_counts_flipped_edges():
    A, B, truth = generate_structure("community", (4, 5, 3))
    M = A.entries.copy()
    M[0, -1] = 1.0  # one spurious edge
    assert extraction_cost(Adjacency.from_matrix(M), truth, B) == 1.0


def test_reconstruct_B_minimizes_cost_over_all_binary_role_matrices():
    rng = np.random.default_rng(77)
    for _ in range(10):
        q = int(rng.integers(2, 4))
        sizes = rng.integers(1, 4, size=q)
        n = int(sizes.sum())
        asg = Assignment.from_blocks(sizes, perm=rng.permutation(n))
        A = Adjacency.from_matrix((rng.random((n, n)) < 0.5).astype(float))
        best = extraction_cost(A, asg, reconstruct_B(A, asg))
        for bits in range(2 ** (q * q)):
            entries = np.array([(bits >> i) & 1 for i in range(q * q)],
                               dtype=float).reshape(q, q)
            assert best <= extraction_cost(A, asg, RoleMatrix(entries)) + 1e-12


def _random_role_model(rng, n):
    """A random partition of n nodes (some unassigned), optionally signed,
    and a random binary role matrix."""
    q = int(rng.integers(1, 6))
    sigma = np.where(rng.random(n) < 0.2, -1, rng.integers(0, q, n))
    sigma[rng.permutation(n)[:q]] = np.arange(q)    # every role owns a node
    signs = None
    if rng.random() < 0.5:
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    B = RoleMatrix((rng.random((q, q)) < 0.5).astype(float))
    return Assignment(sigma, signs=signs), B


def test_extraction_cost_equals_the_dense_definition():
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(5, 40))
        asg, B = _random_role_model(rng, n)
        if trial % 3 == 0:     # signed
            M = rng.choice([-1.0, 0.0, 1.0], size=(n, n))
        elif trial % 3 == 1:   # unweighted
            M = (rng.random((n, n)) < 0.4).astype(float)
        else:                  # weighted
            M = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
        A = Adjacency.from_matrix(M)
        dense = float(np.sum((M - ideal_adjacency(B, asg).entries) ** 2))
        got = extraction_cost(A, asg, B)
        if A.kind == "weighted":
            assert abs(got - dense) <= 1e-12 * float(np.sum(M * M))
        else:
            # every term is an integer: the block-sum cost is exact
            assert got == dense


def test_extraction_cost_rejects_a_mismatched_assignment():
    A, B, truth = generate_structure("community", (4, 5, 3))
    with pytest.raises(ValueError):
        extraction_cost(Adjacency.from_matrix(np.zeros((5, 5))), truth, B)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

def test_extract_roles_community():
    A, B, truth = generate_structure("community", (5, 5, 5))
    result = extract_roles(A)
    assert result.q_est == 3
    assert result.residual == 0.0
    assert np.array_equal(result.B.entries, np.eye(3))
    assert same_partition_and_B(result, B, truth)


def test_extract_roles_overlapping_communities():
    A, B, truth = generate_structure("overlapping", (5, 4, 6))
    result = extract_roles(A)
    assert result.q_est == 3
    assert result.residual == 0.0
    assert same_partition_and_B(result, B, truth)


def test_extract_roles_bipartite_communities():
    A, B, truth = generate_structure("bipartite_communities", (3, 4, 3, 4, 3, 4))
    result = extract_roles(A)
    assert result.q_est == 6
    assert result.residual == 0.0
    assert same_partition_and_B(result, B, truth)


def test_extract_roles_rank_deficient_counterexample():
    result = extract_roles(Adjacency.from_matrix(RANK_DEFICIENT))
    assert result.q_est == 3
    assert result.residual == 0.0
    assert np.array_equal(result.B.entries, RANK_DEFICIENT)
    assert [int(v) for v in result.assignment.sigma] == [0, 1, 2]


def test_extract_roles_signed_checkerboard():
    A, B, truth = generate_structure("signed_example")
    result = extract_roles(A)
    assert result.q_est == 3
    assert result.residual == 0.0
    assert result.assignment.signs is not None
    assert same_partition_and_B(result, B, truth)
    # signed reconstruction is exact
    assert np.array_equal(ideal_adjacency(result.B, result.assignment).entries,
                          A.entries)


def test_extract_roles_non_minimal_input_returns_minimal_structure():
    # duplicated role (structurally equivalent) plus a disconnected role
    B = RoleMatrix([[1, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
    A = build_ideal(B, (2, 2, 3, 2))
    result = extract_roles(A)
    assert result.q_est == 2
    assert np.array_equal(result.B.entries, [[1, 1], [1, 0]])
    assert result.unassigned == [7, 8]
    assert result.residual == 0.0


def test_extract_roles_reports_disconnected_nodes():
    M = np.zeros((5, 5))
    M[0, 1] = M[1, 0] = M[1, 2] = 1.0  # nodes 3, 4 disconnected
    result = extract_roles(Adjacency.from_matrix(M))
    assert result.unassigned == [3, 4]


def test_extract_roles_rejects_empty_graph():
    with pytest.raises(ValueError):
        extract_roles(Adjacency.from_matrix(np.zeros((3, 3))))


def test_extract_roles_perturbed_block_cycle_recovers_four_roles():
    A, B, truth = generate_structure("block_cycle", (15, 15, 15, 15))
    noisy = perturb(A, PerturbationModel(p_in=0.08, p_out=0.08, seed=5))
    result = extract_roles(noisy, trunc_tol=1e-3)
    assert result.params["method"] == "sweep"
    assert result.q_est == 4
    got, _ = canonicalize(result.assignment)
    want, _ = canonicalize(truth)
    assert np.array_equal(got, want)
    assert np.array_equal(result.B.entries, B.entries)


# ---------------------------------------------------------------------------
# signed role splitting
# ---------------------------------------------------------------------------

def test_split_signed_roles_reference_example():
    _, B, truth = generate_structure("signed_example")
    split = split_signed_roles(truth, B)
    assert split.B_hat.shape == (5, 5)
    assert np.array_equal(split.B_hat, SIGNED_SPLIT_B_HAT)
    # the unsigned sub-role indicator reconstructs the signed graph
    W = split.assignment.membership()
    assert np.array_equal(W @ split.B_hat @ W.T, SIGNED_EXAMPLE)


def test_split_signed_roles_all_positive_is_identity():
    _, B, truth = generate_structure("community", (3, 4))
    signed = Assignment(truth.sigma, signs=np.ones(truth.n))
    split = split_signed_roles(signed, B)
    assert np.array_equal(split.B_hat, B.entries)
    assert np.array_equal(split.Z_hat, np.eye(B.q))


def test_split_signed_roles_every_role_mixed_doubles_dimension():
    B = RoleMatrix([[0, 1], [1, 0]])
    signs = (1, -1, 1, 1, -1, -1)
    A = build_ideal(B, (3, 3), signs=signs)
    truth = Assignment.from_blocks((3, 3), signs=signs)
    split = split_signed_roles(truth, B)
    assert split.B_hat.shape == (4, 4)
    W = split.assignment.membership()
    assert np.array_equal(W @ split.B_hat @ W.T, A.entries)


def _auto_without_early_stop(A, **kwargs):
    """What ``extract_roles`` returns with the greedy grouping run in full
    on the rows of a factor: the greedy model, as the result JSON without
    ``params``, when it reproduces the work graph exactly with at most
    n_active // 2 roles; otherwise None, for the sweep."""
    signature = checkerboard_signature(A) if A.kind == "signed" else None
    work = A if signature is None else abs(A)
    state = lowrank_iterate(work, default_beta2(work), k=kwargs.get("k", 6),
                            trunc_tol=kwargs.get("trunc_tol", 1e-10))
    n_active = int((~_normalized_rows(state.U)[1]).sum())
    greedy = cluster_rows(state.U)
    B = reconstruct_B(work, greedy)
    if greedy.q > n_active // 2 or extraction_cost(work, greedy, B) != 0.0:
        return None
    B, greedy = _merge_equivalent_roles(B, greedy)
    if signature is not None:
        greedy = Assignment(greedy.sigma, signs=signature.diag.copy())
    return {"q": greedy.q, "sigma": greedy.sigma.tolist(),
            "B": B.entries.astype(int).ravel().tolist(),
            "residual": extraction_cost(A, greedy, B), "unassigned": greedy.unassigned()}


def _auto_graphs():
    rng = np.random.default_rng(12)
    for kind, sizes in [("community", (5, 6, 4)), ("overlapping", (6, 5, 7)),
                        ("bipartite_communities", (4, 6, 5, 3)),
                        ("block_cycle", (6, 5, 7, 4)), ("community", (1, 1, 2)),
                        ("community", (1, 1, 1, 2)), ("signed_example", None)]:
        n = 6 if sizes is None else sum(sizes)
        A, _, _ = generate_structure(kind, sizes, perm=rng.permutation(n))
        yield A, {}
    for n, p, seed in [(40, 0.05, 1), (60, 0.1, 2), (100, 0.1, 3), (200, 0.1, 4)]:
        A, _, _ = generate_structure("block_cycle", (n // 4,) * 4,
                                     perm=rng.permutation(n))
        yield perturb(A, PerturbationModel(p_in=p, p_out=p, seed=seed)), {"trunc_tol": 1e-3}
    # ideal graphs of random role matrices, duplicated roles (B not minimal)
    # and a role with no edge (isolated nodes) among them
    for q in (3, 4, 5, 6):
        for _ in range(3):
            B = (rng.random((q, q)) < 0.4).astype(float)
            B[q - 1] = B[0]
            B[:, q - 1] = B[:, 0]
            if rng.random() < 0.5:
                B[1] = B[:, 1] = 0.0
            sizes = rng.integers(1, 6, size=q)
            n = int(sizes.sum())
            A = build_ideal(RoleMatrix(B), sizes, perm=rng.permutation(n))
            if A.entries.any():
                yield A, {}
    # a few flips on ideal graphs: the flipped nodes become classes of their
    # own, and the quotient stays compressive
    for kind, sizes, seed in [("block_cycle", (10, 10, 10, 10), 5),
                              ("community", (8, 12, 10), 6),
                              ("bipartite_communities", (6, 8, 7, 9), 7)]:
        n = sum(sizes)
        A, _, _ = generate_structure(kind, sizes, perm=rng.permutation(n))
        noisy = perturb(A, PerturbationModel(p_in=0.003, p_out=0.003, seed=seed))
        assert 0 < np.abs(noisy.entries - A.entries).sum() and noisy.quotient.c <= n // 2
        yield noisy, {}


def test_auto_returns_what_it_returned_without_the_greedy_early_stop():
    methods = []
    for A, kwargs in _auto_graphs():
        got = extract_roles(A, **kwargs).to_json_dict()
        want = _auto_without_early_stop(A, **kwargs)
        methods.append(got["params"].pop("method"))
        if want is None:
            assert methods[-1] == "sweep"
        else:
            assert methods[-1] == "greedy"
            assert {key: got[key] for key in want} == want
    assert set(methods) == {"greedy", "sweep"}


def test_exact_extraction_reads_no_factor_rows(monkeypatch):
    # the exact model is the class partition, scored without a look at the
    # factor; only the sweep reads its unit rows
    calls = []
    rows = extract._normalized_rows
    monkeypatch.setattr(extract, "_normalized_rows",
                        lambda U: calls.append(U.shape) or rows(U))
    rng = np.random.default_rng(13)
    for kind, sizes in [("community", (5, 6, 4)), ("block_cycle", (20, 10, 10, 20)),
                        ("bipartite_communities", (4, 6, 5, 3)),
                        ("overlapping", (6, 5, 7))]:
        A, _, _ = generate_structure(kind, sizes, perm=rng.permutation(sum(sizes)))
        for k in (1, 6, None):
            assert extract_roles(A, k=k).params["method"] == "greedy"
            assert calls == []
    A, _, _ = generate_structure("block_cycle", (10,) * 4, perm=rng.permutation(40))
    noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=1))
    assert extract_roles(noisy, trunc_tol=1e-3).params["method"] == "sweep"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the sweep and the gap estimate read S alone, whatever its factor
# ---------------------------------------------------------------------------

def _spherical_kmeans_on_rows(U, q):
    """Spherical k-means on the unit rows of a factor U, run row by row as
    the sweep runs it: seeds farthest-first from the row of largest norm,
    centers the normalized sums of their members, a cluster left empty
    reseeded with the row its old center serves worst."""
    norms = np.linalg.norm(U, axis=1)
    X = U / norms[:, None]
    seeds = [int(np.argmax(norms))]
    near = X @ X[seeds[0]]
    while len(seeds) < q:
        seeds.append(int(np.argmin(near)))
        near = np.maximum(near, X @ X[seeds[-1]])
    C = X[seeds]
    labels = np.zeros(X.shape[0], dtype=int)
    for _ in range(100):
        new = np.argmax(X @ C.T, axis=1)
        for label in range(q):
            if not (new == label).any():
                new[int(np.argmin(np.einsum("ij,ij->i", X, C[new])))] = label
        C = np.array([X[new == label].sum(axis=0) for label in range(q)])
        C /= np.linalg.norm(C, axis=1)[:, None]
        if np.array_equal(new, labels):
            break
        labels = new
    return canonicalize(Assignment(labels))[0]


def test_spherical_kmeans_reseeds_an_empty_cluster():
    # rows in 2 directions at q = 3: the third seed repeats the first, its
    # cluster is left empty and is reseeded, so every cluster keeps a row
    R = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 2)
    labels = _spherical_kmeans(R, np.ones(5), _farthest_first(R, 0, 3))
    assert sorted(set(labels.tolist())) == [0, 1, 2]
    assert len(set(labels[:3].tolist()) & set(labels[3:].tolist())) == 0


def test_the_sweep_seeds_once_per_start_and_scores_each_partition_once(monkeypatch):
    # 40 classes take the thin route; the sweep runs 5 role counts from 4
    # starts, 20 trials, of which only 11 give distinct partitions
    A, _, _ = generate_structure("block_cycle", (10,) * 4,
                                 perm=np.random.default_rng(1).permutation(40))
    noisy = perturb(A, PerturbationModel(0.1, 0.1, seed=1))
    assert noisy.quotient.c == 40
    calls = {"_farthest_first": [], "_spherical_kmeans": [], "_role_model": []}
    for name, log in calls.items():
        def logged(*args, f=getattr(extract, name), log=log):
            log.append((args, f(*args)))
            return log[-1][1]
        monkeypatch.setattr(extract, name, logged)
    assert extract_roles(noisy, trunc_tol=1e-3).params["method"] == "sweep"
    trials = calls["_spherical_kmeans"]
    counts = sorted({len(seeds) for (_, _, seeds), _ in trials})
    assert len(trials) == 4 * len(counts) == 20
    assert [args[1:] for args, _ in calls["_farthest_first"]] == [
        (start, counts[-1]) for start in range(4)]
    partitions = {tuple(canonicalize(Assignment(labels))[0]) for _, labels in trials}
    assert len(calls["_role_model"]) == len(partitions) < len(trials)


def _noisy_graphs():
    rng = np.random.default_rng(41)
    for kind, sizes, p in [("block_cycle", (15, 15, 15, 15), 0.1),
                           ("block_cycle", (20, 10, 10, 20), 0.2),
                           ("community", (12, 18, 15), 0.1),
                           ("overlapping", (10, 12, 14), 0.15)]:
        n = sum(sizes)
        A, _, _ = generate_structure(kind, sizes, perm=rng.permutation(n))
        yield perturb(A, PerturbationModel(p_in=p, p_out=p, seed=n))


def test_the_kernel_sweep_equals_spherical_kmeans_on_any_factor():
    rng = np.random.default_rng(43)
    for A in _noisy_graphs():
        assert A.quotient.c == A.n
        S = iterate(A, default_beta2(A), 6).S
        w, V = np.linalg.eigh(S)
        U = V * np.sqrt(np.clip(w, 0.0, None))            # S = U U^T
        Q = np.linalg.qr(rng.standard_normal((A.n, A.n)))[0]   # a random rotation
        rows = _normalized_rows(U @ Q)[0]
        for q in range(1, 7):
            seeds = _farthest_first(rows, int(np.argmax(np.diag(S))), q)
            got = canonicalize(Assignment(_spherical_kmeans(rows, np.ones(A.n), seeds)))[0]
            assert np.array_equal(got, _spherical_kmeans_on_rows(U, q))
            assert np.array_equal(got, _spherical_kmeans_on_rows(U @ Q, q))


def test_the_sweep_recovers_most_planted_roles_at_20_percent_flips():
    # 48 graphs: 4 generators x n in {40, 80, 160} x 4 seeds, 4 equal roles,
    # all with more than 32 classes, so extraction runs on the thin
    # similarity of rank 8.  It recovers 42.  On the exact similarity,
    # seeding k-means from the four classes of largest S_aa recovered 40;
    # from that class alone 35, and the factor-row sweep that seeded from
    # the first node 36.
    recovered = 0
    for kind in ("block_cycle", "community", "overlapping", "bipartite_communities"):
        for n in (40, 80, 160):
            for seed in range(4):
                rng = np.random.default_rng([n, seed, 20])
                A, B, truth = generate_structure(kind, (n // 4,) * 4,
                                                 perm=rng.permutation(n))
                noisy = perturb(A, PerturbationModel(0.2, 0.2, seed=seed))
                result = extract_roles(noisy, trunc_tol=1e-3)
                recovered += same_partition_and_B(result, B, truth)
    assert recovered >= 42


def test_a_recovered_planted_graph_has_the_flip_count_as_residual():
    # the ideal matrix of the planted partition and B is the unflipped
    # graph, so the residual of a recovered graph counts the flips exactly.
    # All 96 are recovered on the thin similarity (every graph has more
    # than 32 classes).  On the exact similarity 87 were: at 5% flips 9 of
    # the n = 40 graphs came out with q = 40 and residual 0, their gap
    # estimate set by a drop between the two smallest of the 40 eigenvalues
    # of S, a drop the 16 Ritz values of the thin route do not reach
    recovered = 0
    for p in (0.05, 0.1):
        for kind in ("block_cycle", "community", "overlapping", "bipartite_communities"):
            for n in (40, 80, 160):
                for seed in range(4):
                    rng = np.random.default_rng([n, seed, int(100 * p)])
                    A, B, truth = generate_structure(kind, (n // 4,) * 4,
                                                     perm=rng.permutation(n))
                    noisy = perturb(A, PerturbationModel(p, p, seed=seed))
                    result = extract_roles(noisy, trunc_tol=1e-3)
                    if same_partition_and_B(result, B, truth):
                        recovered += 1
                        assert result.residual == (noisy.entries != A.entries).sum()
    assert recovered == 96


# ---------------------------------------------------------------------------
# the thin route: S_k ~= X X^T at a fixed rank, above 2 (8 + 8) = 32 classes
# ---------------------------------------------------------------------------

def _result_json(result):
    return json.dumps(result.to_json_dict(), sort_keys=True)


def _dense_route(monkeypatch, A, **kwargs):
    """What extract_roles returns with the thin route switched off, so that
    it takes the exact stack [A_hat L, A_hat^T L]."""
    with monkeypatch.context() as patch:
        patch.setattr(extract, "_thin_similarity", lambda *args: None)
        return extract_roles(A, **kwargs)


def test_equal_degrees_leave_the_thin_route_for_the_dense_one(monkeypatch):
    # a 4-role block cycle of 10 nodes a role, plus a cyclic derangement
    # within each role: every node has in- and out-degree 11, so the start
    # block [A 1, A^T 1, ...] has rank 1, though no two nodes are
    # equivalent (c = n = 40 > 32)
    m, q = 10, 4
    M = np.zeros((m * q, m * q))
    for r in range(q):
        role, target = np.arange(r * m, (r + 1) * m), np.arange(m) + (r + 1) % q * m
        M[np.ix_(role, target)] = 1.0
        M[role, np.roll(role, 1)] = 1.0
    A = Adjacency.from_matrix(M)
    assert A.quotient.c == 40
    assert (M.sum(axis=0) == m + 1).all() and (M.sum(axis=1) == m + 1).all()
    assert lowrank._start_block(M, np.ones(m * q), 16) is None
    returned = []
    thin = extract._thin_similarity
    monkeypatch.setattr(extract, "_thin_similarity",
                        lambda *args: returned.append(thin(*args)) or returned[-1])
    result = extract_roles(A)
    assert returned == [None]
    assert _result_json(result) == _result_json(_dense_route(monkeypatch, A))
    # the derangements are a 1/m-dense diagonal block, so they count as noise
    assert result.q_est == q and result.residual == m * q


def test_an_undirected_graph_takes_the_thin_route(monkeypatch):
    # on a symmetric A_hat the start block skips A_hat^T sqrt(s), the copy
    # of A_hat sqrt(s), and grows on: the thin route runs at k = 6 (c = 76
    # > 32) and finds the planted communities, with one unit of residual
    # per flipped entry.  The dense route's gap estimate reads the squared
    # noise spectrum's drops toward zero, and puts every node in a role of
    # its own
    A, B, truth = generate_structure("community", (20, 18, 22, 16),
                                     perm=np.random.default_rng(1).permutation(76))
    u = np.triu(np.random.default_rng(501).random((76, 76)), 1)
    M = np.where(u + u.T + np.eye(76) < 0.05, 1.0 - A.entries, A.entries)
    noisy = Adjacency.from_matrix(M)
    assert noisy.quotient.c == 76 and (M == M.T).all()
    returned = []
    thin = extract._thin_similarity
    monkeypatch.setattr(extract, "_thin_similarity",
                        lambda *args: returned.append(thin(*args)) or returned[-1])
    result = extract_roles(noisy, k=6)
    assert len(returned) == 1 and returned[0] is not None
    assert same_partition_and_B(result, B, truth)
    assert result.residual == (M != A.entries).sum()
    assert _dense_route(monkeypatch, noisy, k=6).q_est == 76


def test_the_thin_rank_doubles_until_the_gap_fits(monkeypatch):
    # 8 roles of 8 nodes: the 8 Ritz values of the planted roles fill the
    # rank-8 factor, and the drop after them lies in the oversampled block,
    # so the rank doubles once; the result is the dense route's, and it is
    # the planted model
    A, B, truth = generate_structure("block_cycle", (8,) * 8,
                                     perm=np.random.default_rng(64).permutation(64))
    noisy = perturb(A, PerturbationModel(p_in=0.03, p_out=0.03, seed=3))
    assert noisy.quotient.c == 64
    ranks = []
    thin = extract._thin_similarity
    monkeypatch.setattr(extract, "_thin_similarity",
                        lambda M, sizes, beta2, k, rank: ranks.append(rank)
                        or thin(M, sizes, beta2, k, rank))
    result = extract_roles(noisy, trunc_tol=1e-3)
    assert ranks == [8, 16]
    assert _result_json(result) == _result_json(
        _dense_route(monkeypatch, noisy, trunc_tol=1e-3))
    assert same_partition_and_B(result, B, truth)
    assert result.residual == (noisy.entries != A.entries).sum()


def test_the_fixed_point_extraction_groups_on_meets_the_one_tolerance(monkeypatch):
    # ||S - G[I + beta^2 S]||_F <= 1e-13 ||S||_F for the solve's S, lifted
    # to the nodes, and extraction groups the rows of the stack F with
    # F F^T = G[I + beta^2 S]: on a noisy block cycle (no equivalent nodes)
    # and on one with two flipped edges (8 classes)
    seen = []

    def recording(*args):
        seen.append(_similarity_stack(*args))
        return seen[-1]

    monkeypatch.setattr(extract, "_similarity_stack", recording)
    A, _, _ = generate_structure("block_cycle", (3, 2, 4, 3))
    M = A.entries.copy()
    M[0, 5], M[7, 1] = 1.0 - M[0, 5], 1.0 - M[7, 1]
    noisy, _, _ = generate_structure("block_cycle", (10, 10, 10, 10))
    noisy = perturb(noisy, PerturbationModel(p_in=0.1, p_out=0.1, seed=3))
    for A in (noisy, Adjacency.from_matrix(M)):
        extract_roles(A, k=None)
        F, state = seen[-1]
        lift = A.quotient.lift
        S = lift(lift(state.S).T)
        X = np.eye(A.n) + state.beta2 * S
        M = A.entries
        image = M @ X @ M.T + M.T @ X @ M
        assert np.linalg.norm(image - S) <= 1e-13 * np.linalg.norm(S)
        assert np.linalg.norm(lift(lift(F @ F.T).T) - image) <= 1e-12 * np.linalg.norm(image)


def test_nonconvergence_carries_the_last_iterate_on_the_nodes(monkeypatch):
    # 12 classes of 24 nodes; the solve runs on the quotient and needs 14
    # iterations, and the state is lifted back.  beta_bound's Lanczos stops
    # after one step, so only the solve meets the cap.  At weight 2 the
    # binary role model of the classes is not exact, so extraction does not
    # keep them before it computes the similarity
    A = Adjacency.from_matrix(2.0 * DOUBLED_PERMUTATIONS)
    assert (A.n, A.quotient.c) == (24, 12)
    beta2 = default_beta2(A)
    monkeypatch.setattr(similarity, "DEFAULT_MAX_K", 3)
    with pytest.raises(NonConvergenceError) as info:
        extract_roles(A, beta2=beta2, k=None)
    with pytest.raises(NonConvergenceError) as dense:
        fixed_point(A, beta2)
    state, want = info.value.state, dense.value.state
    assert isinstance(state, SimilarityState) and isinstance(want, SimilarityState)
    assert state.S.shape == (A.n, A.n)
    assert (state.k, state.beta2, state.converged) == (3, beta2, False)
    assert np.linalg.norm(state.S - want.S) <= 1e-12 * np.linalg.norm(want.S)
    assert info.value.history == pytest.approx(dense.value.history, rel=1e-9)


def _gap_graphs():
    """The noisy graphs above and the acceptance suite's: 10%-flipped block
    cycles at n = 200 (criterion 10) and n = 500 (criterion 12), and ideal
    ones on every generator, rank-deficient included (criteria 3 and 7)."""
    for A in _noisy_graphs():
        yield A, 1e-3
    A, _, _ = generate_structure("block_cycle", (50, 50, 50, 50))
    for seed in range(3):
        yield perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=seed)), 1e-3
    rng = np.random.default_rng(500)
    A, _, _ = generate_structure("block_cycle", (125, 125, 125, 125),
                                 perm=rng.permutation(500))
    yield perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=500)), 1e-3
    yield Adjacency.from_matrix(RANK_DEFICIENT), 1e-10
    for kind, sizes in [("community", (5, 6, 4)), ("overlapping", (6, 5, 7)),
                        ("bipartite_communities", (4, 6, 5, 3)),
                        ("block_cycle", (6, 5, 7, 4)), ("community", (1, 1, 1, 2)),
                        ("signed_example", None)]:
        A, _, _ = generate_structure(kind, sizes)
        yield abs(A), 1e-10


def _eigen_factor(S):
    """The exact route's factor before extraction took the stack
    ``[A_hat L, A_hat^T L]``, kept as a reference: ``V diag(sqrt(w))`` of
    ``S = V diag(w) V^T`` over the eigenvalues above the rounding floor
    c eps w[0], and all eigenvalues w, largest first."""
    w, V = np.linalg.eigh(S)
    w, V = w[::-1], V[:, ::-1]
    keep = w > S.shape[0] * np.finfo(float).eps * w[0]
    return V[:, keep] * np.sqrt(w[keep]), w


@pytest.mark.parametrize("k", [6, None])
def test_the_gap_estimate_equals_the_one_from_the_factor(k, monkeypatch):
    # every extraction here takes the exact route's sweep: no thin factor,
    # and no model is exact.  The sweep's estimate, on sigma(F)^2, equals the
    # one on the eigenvalues of S_hat_k and the one on lowrank_iterate's
    # kept singular values
    estimates = []

    def recording(w, c, trunc_tol):
        estimates.append(original(w, c, trunc_tol))
        return estimates[-1]

    original = extract._gap_estimate
    monkeypatch.setattr(extract, "_gap_estimate", recording)
    monkeypatch.setattr(extract, "_thin_similarity", lambda *args: None)
    model = extract._role_model

    def inexact(*args):
        B, cost = model(*args)
        return B, cost + 1.0

    monkeypatch.setattr(extract, "_role_model", inexact)
    for A, trunc_tol in _gap_graphs():
        beta2 = default_beta2(A)
        S = _quotient_similarity(A, beta2, k).S
        sigma = lowrank_iterate(A, beta2, k=k, trunc_tol=trunc_tol).sigma
        want = _gap_estimate(_eigen_factor(S)[1], S.shape[0], trunc_tol)
        assert want == estimate_rank(sigma**2, DEFAULT_GAP_RATIO)
        estimates.clear()
        extract_roles(A, beta2=beta2, k=k, trunc_tol=trunc_tol)
        assert estimates == [want]


@pytest.mark.parametrize("k", [1, 6, None])
def test_the_signed_residual_is_the_cost_on_the_signed_graph(k):
    # A = D |A| D for the checkerboard signature D, so the cost that
    # extraction takes on |A| is the signed model's cost on A, on flipped
    # graphs too, whose model is not exact
    rng = np.random.default_rng(23)
    residuals = []
    for kind, sizes in [("block_cycle", (12, 10, 9, 11)), ("community", (8, 10, 9)),
                        ("bipartite_communities", (6, 8, 7, 5))]:
        n = sum(sizes)
        A, _, _ = generate_structure(kind, sizes, perm=rng.permutation(n))
        for p in (0.02, 0.1, 0.2):
            flipped = perturb(A, PerturbationModel(p_in=p, p_out=p, seed=n)).entries
            d = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            signed = Adjacency.from_matrix(d[:, None] * flipped * d[None, :])
            assert signed.kind == "signed"
            result = extract_roles(signed, k=k, trunc_tol=1e-3)
            assert result.assignment.signs is not None
            assert result.residual == extraction_cost(signed, result.assignment, result.B)
            residuals.append(result.residual)
    assert min(residuals[:6]) > 0.0   # the block cycle and communities are not exact


def test_ideal_extraction_calls_no_eigensolver(monkeypatch):
    # on ideal graphs the class partition is kept before any similarity is
    # computed: no factor, no recurrence on the quotient, no thin route and
    # no fixed-point solve, at a finite depth, k = 1 and the fixed point
    # alike.  beta_bound, whose Lanczos iteration reads its Ritz values off
    # a small tridiagonal matrix by eigh, is the one eigensolver call
    inside = []

    def forbidding(f):
        def call(*args, **kwargs):
            if not inside:
                raise AssertionError("an eigensolver ran on an ideal graph")
            return f(*args, **kwargs)
        return call

    def bound(A, _f=similarity.beta_bound):
        inside.append(A)
        try:
            return _f(A)
        finally:
            inside.pop()

    def never(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} ran for an exact model")
        return call

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidding(getattr(np.linalg, name)))
    monkeypatch.setattr(similarity, "beta_bound", bound)
    for module, name in [(extract, "_similarity_factor"), (extract, "_thin_similarity"),
                         (lowrank, "_thin_similarity"), (lowrank, "_quotient_similarity"),
                         (similarity, "_quotient_similarity"), (similarity, "_fixed_point")]:
        monkeypatch.setattr(module, name, never(name))
    for kind, sizes in [("block_cycle", (20, 10, 10, 20)), ("community", (5, 6, 4)),
                        ("bipartite_communities", (4, 6, 5, 3)), ("signed_example", None)]:
        A, B, truth = generate_structure(kind, sizes)
        for k in (1, 6, None):
            result = extract_roles(A, k=k)
            assert result.params["method"] == "greedy"
            assert result.residual == 0.0
            assert same_partition_and_B(result, B, truth)


def test_beta2_is_one_value_at_every_depth():
    # an exact model resolves beta2 on A, at the fixed point too, and a
    # sweep there resolves it by the solve on A_hat: beta_bound reads no n,
    # so the two agree bit for bit, also where it iterates densely (random
    # role matrices on 19 to 23 classes of 2 or 3 nodes, past the factored
    # rank of 16)
    rng = np.random.default_rng(31)
    for _ in range(8):
        c = int(rng.integers(17, 24))
        M = (rng.random((c, c)) < 0.3).astype(float)
        labels = rng.permutation(np.repeat(np.arange(c), rng.integers(2, 4, size=c)))
        A = Adjacency.from_matrix(M[np.ix_(labels, labels)])
        assert A.quotient.c == c
        on_quotient = fixed_point(similarity._quotient_graph(A)).beta2
        for k in (1, 6, None):
            result = extract_roles(A, k=k)
            assert result.params["method"] == "greedy"
            assert result.params["beta2"] == on_quotient == default_beta2(A)


def test_beta2_is_one_value_at_every_depth_where_the_quotient_merges_classes():
    # A has 4 classes, and the rows and columns of its weighted quotient
    # matrix A_hat for the class {0} and the class {1-4} are equal: read as
    # a plain graph, A_hat has 3 classes, and beta_bound on it differs
    # from beta_bound on A in the last bit.  The quotient graph the fixed
    # point solves on keeps A's 4 classes, so every depth resolves one beta2
    M = np.zeros((7, 7))
    M[0, 0] = 4
    M[0, 1:5] = 2
    M[1:5, 0] = 2
    M[1:5, 1:5] = 1
    M[1:5, 6] = 1
    M[0, 6] = 2
    M[5:, 1:5] = 1
    M[5:, 0] = 2
    A = Adjacency.from_matrix(M)
    plain = Adjacency.from_matrix(A.quotient.entries)
    assert (A.quotient.c, plain.quotient.c, similarity._quotient_graph(A).quotient.c) == (4, 3, 4)
    assert similarity.beta_bound(plain) != similarity.beta_bound(A)
    beta2 = default_beta2(A)
    for k in (1, 6, None):
        assert extract_roles(A, k=k).params["beta2"] == beta2
        assert spectrum_report(A, k=k).beta2 == beta2


def test_params_record_the_two_constants_that_are_no_arguments():
    A, _, _ = generate_structure("block_cycle", (20, 10, 10, 20))
    params = dict(extract_roles(A).params)
    assert params.pop("beta2") == default_beta2(A)
    assert params == {"angle_tol": 1e-6, "gap_ratio": 0.5, "k": 6, "method": "greedy",
                      "trunc_tol": 1e-10}
    for name in ("angle_tol", "gap_ratio"):
        with pytest.raises(TypeError, match=name):
            extract_roles(A, **{name: params[name]})
