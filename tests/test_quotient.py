"""The quotient by structural equivalence, against brute-force oracles.

Graphs here carry planted equivalent nodes: a small random base graph is
blown up by copying rows and columns, so each base node stands for a class
of nodes with equal rows and equal columns.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import kron_rho
from rolekit import (
    Adjacency,
    Assignment,
    apply_rank_one_weights,
    beta_bound,
    default_beta2,
    extract_roles,
    extraction_cost,
    fixed_point,
    generate_structure,
    iterate,
    lowrank_iterate,
    perturb,
    PerturbationModel,
    reconstruct_B,
)
from rolekit import extract, graphcore
from rolekit.graphcore import Quotient
from rolekit.similarity import _quotient_similarity


def brute_force_classes(M: np.ndarray) -> np.ndarray:
    """Label per node by pairwise comparison of rows and columns, classes
    numbered in order of first node."""
    n = M.shape[0]
    labels = -np.ones(n, dtype=int)
    c = 0
    for i in range(n):
        if labels[i] >= 0:
            continue
        for j in range(i, n):
            if np.array_equal(M[i], M[j]) and np.array_equal(M[:, i], M[:, j]):
                labels[j] = c
        c += 1
    return labels


def blown_up(rng, base: np.ndarray, n: int, zeros: int = 0):
    """Copy the rows and columns of ``base`` onto n nodes in random order
    (every base node at least once), then append ``zeros`` disconnected
    nodes.  Returns the matrix and the base node of each of the n copies."""
    m = base.shape[0]
    pick = np.concatenate([np.arange(m), rng.integers(0, m, n - m)])
    rng.shuffle(pick)
    M = np.zeros((n + zeros, n + zeros))
    M[:n, :n] = base[np.ix_(pick, pick)]
    return M, pick


def planted_graphs():
    """(name, Adjacency) pairs covering the unsigned, signed-through-|A|,
    D A D weighted and disconnected-node cases."""
    rng = np.random.default_rng(2024)
    graphs = []
    for t in range(6):
        m = int(rng.integers(2, 6))
        base = (rng.random((m, m)) < 0.5).astype(float)
        base[0, m - 1] = 1.0
        n = int(rng.integers(m + 2, 3 * m + 1))
        M, _ = blown_up(rng, base, n)
        graphs.append((f"unsigned-{t}", Adjacency.from_matrix(M)))
        M, _ = blown_up(rng, base, n, zeros=2)
        graphs.append((f"disconnected-{t}", Adjacency.from_matrix(M)))
        # weights shared by the copies of a base node keep them equivalent
        M, pick = blown_up(rng, base, n)
        d = rng.uniform(0.5, 2.0, m)[pick]
        graphs.append((f"weighted-{t}", apply_rank_one_weights(Adjacency.from_matrix(M), d)))
    # a signed checkerboard ideal graph is extracted through |A|
    signed, _, _ = generate_structure("signed_example")
    graphs.append(("signed-abs", abs(signed)))
    graphs.append(("signed", signed))
    cycle, _, _ = generate_structure("block_cycle", (3, 2, 4, 3),
                                     perm=rng.permutation(12))
    graphs.append(("block-cycle", cycle))
    return graphs


GRAPHS = planted_graphs()
IDS = [name for name, _ in GRAPHS]


@pytest.mark.parametrize("A", [A for _, A in GRAPHS], ids=IDS)
def test_classes_equal_the_brute_force_comparison(A):
    quotient = A.quotient
    assert np.array_equal(quotient.labels, brute_force_classes(A.entries))
    assert np.array_equal(quotient.sizes, np.bincount(quotient.labels))
    assert np.array_equal(quotient.labels[quotient.first], np.arange(quotient.c))


def test_planted_graphs_have_equivalent_nodes():
    # the oracles below would say nothing about the quotient otherwise
    assert all(A.quotient.c < A.n for _, A in GRAPHS)


@pytest.mark.parametrize("A", [A for _, A in GRAPHS], ids=IDS)
def test_quotient_rebuilds_the_graph(A):
    quotient = A.quotient
    Q = quotient.lift(np.eye(quotient.c))
    assert np.allclose(Q.T @ Q, np.eye(quotient.c), rtol=0, atol=1e-14)
    assert np.allclose(Q @ quotient.entries @ Q.T, A.entries, rtol=0, atol=1e-12)


@pytest.mark.parametrize("A", [A for _, A in GRAPHS], ids=IDS)
def test_beta_bound_equals_the_kronecker_oracle(A):
    assert beta_bound(A) == pytest.approx(kron_rho(A), rel=1e-9)


@pytest.mark.parametrize("A", [A for _, A in GRAPHS], ids=IDS)
def test_lifted_factor_equals_the_dense_iterates(A):
    beta2 = default_beta2(A)
    quotient = A.quotient
    for k in range(1, 7):
        state = lowrank_iterate(A, beta2, k=k)
        S = iterate(A, beta2, k).S
        assert np.linalg.norm(state.U @ state.U.T - S) <= 1e-9 * np.linalg.norm(S)
        # rows of one class are equal bit for bit
        assert np.array_equal(state.U, state.U[quotient.first[quotient.labels]])
        assert state.r <= np.linalg.matrix_rank(np.hstack([A.entries, A.entries.T]))


def test_a_graph_without_equivalent_nodes_is_its_own_quotient():
    M = np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]], dtype=float)
    A = Adjacency.from_matrix(M)
    quotient = A.quotient
    assert quotient.c == 3
    assert quotient.entries is A.entries
    U = np.arange(6.0).reshape(3, 2)
    assert quotient.lift(U) is U


def test_quotient_is_computed_once_per_graph(monkeypatch):
    A, _, _ = generate_structure("block_cycle", (3, 2, 4, 3))
    calls = []
    original = graphcore._equivalence_classes
    monkeypatch.setattr(graphcore, "_equivalence_classes",
                        lambda M: calls.append(1) or original(M))
    extract_roles(A)
    assert len(calls) == 1


def test_the_exactness_check_holds_no_matrix_sized_gather():
    # the check compares blocks of 32 rows with their class heads: at
    # n = 2000 a block of 256 rows gathers 4 MB
    A, _, _ = generate_structure("block_cycle", (500,) * 4,
                                 perm=np.random.default_rng(2).permutation(2000))
    tracemalloc.start()
    try:
        quotient = Quotient.of(A.entries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quotient.c == 4
    assert peak < 2**20


def test_colliding_hashes_are_split_exactly(monkeypatch):
    # all-zero multipliers hash every node alike; the entry-by-entry check
    # must then split the classes by exact comparison
    monkeypatch.setattr(graphcore, "_fingerprint_weights",
                        lambda n: np.zeros(n, dtype=np.int64))
    for _, A in GRAPHS:
        labels = Quotient.of(A.entries).labels
        assert np.array_equal(labels, brute_force_classes(A.entries))


def test_einsum_fingerprints_equal_the_matrix_products():
    # wrapping int64 sums are exact in any order, so the einsum hashes are
    # those of bits @ w and w @ bits bit for bit, whatever the bit patterns
    rng = np.random.default_rng(14)
    values = np.array([0.0, 1.0, -1.0, -0.0, np.inf, -np.inf, 1e300, -1e300])
    for n in range(1, 301):
        M = rng.choice(values, size=(n, n), p=[0.5, 0.2, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03])
        if n % 2:
            M = M * rng.lognormal(0.0, 2.0, (n, n))   # weights; +-0, +-inf stay
        bits = M.view(np.int64)
        w = graphcore._fingerprint_weights(n)
        want = np.stack([bits @ w, w @ bits], axis=1)
        assert np.array_equal(graphcore._fingerprints(bits), want)


def test_negative_zero_is_its_own_entry():
    # classes compare bit patterns, so -0.0 and 0.0 differ; the quotient is
    # still exact
    M = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]], dtype=float)
    M[1, 0] = -0.0
    quotient = Quotient.of(M)
    assert np.array_equal(quotient.labels, [0, 1, 2])


# ---------------------------------------------------------------------------
# role models scored on the classes
# ---------------------------------------------------------------------------

def _class_level_graph(rng, kind: str):
    """A blown-up graph of the given kind with 0-2 disconnected nodes."""
    m = int(rng.integers(2, 7))
    if kind == "unweighted":
        base = (rng.random((m, m)) < 0.5).astype(float)
        base[0, m - 1] = 1.0
    elif kind == "signed":
        base = rng.choice([-1.0, 0.0, 1.0], size=(m, m))
        base[0, m - 1] = -1.0
    else:
        base = rng.lognormal(0.0, 1.0, (m, m)) * (rng.random((m, m)) < 0.6)
        base[0, m - 1] = 0.5
    M, _ = blown_up(rng, base, int(rng.integers(m + 2, 4 * m + 1)),
                    zeros=int(rng.integers(0, 3)))
    A = Adjacency.from_matrix(M)
    assert A.kind == kind and A.quotient.c < A.n
    return A


@pytest.mark.parametrize("kind", ["unweighted", "signed", "weighted"])
def test_class_block_sums_equal_the_node_level_model(monkeypatch, kind):
    # the block sums, B and cost read off the c x c class graph equal those
    # reconstruct_B and extraction_cost read off the n x n graph: bit for
    # bit on integer graphs, whose sums are exact in any order, and to
    # rounding on weighted ones (the cost relative to ||A||^2, as it is a
    # difference of terms of that size)
    seen = []
    original = extract._densest
    monkeypatch.setattr(extract, "_densest",
                        lambda sums, sizes: seen.append((sums, sizes)) or original(sums, sizes))
    rng = np.random.default_rng(["unweighted", "signed", "weighted"].index(kind))
    for _ in range(40):
        A = _class_level_graph(rng, kind)
        quotient = A.quotient
        c = quotient.c
        q = int(rng.integers(1, c + 1))
        roles = np.where(rng.random(c) < 0.2, -1, rng.integers(0, q, c))
        roles[rng.permutation(c)[:q]] = np.arange(q)      # every role owns a class
        base, norm2 = extract._class_graph(A)
        assert base.shape == (c, c)
        seen.clear()
        B, cost = extract._role_model(base, norm2, quotient.sizes, roles)
        assignment = Assignment(roles[quotient.labels])
        want_B = reconstruct_B(A, assignment)
        want_cost = extraction_cost(A, assignment, B)
        (sums, sizes), (want_sums, want_sizes) = seen
        assert np.array_equal(sizes, want_sizes)
        assert np.array_equal(B.entries, want_B.entries)
        if kind == "weighted":
            assert norm2 == pytest.approx(np.vdot(A.entries, A.entries), rel=1e-12)
            assert np.allclose(sums, want_sums, rtol=1e-12, atol=0.0)
            assert abs(cost - want_cost) <= 1e-12 * norm2
        else:
            assert norm2 == np.vdot(A.entries, A.entries)
            assert np.array_equal(sums, want_sums)
            assert cost == want_cost


def test_extraction_scores_its_models_on_the_class_graph(monkeypatch):
    # with equivalent nodes every model is scored on the c x c class graph;
    # without them on A itself, read in place
    seen = []
    original = extract._role_model
    monkeypatch.setattr(extract, "_role_model",
                        lambda base, *args: seen.append(base) or original(base, *args))
    A, _, _ = generate_structure("block_cycle", (20, 10, 10, 20),
                                 perm=np.random.default_rng(3).permutation(60))
    assert extract_roles(A).residual == 0.0
    assert seen and all(base.shape == (4, 4) for base in seen)
    seen.clear()
    noisy = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=4))
    assert noisy.quotient.c == noisy.n
    assert extract_roles(noisy, trunc_tol=1e-3).params["method"] == "sweep"
    assert seen and all(base is noisy.entries for base in seen)


# ---------------------------------------------------------------------------
# permutation equivariance of extraction
# ---------------------------------------------------------------------------

KINDS = ("community", "overlapping", "bipartite_communities", "block_cycle")


def canonical(sigma: np.ndarray) -> np.ndarray:
    """Relabel a partition by order of first node (-1 stays -1)."""
    out = -np.ones_like(sigma)
    seen: dict[int, int] = {}
    for i, s in enumerate(sigma):
        if s >= 0:
            out[i] = seen.setdefault(int(s), len(seen))
    return out


def assert_equivariant(M: np.ndarray, perm: np.ndarray, automorphisms=(), **kwargs):
    """extract_roles on M and on M permuted by ``perm`` agree: in q_est,
    residual and the unassigned nodes, and in the partition node for node
    or up to one of the given node automorphisms of M.  Returns the result
    on M."""
    before = extract_roles(Adjacency.from_matrix(M), **kwargs)
    after = extract_roles(Adjacency.from_matrix(M[np.ix_(perm, perm)]), **kwargs)
    assert after.params == {**before.params,
                            "beta2": pytest.approx(before.params["beta2"], rel=1e-12)}
    assert sorted(after.unassigned) == sorted(np.argsort(perm)[before.unassigned].tolist())
    assert after.q_est == before.q_est
    assert after.residual == before.residual
    # node i of the permuted graph is node moved[i] of the original, for
    # the identity or an automorphism pi in moved = pi[perm]
    for pi in [np.arange(M.shape[0]), *automorphisms]:
        moved = pi[perm]
        if np.array_equal(canonical(after.assignment.sigma),
                          canonical(before.assignment.sigma[moved])):
            break
    else:
        pytest.fail("the partitions differ beyond the automorphisms")
    # the role matrices agree under the matching of role labels
    match = {}
    for a, b in zip(before.assignment.sigma[moved], after.assignment.sigma):
        if a >= 0:
            match[int(a)] = int(b)
    order = [match[r] for r in range(before.q_est)]
    assert np.array_equal(after.B.entries[np.ix_(order, order)], before.B.entries)
    return before


def role_automorphisms(M: np.ndarray, B, truth) -> list[np.ndarray]:
    """The node automorphisms of an ideal graph induced by the permutations
    of its roles that preserve B and the role sizes."""
    sizes = truth.sizes()
    members = [np.flatnonzero(truth.sigma == r) for r in range(B.q)]
    out = []
    for rho in itertools.permutations(range(B.q)):
        rho = np.array(rho)
        if (np.array_equal(B.entries[np.ix_(rho, rho)], B.entries)
                and np.array_equal(sizes[rho], sizes)):
            pi = np.arange(M.shape[0])
            for r in range(B.q):
                pi[members[r]] = members[rho[r]]
            assert np.array_equal(M[np.ix_(pi, pi)], M)
            out.append(pi)
    return out


# Singleton roles make the class partition non-compressive, so "auto" falls
# back to the sweep on many of these ideal graphs.  Where the best model the sweep
# finds breaks a symmetry of the graph, as on community (1,1,1,2) (three
# interchangeable singleton roles, two of which it merges), the partition
# on the permuted graph can only be the same up to that symmetry; its role
# count and residual are the same.
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS),
       sizes=st.lists(st.integers(1, 5), min_size=3, max_size=4),
       zeros=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
@example(kind="community", sizes=[1, 1, 1, 2], zeros=0, seed=0)
def test_extract_roles_is_equivariant_under_node_permutation(kind, sizes, zeros, seed):
    if kind == "bipartite_communities" and len(sizes) % 2:
        sizes = sizes[:-1]
    A, B, truth = generate_structure(kind, sizes)
    M = np.zeros((A.n + zeros, A.n + zeros))
    M[:A.n, :A.n] = A.entries
    truth = Assignment(np.concatenate([truth.sigma, -np.ones(zeros, dtype=int)]))
    assert_equivariant(M, np.random.default_rng(seed).permutation(M.shape[0]),
                       role_automorphisms(M, B, truth))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("block_cycle", "community")),
       sizes=st.lists(st.integers(3, 8), min_size=3, max_size=4),
       p=st.sampled_from((0.05, 0.1, 0.2)),
       seed=st.integers(0, 2**32 - 1))
def test_the_sweep_is_equivariant_under_node_permutation(kind, sizes, p, seed):
    A, _, _ = generate_structure(kind, sizes)
    noisy = perturb(A, PerturbationModel(p_in=p, p_out=p, seed=seed % 1000))
    # the exact model has a role per class of structurally equivalent
    # active nodes, so it is kept only when c <= n // 2 + 1 (counting the
    # class of isolated nodes); one or two flips on a community graph can
    # leave that few classes
    assume(noisy.quotient.c > noisy.n // 2 + 1)
    perm = np.random.default_rng(seed).permutation(A.n)
    result = assert_equivariant(noisy.entries, perm, trunc_tol=1e-3)
    assert result.params["method"] == "sweep"


# from n = 40 on, every noisy draw here has more than 2 (8 + 8) = 32
# classes, so extraction runs on the thin similarity, whose start block is
# grown from the degrees and whose subspace iteration is basis-free
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS),
       sizes=st.lists(st.integers(10, 30), min_size=4, max_size=4),
       p=st.sampled_from((0.05, 0.1, 0.2)),
       seed=st.integers(0, 2**32 - 1))
def test_the_thin_route_is_equivariant_under_node_permutation(kind, sizes, p, seed):
    A, _, _ = generate_structure(kind, sizes)
    noisy = perturb(A, PerturbationModel(p_in=p, p_out=p, seed=seed % 1000))
    assert noisy.quotient.c > 32
    perm = np.random.default_rng(seed).permutation(A.n)
    result = assert_equivariant(noisy.entries, perm, trunc_tol=1e-3)
    assert result.params["method"] == "sweep"


@pytest.mark.parametrize("A", [A for _, A in GRAPHS], ids=IDS)
def test_lifted_quotient_similarity_equals_the_dense_iterates(A):
    beta2 = default_beta2(A)
    Q = A.quotient.lift(np.eye(A.quotient.c))
    for k in (1, 3, 6, None):
        S_hat = _quotient_similarity(A, beta2, k).S
        S = fixed_point(A, beta2).S if k is None else iterate(A, beta2, k).S
        assert np.linalg.norm(Q @ S_hat @ Q.T - S) <= 1e-9 * np.linalg.norm(S)
