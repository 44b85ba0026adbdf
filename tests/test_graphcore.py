import numpy as np
import pytest

from conftest import BIPARTITE_CLIQUE, SIGNED_EXAMPLE, SIGNED_EXAMPLE_Q
from rolekit import (
    Adjacency,
    Assignment,
    EdgeListFormatError,
    RoleMatrix,
    apply_rank_one_weights,
    build_ideal,
    checkerboard_signature,
    generate_structure,
    ideal_adjacency,
    is_minimal_role_matrix,
    minimalize,
    read_edge_list,
    read_ground_truth,
    write_edge_list,
    write_ground_truth,
)


# ---------------------------------------------------------------------------
# build_ideal
# ---------------------------------------------------------------------------

def test_build_ideal_bipartite_clique():
    B = RoleMatrix([[0, 1], [1, 0]])
    A = build_ideal(B, (2, 3))
    assert np.array_equal(A.entries, BIPARTITE_CLIQUE)
    assert A.kind == "unweighted"


def test_build_ideal_single_clique_role():
    A = build_ideal(RoleMatrix([[1]]), (3,))
    assert np.array_equal(A.entries, np.ones((3, 3)))


def test_build_ideal_signed_example():
    B = RoleMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    A = build_ideal(B, (2, 1, 3), signs=(1, -1, -1, 1, -1, -1))
    assert np.array_equal(A.entries, SIGNED_EXAMPLE)
    assert A.kind == "signed"


def test_build_ideal_permutation_scatters_blocks():
    B = RoleMatrix([[0, 1], [1, 0]])
    rng = np.random.default_rng(7)
    perm = rng.permutation(5)
    A = build_ideal(B, (2, 3), perm=perm)
    # node perm[t] holds block position t, so conjugating back recovers the
    # block-ordered matrix
    assert np.array_equal(A.entries[np.ix_(perm, perm)], BIPARTITE_CLIQUE)


def test_build_ideal_rejects_bad_inputs():
    B = RoleMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        build_ideal(B, (0, 3))
    with pytest.raises(ValueError):
        build_ideal(B, (2, 3), perm=[0, 1, 2, 3, 3])
    with pytest.raises(ValueError):
        build_ideal(B, (2, 3), signs=(1, -1))


# ---------------------------------------------------------------------------
# minimality and reduction
# ---------------------------------------------------------------------------

def test_identity_role_matrix_is_minimal():
    assert is_minimal_role_matrix(RoleMatrix(np.eye(3)))


def test_structurally_equivalent_roles_not_minimal():
    B = RoleMatrix([[1, 1, 1], [1, 0, 0], [1, 0, 0]])
    assert not is_minimal_role_matrix(B)


def test_zero_role_not_minimal():
    B = RoleMatrix([[0, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert not is_minimal_role_matrix(B)


def test_minimalize_drops_zero_role():
    B = RoleMatrix([[0, 1, 0], [1, 1, 0], [0, 0, 0]])
    asg = Assignment.from_blocks((2, 2, 2))
    A_before = ideal_adjacency(B, asg)
    B_hat, asg_hat = minimalize(B, asg)
    assert np.array_equal(B_hat.entries, [[0, 1], [1, 1]])
    assert np.array_equal(asg_hat.sizes(), [2, 2])
    assert asg_hat.unassigned() == [4, 5]
    assert np.array_equal(ideal_adjacency(B_hat, asg_hat).entries, A_before.entries)


def test_minimalize_merges_equivalent_roles():
    B = RoleMatrix([[1, 1, 1], [1, 0, 0], [1, 0, 0]])
    asg = Assignment.from_blocks((1, 2, 3))
    A_before = ideal_adjacency(B, asg)
    B_hat, asg_hat = minimalize(B, asg)
    assert np.array_equal(B_hat.entries, [[1, 1], [1, 0]])
    assert np.array_equal(asg_hat.sizes(), [1, 5])
    assert np.array_equal(ideal_adjacency(B_hat, asg_hat).entries, A_before.entries)


def test_minimalize_fixed_point_on_minimal_input():
    B = RoleMatrix([[0, 1], [1, 1]])
    asg = Assignment.from_blocks((3, 4))
    B_hat, asg_hat = minimalize(B, asg)
    assert np.array_equal(B_hat.entries, B.entries)
    assert np.array_equal(asg_hat.sigma, asg.sigma)


def test_minimalize_idempotent_and_product_preserving():
    rng = np.random.default_rng(11)
    for _ in range(25):
        q = int(rng.integers(2, 5))
        B0 = (rng.random((q, q)) < 0.5).astype(float)
        # duplicate one role and append a disconnected one
        dup = int(rng.integers(0, q))
        B = np.zeros((q + 2, q + 2))
        B[:q, :q] = B0
        B[q, :q] = B0[dup]
        B[:q, q] = B0[:, dup]
        B[q, q] = B0[dup, dup]
        B = RoleMatrix(B)
        sizes = rng.integers(1, 4, size=q + 2)
        asg = Assignment.from_blocks(sizes, perm=rng.permutation(int(sizes.sum())))
        A_before = ideal_adjacency(B, asg)
        B1, asg1 = minimalize(B, asg)
        assert np.array_equal(ideal_adjacency(B1, asg1).entries, A_before.entries)
        B2, asg2 = minimalize(B1, asg1)
        assert np.array_equal(B2.entries, B1.entries)
        assert np.array_equal(asg2.sigma, asg1.sigma)
        assert is_minimal_role_matrix(B1)


# ---------------------------------------------------------------------------
# checkerboard signatures
# ---------------------------------------------------------------------------

def test_checkerboard_signature_of_signed_example():
    A = Adjacency.from_matrix(SIGNED_EXAMPLE)
    Q = checkerboard_signature(A)
    assert Q is not None
    assert np.array_equal(Q.diag, SIGNED_EXAMPLE_Q)
    assert np.array_equal(Q.conjugate(A.entries), np.abs(SIGNED_EXAMPLE))


def test_checkerboard_signature_all_positive_is_identity():
    A = Adjacency.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    Q = checkerboard_signature(A)
    assert np.array_equal(Q.diag, np.ones(3))


def test_inconsistent_cycle_has_no_signature():
    # directed 3-cycle with exactly one negative edge
    A = Adjacency.from_matrix([[0, -1, 0], [0, 0, 1], [1, 0, 0]])
    assert checkerboard_signature(A) is None
    # oracle: no sign vector among all 2^3 works
    M = A.entries
    for bits in range(8):
        q = np.array([1 if bits & (1 << i) else -1 for i in range(3)], dtype=float)
        assert not np.array_equal(np.outer(q, q) * M, np.abs(M))


# ---------------------------------------------------------------------------
# rank-one weights
# ---------------------------------------------------------------------------

def test_unit_weights_leave_graph_unchanged():
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    W = apply_rank_one_weights(A, np.ones(2))
    assert np.array_equal(W.entries, A.entries)
    assert W.kind == "unweighted"


def test_rank_one_weights_direct_product():
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    W = apply_rank_one_weights(A, (2, 3))
    assert np.array_equal(W.entries, [[0, 6], [6, 0]])
    assert W.kind == "weighted"


def test_rank_one_weights_preserve_rank():
    A, _, _ = generate_structure("block_cycle", (3, 2, 4, 3))
    rng = np.random.default_rng(3)
    d = rng.uniform(0.5, 2.0, size=A.n)
    W = apply_rank_one_weights(A, d)
    assert np.linalg.matrix_rank(W.entries) == np.linalg.matrix_rank(A.entries)


def test_rank_one_weights_reject_nonpositive():
    A = Adjacency.from_matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        apply_rank_one_weights(A, (1.0, 0.0))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_community_role_matrix_is_identity():
    _, B, _ = generate_structure("community", (4, 5, 6))
    assert np.array_equal(B.entries, np.eye(3))


def test_overlapping_role_matrix():
    _, B, _ = generate_structure("overlapping", (4, 4, 4))
    assert np.array_equal(B.entries, [[1, 0, 1], [0, 1, 1], [1, 1, 1]])


def test_bipartite_communities_role_matrix():
    _, B, _ = generate_structure("bipartite_communities", (2, 2, 2, 3, 3, 3))
    want = np.zeros((6, 6))
    want[:3, 3:] = np.eye(3)
    want[3:, :3] = np.eye(3)
    assert np.array_equal(B.entries, want)


def test_block_cycle_role_matrix():
    _, B, _ = generate_structure("block_cycle", (5, 5, 5, 5))
    want = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    assert np.array_equal(B.entries, want)


def test_signed_example_matches_reference():
    A, B, asg = generate_structure("signed_example")
    assert np.array_equal(A.entries, SIGNED_EXAMPLE)
    assert np.array_equal(B.entries, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert asg.signs is not None


@pytest.mark.parametrize("kind,sizes", [
    ("community", (3, 4, 5)),
    ("overlapping", (3, 3, 4)),
    ("bipartite_communities", (2, 3, 4, 2)),
    ("block_cycle", (4, 3, 5)),
    ("signed_example", None),
])
def test_generators_reconstruct_and_are_minimal(kind, sizes):
    rng = np.random.default_rng(hash(kind) % 2**32)
    A, B, asg = generate_structure(kind, sizes)
    assert np.array_equal(ideal_adjacency(B, asg).entries, A.entries)
    assert is_minimal_role_matrix(B)
    assert A.disconnected_nodes() == []
    # permuted variant still reconstructs
    perm = rng.permutation(A.n)
    A2, B2, asg2 = generate_structure(kind, sizes, perm=perm)
    assert np.array_equal(ideal_adjacency(B2, asg2).entries, A2.entries)


def test_signed_example_unsigned_factorization():
    # with the signature absorbed, |A| = Z~ B Z~^T entrywise
    A, B, asg = generate_structure("signed_example")
    Q = checkerboard_signature(A)
    unsigned = Assignment(asg.sigma)  # signs stripped: Z~ = Q Z
    assert np.array_equal(ideal_adjacency(B, unsigned).entries, np.abs(A.entries))


def test_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_structure("community", (3, 0))
    with pytest.raises(ValueError):
        generate_structure("overlapping", (5, 5))
    with pytest.raises(ValueError):
        generate_structure("bipartite_communities", (2, 2, 2))
    with pytest.raises(ValueError):
        generate_structure("no_such_kind", (2, 2))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    for maker in (
        lambda: (rng.random((6, 6)) < 0.4).astype(float),
        lambda: SIGNED_EXAMPLE,
        lambda: (rng.random((5, 5)) < 0.5) * rng.uniform(0.5, 3.0, (5, 5)),
    ):
        M = np.asarray(maker(), dtype=float)
        if not M.any():
            M[0, 1] = 1.0
        if not (M[-1].any() or M[:, -1].any()):
            M[-1, 0] = 1.0  # keep the last node visible to the reader
        A = Adjacency.from_matrix(M)
        path = tmp_path / "g.tsv"
        write_edge_list(path, A)
        back = read_edge_list(path)
        assert back.kind == A.kind
        # weights are printed with 9 significant digits
        assert np.allclose(back.entries, A.entries, rtol=1e-8, atol=0)


def test_edge_list_weight_defaults_to_one(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n1\t0\t-1\n")
    A = read_edge_list(path)
    assert A.entries[0, 1] == 1.0
    assert A.entries[1, 0] == -1.0
    assert A.kind == "signed"


def test_edge_list_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t1\nnot an edge\n")
    with pytest.raises(EdgeListFormatError) as info:
        read_edge_list(path)
    assert info.value.line_no == 2


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "NaN", "-Infinity"])
def test_edge_list_non_finite_weight_reports_number(tmp_path, weight):
    path = tmp_path / "bad.tsv"
    path.write_text(f"0\t1\n\n1\t0\t{weight}\n")
    with pytest.raises(EdgeListFormatError) as info:
        read_edge_list(path)
    assert info.value.line_no == 3
    assert "finite" in str(info.value)


def test_edge_list_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(EdgeListFormatError):
        read_edge_list(path)


def test_ground_truth_round_trip(tmp_path):
    _, B, asg = generate_structure("signed_example")
    path = tmp_path / "truth.json"
    write_ground_truth(path, B, asg)
    B2, asg2 = read_ground_truth(path)
    assert np.array_equal(B2.entries, B.entries)
    assert np.array_equal(asg2.sigma, asg.sigma)
    assert np.array_equal(asg2.signs, asg.signs)
