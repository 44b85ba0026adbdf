import math
import os
import tracemalloc

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
from rolekit import graphcore
from rolekit.graphcore import MAX_NODES, _parse_edges_vectorized


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


def test_checkerboard_signature_agrees_with_the_brute_force_oracle():
    # random signed digraphs on n <= 6 nodes, half of them planted as
    # q |A| q: a signature exists exactly when one of the 2^n sign vectors
    # gives |A| = Q A Q, and a returned one must be such a vector
    rng = np.random.default_rng(11)
    found = 0
    for trial in range(600):
        n = int(rng.integers(1, 7))
        M = rng.choice([-1.0, 0.0, 1.0], size=(n, n), p=[0.3, 0.4, 0.3])
        if trial % 2:
            q = rng.choice([-1.0, 1.0], size=n)
            M = np.outer(q, q) * np.abs(M)
        signs = (np.array([1.0 if bits & (1 << i) else -1.0 for i in range(n)])
                 for bits in range(2**n))
        exists = any(np.array_equal(np.outer(q, q) * M, np.abs(M)) for q in signs)
        Q = checkerboard_signature(Adjacency.from_matrix(M))
        assert (Q is not None) == exists
        if Q is not None:
            found += 1
            assert np.array_equal(Q.conjugate(M), np.abs(M))
    assert 300 <= found < 600   # every planted graph, and some of the others


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


def test_edge_list_conflicting_duplicate_names_both_lines(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("0\t1\n1\t2\n\n0\t1\t-1\n")
    with pytest.raises(EdgeListFormatError) as info:
        read_edge_list(path)
    assert info.value.line_no == 4
    assert "line 1" in str(info.value)
    assert "0 -> 1" in str(info.value)


def test_edge_list_identical_duplicates_are_accepted(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("0\t1\t2.5\n1\t0\t1\n0\t1\t2.5\n")
    A = read_edge_list(path)
    assert A.entries[0, 1] == 2.5
    assert A.entries[1, 0] == 1.0


def test_edge_list_huge_node_id_is_rejected_before_allocating(tmp_path):
    path = tmp_path / "huge.tsv"
    path.write_text("0\t1\n0\t99999999\n")
    tracemalloc.start()
    try:
        with pytest.raises(EdgeListFormatError) as info:
            read_edge_list(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.line_no == 2
    assert str(MAX_NODES) in str(info.value)
    assert peak < 2**20


def test_edge_list_node_limit_applies_to_a_declared_count(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n")
    with pytest.raises(EdgeListFormatError):
        read_edge_list(path, n=MAX_NODES + 1)


@pytest.mark.parametrize("spacer", ["", "  \n"])
def test_edge_list_node_limit_boundary(tmp_path, monkeypatch, spacer):
    # spacer "" keeps the file on the vectorized parse, a whitespace-only
    # line sends it to the per-line parser
    monkeypatch.setattr(graphcore, "MAX_NODES", 8)
    path = tmp_path / "g.tsv"
    path.write_text(f"0\t1\n{spacer}7\t0\n")
    assert read_edge_list(path).n == 8
    path.write_text(f"0\t1\n{spacer}8\t0\n")
    with pytest.raises(EdgeListFormatError) as info:
        read_edge_list(path)
    assert info.value.line_no == (3 if spacer else 2)


def test_edge_list_comment_line_is_rejected_at_its_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n# x\n1\t0\n")
    with pytest.raises(EdgeListFormatError) as info:
        read_edge_list(path)
    assert info.value.line_no == 2


def test_edge_list_repeated_two_column_edges_read_as_unweighted(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n1\t2\n0\t1\n2\t0\n1\t2\n")
    A = read_edge_list(path)
    assert A.kind == "unweighted"
    assert np.array_equal(A.entries, np.roll(np.eye(3), 1, axis=1))


@pytest.mark.parametrize("text, kind", [("0\t1\n1\t0\n", "unweighted"),
                                        ("0\t1\t2.5\n1\t0\t-1\n", "weighted")],
                         ids=["two columns", "three columns"])
def test_vectorized_reader_hands_loadtxt_the_path(tmp_path, monkeypatch, text, kind):
    # from a path numpy's C tokenizer reads the file in blocks; from a file
    # object it pulls one Python string per line
    seen = []
    original = np.loadtxt

    def recording(fname, *args, **kwargs):
        seen.append(fname)
        return original(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", recording)
    path = tmp_path / "g.tsv"
    path.write_text(text)
    assert _parse_edges_vectorized(path) is not None
    assert read_edge_list(path).kind == kind
    assert seen and all(isinstance(f, (str, os.PathLike)) for f in seen)


def test_vectorized_reader_hands_loadtxt_only_a_plain_file(tmp_path, monkeypatch):
    # loadtxt would fetch a URL, decompress by suffix, and open a
    # compressed sibling of a missing file; the per-line parser reads the
    # named file's own bytes, and only such a file goes to loadtxt
    def refuse(fname, *args, **kwargs):
        raise AssertionError(f"loadtxt was given {fname!r}")

    monkeypatch.setattr(np, "loadtxt", refuse)
    for suffix in (".bz2", ".gz", ".xz", ".lzma"):
        plain = tmp_path / f"g.tsv{suffix}"
        plain.write_text("0\t1\n1\t0\n")
        assert np.array_equal(read_edge_list(plain).entries, [[0, 1], [1, 0]])
    for missing in (tmp_path / "g.tsv", "http://example.invalid/g.tsv"):
        with pytest.raises(FileNotFoundError):
            read_edge_list(missing)


# ---------------------------------------------------------------------------
# the vectorized reader against a per-line reference
# ---------------------------------------------------------------------------

def reference_read_edge_list(path) -> Adjacency:
    """One Python parse per line and one write per edge, in file order."""
    edges = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise EdgeListFormatError(
                    "expected 'src<TAB>dst' or 'src<TAB>dst<TAB>weight'", line_no)
            try:
                src, dst = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise EdgeListFormatError("could not parse node ids / weight", line_no)
            if src < 0 or dst < 0:
                raise EdgeListFormatError("node ids must be non-negative", line_no)
            if max(src, dst) >= MAX_NODES:
                raise EdgeListFormatError(
                    f"node id {max(src, dst)} is beyond the limit of {MAX_NODES} nodes",
                    line_no)
            if not math.isfinite(w):
                raise EdgeListFormatError(f"weight {parts[2]!r} is not finite", line_no)
            edges.append((src, dst, w, line_no))
    if not edges:
        raise EdgeListFormatError("no edges found")
    n = 1 + max(max(src, dst) for src, dst, _, _ in edges)
    M = np.zeros((n, n))
    first = {}
    for src, dst, w, line_no in edges:
        w0, line0 = first.setdefault((src, dst), (w, line_no))
        if math.copysign(1.0, w) != math.copysign(1.0, w0) or w != w0:
            raise EdgeListFormatError(
                f"edge {src} -> {dst} has weight {w:g} here but {w0:g} at line {line0}",
                line_no)
        M[src, dst] = w
    return Adjacency.from_matrix(M)


IDS = ["0", "1", "2", "3", "4", "5", "6"]
ODD_IDS = ["+1", "01", "1_0", "-1", "x", " 2", "٣"]
WEIGHTS = ["1", "-1", "0.5", "2e-3", "+1", "3", "1e5", ".25", "-0", "0"]
ODD_WEIGHTS = ["1_0", "nan", "inf", " 3 ", "0x1", "1d5", ""]


def random_edge_list(rng) -> str:
    """Lines of random edges: uniform two- or three-column files and mixed
    ones, with blank lines, CRLF, duplicates and odd fields mixed in."""
    width = rng.choice(["two", "three", "mixed"])
    odd = rng.random() < 0.5          # half the files stay on the plain format
    newline = "\r\n" if rng.random() < 0.25 else "\n"
    lines = []
    for _ in range(int(rng.integers(1, 25))):
        roll = rng.random()
        if odd and roll < 0.04:
            lines.append(rng.choice(["", "  ", "# x", "0", "0\t1\t2\t3", "0\t1\t"]))
            continue
        if lines and roll < 0.2:
            lines.append(lines[int(rng.integers(len(lines)))])   # a repeat
            continue
        ids = [rng.choice(ODD_IDS) if odd and rng.random() < 0.03 else rng.choice(IDS)
               for _ in range(2)]
        weighted = width == "three" or (width == "mixed" and rng.random() < 0.5)
        if weighted:
            pool = ODD_WEIGHTS if odd and rng.random() < 0.05 else WEIGHTS
            ids.append(rng.choice(pool))
        lines.append("\t".join(ids))
    text = newline.join(lines)
    return text + newline if rng.random() < 0.8 else text


def test_vectorized_reader_agrees_with_the_per_line_reference(tmp_path):
    rng = np.random.default_rng(77)
    path = tmp_path / "g.tsv"
    outcomes = {"fast": 0, "per-line": 0, "error": 0}
    for _ in range(600):
        with open(path, "w", newline="") as fh:
            fh.write(random_edge_list(rng))
        try:
            want = reference_read_edge_list(path)
        except EdgeListFormatError as exc:
            with pytest.raises(EdgeListFormatError) as info:
                read_edge_list(path)
            assert info.value.line_no == exc.line_no
            assert str(info.value) == str(exc)
            outcomes["error"] += 1
            continue
        got = read_edge_list(path)
        assert got.kind == want.kind
        assert got.entries.shape == want.entries.shape
        assert np.array_equal(got.entries.view(np.int64), want.entries.view(np.int64))
        outcomes["fast" if _parse_edges_vectorized(path) is not None else "per-line"] += 1
    # every path is exercised
    assert min(outcomes.values()) >= 50, outcomes


def test_ground_truth_round_trip(tmp_path):
    _, B, asg = generate_structure("signed_example")
    path = tmp_path / "truth.json"
    write_ground_truth(path, B, asg)
    B2, asg2 = read_ground_truth(path)
    assert np.array_equal(B2.entries, B.entries)
    assert np.array_equal(asg2.sigma, asg.sigma)
    assert np.array_equal(asg2.signs, asg.signs)
