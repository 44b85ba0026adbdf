import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import SIGNED_EXAMPLE, SLOW_CG
from rolekit import (Adjacency, extract_roles, fixed_point, generate_structure,
                     iterate, lowrank_iterate, read_edge_list, read_ground_truth,
                     similarity, spectrum_report, write_edge_list)
from rolekit.cli import main
from rolekit.similarity import resolve_beta2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_block_cycle_edge_count(tmp_path, capsys):
    out = tmp_path / "cycle.tsv"
    code, _, _ = run(capsys, "generate", "--kind", "block_cycle",
                     "--sizes", "20,10,10,20", "--out", str(out))
    assert code == 0
    A = read_edge_list(out)
    assert A.n == 60
    # edge count = sum over blocks of B_IJ * n_I * n_J
    assert int(A.entries.sum()) == 20 * 10 + 10 * 10 + 10 * 20 + 20 * 20
    B, truth = read_ground_truth(out.with_suffix(".truth.json"))
    assert B.q == 4
    assert truth.n == 60


def test_generate_community_edge_count_includes_self_loops(tmp_path, capsys):
    out = tmp_path / "comm.tsv"
    code, _, _ = run(capsys, "generate", "--kind", "community",
                     "--sizes", "5,5,5", "--out", str(out))
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 75


def test_generate_signed_example(tmp_path, capsys):
    out = tmp_path / "signed.tsv"
    code, _, _ = run(capsys, "generate", "--kind", "signed_example",
                     "--out", str(out))
    assert code == 0
    A = read_edge_list(out)
    assert np.array_equal(A.entries, SIGNED_EXAMPLE)


def test_generate_perturbed_records_seed(tmp_path, capsys):
    out = tmp_path / "noisy.tsv"
    code, _, _ = run(capsys, "generate", "--kind", "block_cycle",
                     "--sizes", "10,10,10,10", "--p-in", "0.1",
                     "--p-out", "0.1", "--seed", "3", "--out", str(out))
    assert code == 0
    doc = json.loads(out.with_suffix(".truth.json").read_text())
    assert doc["perturbation"] == {"p_in": 0.1, "p_out": 0.1, "seed": 3}


def test_generate_rejects_bad_config(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--kind", "community",
                       "--sizes", "0,5", "--out", str(tmp_path / "x.tsv"))
    assert code == 3
    code, _, _ = run(capsys, "generate", "--kind", "not_a_kind",
                     "--sizes", "3,3", "--out", str(tmp_path / "x.tsv"))
    assert code == 3
    code, _, _ = run(capsys, "generate", "--kind", "community",
                     "--out", str(tmp_path / "x.tsv"))
    assert code == 3


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def test_extract_ideal_community(tmp_path, capsys):
    graph = tmp_path / "comm.tsv"
    run(capsys, "generate", "--kind", "community", "--sizes", "5,5,5",
        "--out", str(graph))
    code, out, _ = run(capsys, "extract", str(graph))
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 3
    assert doc["residual"] == 0
    assert doc["unassigned"] == []


def test_extract_missing_and_empty_files(tmp_path, capsys):
    code, _, err = run(capsys, "extract", str(tmp_path / "missing.tsv"))
    assert code == 1
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    code, _, err = run(capsys, "extract", str(empty))
    assert code == 1


def test_extract_malformed_line_reports_number(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\t1\noops\n")
    code, _, err = run(capsys, "extract", str(bad))
    assert code == 1
    assert "line 2" in err


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_extract_non_finite_weight_is_input_error(tmp_path, capsys, weight):
    # a non-finite weight used to reach beta_bound and exit 2 after 10 000
    # power steps; it is an input error at its line
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"0\t1\n1\t2\t{weight}\n2\t0\n")
    code, out, err = run(capsys, "extract", str(bad))
    assert code == 1
    assert out == ""
    assert "line 2" in err
    assert "finite" in err


def test_extract_conflicting_duplicate_edge_is_input_error(tmp_path, capsys):
    bad = tmp_path / "dup.tsv"
    bad.write_text("0\t1\n1\t2\n2\t0\n0\t1\t-1\n")
    code, out, err = run(capsys, "extract", str(bad))
    assert code == 1
    assert out == ""
    assert "line 4" in err and "line 1" in err


def test_extract_node_id_beyond_the_limit_is_input_error(tmp_path, capsys):
    bad = tmp_path / "huge.tsv"
    bad.write_text("0\t99999999\n")
    code, out, err = run(capsys, "extract", str(bad))
    assert code == 1
    assert out == ""
    assert "line 1" in err and "16384" in err


def test_extract_perturbed_block_cycle_defaults(tmp_path, capsys):
    graph = tmp_path / "noisy.tsv"
    run(capsys, "generate", "--kind", "block_cycle", "--sizes", "15,15,15,15",
        "--p-in", "0.08", "--p-out", "0.08", "--seed", "1",
        "--out", str(graph))
    code, out, _ = run(capsys, "extract", str(graph))
    assert code == 0
    assert json.loads(out)["q"] == 4


def test_extract_nonconvergence_exit_code(tmp_path, capsys):
    graph = tmp_path / "slow.tsv"
    write_edge_list(graph, Adjacency.from_matrix(SLOW_CG))
    # at the default beta^2 = 0.81 / rho, CG needs 13 iterations to reach
    # the default tolerance on this graph, so a cap of 3 cannot be met
    code, out, err = run(capsys, "extract", str(graph), "--fixed-point",
                         "--max-k", "3")
    assert code == 2
    assert out == ""
    assert "converge" in err


def test_extract_beta_above_bound_is_config_error(tmp_path, capsys):
    graph = tmp_path / "comm.tsv"
    run(capsys, "generate", "--kind", "community", "--sizes", "4,4",
        "--out", str(graph))
    # rho = 2 * 4^2 = 32 for the two disjoint 4-cliques, bound is 1/32
    code, _, _ = run(capsys, "extract", str(graph), "--beta2", "0.5")
    assert code == 3


def test_extract_writes_output_file(tmp_path, capsys):
    graph = tmp_path / "comm.tsv"
    run(capsys, "generate", "--kind", "community", "--sizes", "3,3",
        "--out", str(graph))
    dest = tmp_path / "result.json"
    code, out, _ = run(capsys, "extract", str(graph), "--out", str(dest))
    assert code == 0
    assert out == ""
    doc = json.loads(dest.read_text())
    assert doc["q"] == 2
    assert set(doc) == {"q", "sigma", "B", "residual", "unassigned", "params"}


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_pinned_small_block_cycle(tmp_path, capsys):
    graph = tmp_path / "cycle.tsv"
    run(capsys, "generate", "--kind", "block_cycle", "--sizes", "20,10,10,20",
        "--out", str(graph))
    code, out, _ = run(capsys, "spectrum", str(graph),
                       "--beta2", "1.17953e-3", "--top", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    row1 = lines[1].split(",")
    assert float(row1[1]) == pytest.approx(20.0, abs=1e-6)
    assert float(row1[2]) == pytest.approx(38.2437, rel=1e-3)
    assert float(row1[3]) == pytest.approx(1462.58, rel=1e-3)


def test_spectrum_pinned_large_block_cycle(tmp_path, capsys):
    graph = tmp_path / "cycle.tsv"
    run(capsys, "generate", "--kind", "block_cycle", "--sizes",
        "200,100,100,200", "--out", str(graph))
    code, out, _ = run(capsys, "spectrum", str(graph), "--beta2", "1.17953e-5")
    assert code == 0
    row1 = out.strip().split("\n")[1].split(",")
    assert float(row1[1]) == pytest.approx(200.0, abs=1e-6)
    assert float(row1[2]) == pytest.approx(382.437, rel=1e-3)
    assert float(row1[3]) == pytest.approx(146258.24, rel=1e-3)


def test_spectrum_top_flag_limits_rows(tmp_path, capsys):
    graph = tmp_path / "comm.tsv"
    run(capsys, "generate", "--kind", "community", "--sizes", "4,4,4",
        "--out", str(graph))
    code, out, _ = run(capsys, "spectrum", str(graph), "--top", "5", "--k", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 6


def test_spectrum_csv_matches_in_process_report(tmp_path, capsys):
    from rolekit import spectrum_report
    graph = tmp_path / "cycle.tsv"
    run(capsys, "generate", "--kind", "block_cycle", "--sizes", "5,5,5",
        "--out", str(graph))
    dest = tmp_path / "spectrum.csv"
    code, _, _ = run(capsys, "spectrum", str(graph), "--k", "3",
                     "--beta2", "0.001", "--out", str(dest))
    assert code == 0
    report = spectrum_report(read_edge_list(graph), beta2=0.001, k=3)
    assert dest.read_text() == report.to_csv_text()


def test_spectrum_svg_is_valid_xml(tmp_path, capsys):
    graph = tmp_path / "cycle.tsv"
    run(capsys, "generate", "--kind", "block_cycle", "--sizes", "5,5,5,5",
        "--out", str(graph))
    svg = tmp_path / "spectrum.svg"
    code, _, _ = run(capsys, "spectrum", str(graph), "--k", "4",
                     "--svg", str(svg), "--out", str(tmp_path / "s.csv"))
    assert code == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 3 * 10


# ---------------------------------------------------------------------------
# betabound
# ---------------------------------------------------------------------------

def test_betabound_single_edge(tmp_path, capsys):
    graph = tmp_path / "edge.tsv"
    graph.write_text("0\t1\n")
    code, out, _ = run(capsys, "betabound", str(graph))
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().split("\n"))
    assert float(lines["rho_hat"]) == pytest.approx(1.0, abs=1e-9)
    assert float(lines["beta2_max"]) == pytest.approx(1.0, abs=1e-9)


def test_betabound_symmetric_two_cycle(tmp_path, capsys):
    graph = tmp_path / "pair.tsv"
    graph.write_text("0\t1\n1\t0\n")
    code, out, _ = run(capsys, "betabound", str(graph))
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().split("\n"))
    assert float(lines["rho_hat"]) == pytest.approx(2.0, rel=1e-9)
    assert float(lines["beta2_max"]) == pytest.approx(0.5, rel=1e-9)


def test_betabound_matches_kronecker_oracle(tmp_path, capsys):
    from conftest import kron_rho, random_digraph
    rng = np.random.default_rng(51)
    for trial in range(3):
        A = random_digraph(rng, n_max=10, n_min=3)
        graph = tmp_path / f"g{trial}.tsv"
        from rolekit import write_edge_list
        write_edge_list(graph, A)
        code, out, _ = run(capsys, "betabound", str(graph))
        assert code == 0
        lines = dict(line.split("\t") for line in out.strip().split("\n"))
        assert float(lines["rho_hat"]) == pytest.approx(kron_rho(A), rel=1e-6)


# ---------------------------------------------------------------------------
# determinism and round trips
# ---------------------------------------------------------------------------

def test_byte_identical_outputs_for_identical_config(tmp_path, capsys):
    args = ["generate", "--kind", "block_cycle", "--sizes", "10,5,5,10",
            "--p-in", "0.05", "--p-out", "0.05", "--seed", "11"]
    out1 = tmp_path / "a.tsv"
    out2 = tmp_path / "b.tsv"
    run(capsys, *args, "--out", str(out1))
    run(capsys, *args, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert (out1.with_suffix(".truth.json").read_bytes()
            == out2.with_suffix(".truth.json").read_bytes())

    _, extract1, _ = run(capsys, "extract", str(out1), "--trunc-tol", "1e-3")
    _, extract2, _ = run(capsys, "extract", str(out2), "--trunc-tol", "1e-3")
    assert extract1 == extract2

    csv1 = tmp_path / "s1.csv"
    csv2 = tmp_path / "s2.csv"
    run(capsys, "spectrum", str(out1), "--k", "4", "--out", str(csv1))
    run(capsys, "spectrum", str(out2), "--k", "4", "--out", str(csv2))
    assert csv1.read_bytes() == csv2.read_bytes()


@pytest.mark.parametrize("kind,sizes", [
    ("community", "4,5,6"),
    ("overlapping", "4,4,4"),
    ("bipartite_communities", "3,3,4,4"),
    ("block_cycle", "5,4,6"),
    ("signed_example", None),
])
def test_generate_then_extract_round_trip(tmp_path, capsys, kind, sizes):
    graph = tmp_path / "g.tsv"
    argv = ["generate", "--kind", kind, "--out", str(graph)]
    if sizes is not None:
        argv[3:3] = ["--sizes", sizes]
    assert run(capsys, *argv)[0] == 0
    code, out, _ = run(capsys, "extract", str(graph))
    assert code == 0
    doc = json.loads(out)
    B, truth = read_ground_truth(graph.with_suffix(".truth.json"))
    assert doc["residual"] == 0
    assert doc["q"] == B.q
    # partitions agree up to relabeling: same sets of role members
    got = {}
    for node, role in enumerate(doc["sigma"]):
        got.setdefault(role, set()).add(node)
    want = {}
    for node, role in enumerate(truth.sigma):
        want.setdefault(int(role), set()).add(node)
    assert sorted(map(sorted, got.values())) == sorted(map(sorted, want.values()))


# ---------------------------------------------------------------------------
# settings are checked before any solver runs
# ---------------------------------------------------------------------------

@pytest.fixture
def solver_calls(monkeypatch):
    """Record every call of beta_bound and of the similarity operator."""
    calls = []
    for name in ("beta_bound", "gamma"):
        original = getattr(similarity, name)
        monkeypatch.setattr(similarity, name,
                            lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    return calls


@pytest.fixture
def small_graph(tmp_path):
    path = tmp_path / "cycle.tsv"
    A = Adjacency.from_matrix(np.roll(np.eye(6), 1, axis=1))
    write_edge_list(path, A)
    return A, str(path)


def assert_config_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "invalid configuration" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.1"])
def test_beta2_must_be_finite_and_non_negative(value, small_graph, capsys, solver_calls):
    A, path = small_graph
    beta2 = float(value)
    for call in (lambda: resolve_beta2(A, beta2), lambda: iterate(A, beta2, 3),
                 lambda: lowrank_iterate(A, beta2, k=3), lambda: lowrank_iterate(A, beta2),
                 lambda: fixed_point(A, beta2), lambda: extract_roles(A, beta2=beta2),
                 lambda: spectrum_report(A, beta2=beta2),
                 lambda: spectrum_report(A, beta2=beta2, k=3)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            call()
    assert_config_error(capsys, "extract", path, f"--beta2={value}")
    assert_config_error(capsys, "extract", path, f"--beta2={value}", "--fixed-point")
    assert_config_error(capsys, "spectrum", path, f"--beta2={value}")
    assert_config_error(capsys, "spectrum", path, f"--beta2={value}", "--k", "3")
    assert solver_calls == []


def test_one_admissibility_rule_for_beta2_at_every_depth(small_graph, capsys, solver_calls):
    # beta2 = 2 / rho is past the bound 1 / rho: every command that uses the
    # similarity rejects it before the first step, at a finite depth and at
    # the fixed point, on the 6-cycle (rho = 2, no equivalent nodes) and on
    # a block cycle of 3 classes
    A, path = small_graph
    for G in (A, generate_structure("block_cycle", (5, 5, 5))[0]):
        beta2 = 2.0 / similarity.beta_bound(G)
        for call in (lambda: extract_roles(G, beta2=beta2),
                     lambda: extract_roles(G, beta2=beta2, k=None),
                     lambda: spectrum_report(G, beta2=beta2, k=3),
                     lambda: spectrum_report(G, beta2=beta2),
                     lambda: lowrank_iterate(G, beta2, k=3),
                     lambda: lowrank_iterate(G, beta2)):
            with pytest.raises(ValueError, match="admissible bound"):
                call()
    for argv in (("extract",), ("extract", "--fixed-point"),
                 ("spectrum", "--k", "3"), ("spectrum",)):
        assert_config_error(capsys, argv[0], path, "--beta2", "1", *argv[1:])
    assert "gamma" not in solver_calls


@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_angle_tol_must_be_non_negative(value, small_graph, capsys, solver_calls):
    A, path = small_graph
    with pytest.raises(ValueError, match="angle_tol"):
        extract_roles(A, angle_tol=float(value))
    assert_config_error(capsys, "extract", path, f"--angle-tol={value}")
    assert solver_calls == []


@pytest.mark.parametrize("value", ["nan", "0", "-0.5", "1.5", "inf"])
def test_gap_ratio_must_lie_in_the_unit_interval(value, small_graph, capsys, solver_calls):
    A, path = small_graph
    for call in (extract_roles, spectrum_report):
        with pytest.raises(ValueError, match="gap_ratio"):
            call(A, gap_ratio=float(value))
    assert_config_error(capsys, "extract", path, f"--gap-ratio={value}")
    assert_config_error(capsys, "spectrum", path, f"--gap-ratio={value}")
    assert solver_calls == []


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_k_must_be_positive(value, small_graph, capsys, solver_calls):
    A, path = small_graph
    for call in (extract_roles, spectrum_report):
        with pytest.raises(ValueError, match="max_k"):
            call(A, max_k=int(value))
    assert_config_error(capsys, "extract", path, f"--max-k={value}")
    assert_config_error(capsys, "extract", path, f"--max-k={value}", "--fixed-point")
    assert_config_error(capsys, "spectrum", path, f"--max-k={value}")
    assert solver_calls == []


@pytest.mark.parametrize("value", ["nan", "0", "1", "-1e-3"])
def test_trunc_tol_must_lie_strictly_between_0_and_1(value, small_graph, capsys,
                                                     solver_calls):
    A, path = small_graph
    with pytest.raises(ValueError, match="trunc_tol"):
        extract_roles(A, trunc_tol=float(value))
    assert_config_error(capsys, "extract", path, f"--trunc-tol={value}")
    assert solver_calls == []
