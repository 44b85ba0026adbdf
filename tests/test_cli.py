import errno
import functools
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import SIGNED_EXAMPLE, THREE_PERMUTATIONS, canonicalize
from rolekit import (Adjacency, Assignment, NonConvergenceError, PerturbationModel,
                     apply_rank_one_weights, extract_roles, fixed_point,
                     generate_structure, graphcore, iterate, lowrank_iterate, perturb,
                     read_edge_list, read_ground_truth, similarity, spectrum_report,
                     write_edge_list)
from rolekit.cli import main
from rolekit.similarity import resolve_beta2, scaled_fixed_point, scaled_iterate


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


@pytest.mark.parametrize("flag", ["--p-in", "--p-out"])
@pytest.mark.parametrize("value", ["-0.5", "nan", "2"])
def test_generate_rejects_a_flip_probability_outside_the_unit_interval(
        flag, value, tmp_path, capsys):
    out = tmp_path / "x.tsv"
    code, stdout, err = run(capsys, "generate", "--kind", "block_cycle",
                            "--sizes", "5,5", f"{flag}={value}", "--out", str(out))
    assert (code, stdout) == (3, "")
    assert "flip probabilities" in err
    assert not out.exists() and not out.with_suffix(".truth.json").exists()


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


@pytest.mark.parametrize("command", ["extract", "spectrum", "betabound"])
def test_a_graph_path_under_a_regular_file_is_an_input_error(tmp_path, capsys, command):
    graph = tmp_path / "c20.tsv"
    run(capsys, "generate", "--kind", "block_cycle", "--sizes", "5,5,5,5",
        "--out", str(graph))
    code, out, err = run(capsys, command, str(graph / "x.tsv"))
    assert (code, out) == (1, "")
    assert err.startswith("rolekit: input error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("generate", "--kind", "block_cycle", "--sizes", "5,5", "--out", "{dir}/g.tsv"),
    ("extract", "{graph}", "--out", "{dir}/r.json"),
    ("spectrum", "{graph}", "--out", "{dir}/s.csv"),
    ("spectrum", "{graph}", "--svg", "{dir}/s.svg"),
], ids=["generate-out", "extract-out", "spectrum-out", "spectrum-svg"])
@pytest.mark.parametrize("parent", ["under-a-file", "missing"])
def test_an_unwritable_output_path_is_an_output_error(tmp_path, capsys, argv, parent):
    graph = tmp_path / "c20.tsv"
    run(capsys, "generate", "--kind", "block_cycle", "--sizes", "5,5,5,5",
        "--out", str(graph))
    where = graph if parent == "under-a-file" else tmp_path / "missing"
    code, out, err = run(capsys, *(a.format(dir=where, graph=graph) for a in argv))
    assert code == 1
    assert err.startswith("rolekit: output error:") and "Traceback" not in err
    # the CSV of --svg went to stdout before the SVG was written
    assert out.startswith("index,sigma_A,") if argv[-2] == "--svg" else out == ""


@pytest.mark.parametrize("command", ["extract", "spectrum", "betabound"])
def test_a_full_standard_output_is_an_output_error(tmp_path, capsys, monkeypatch, command):
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    graph = tmp_path / "c20.tsv"
    run(capsys, "generate", "--kind", "block_cycle", "--sizes", "5,5,5,5",
        "--out", str(graph))
    monkeypatch.setattr(sys, "stdout", FullDisk())
    assert main([command, str(graph)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("rolekit: output error:") and "Traceback" not in err


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


def test_extract_nonconvergence_exit_code(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "slow.tsv"
    write_edge_list(graph, Adjacency.from_matrix(THREE_PERMUTATIONS))
    # at the default beta^2 = 0.81 / rho, CG needs 14 iterations to reach
    # the default tolerance on this graph, so a cap of 3 cannot be met;
    # beta_bound's Lanczos stops after one step
    monkeypatch.setattr(similarity, "DEFAULT_MAX_K", 3)
    code, out, err = run(capsys, "extract", str(graph), "--fixed-point")
    assert code == 2
    assert out == ""
    assert err == ("rolekit: did not converge: "
                   "similarity solve did not converge within 3 iterations\n")


def test_beta_bound_nonconvergence_passes_through_the_fixed_point(tmp_path, capsys,
                                                                 monkeypatch):
    # beta_bound cannot settle in one step on this graph.  Every
    # fixed-point entry point resolves beta^2 through it (on the quotient
    # graph, which keeps A's classes, or on the binary base of a weighted
    # one), and its error reaches the caller as
    # beta_bound raised it: the state is the float estimate of rho, not a
    # similarity state to lift, and the commands exit 2
    A, _, _ = generate_structure("block_cycle", (20, 10, 10, 20))
    A = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=1))
    assert A.quotient.c > 16
    d = np.linspace(0.5, 2.0, A.n)
    monkeypatch.setattr(similarity, "DEFAULT_MAX_K", 1)

    def raised(call):
        with pytest.raises(NonConvergenceError) as info:
            call()
        assert isinstance(info.value.state, float)
        return str(info.value), info.value.state, info.value.history

    on_A = raised(lambda: similarity.beta_bound(A))
    assert raised(lambda: extract_roles(A, k=None)) == on_A
    assert raised(lambda: spectrum_report(A, k=None)) == on_A
    assert raised(lambda: lowrank_iterate(A, k=None)) == on_A
    assert raised(lambda: scaled_fixed_point(apply_rank_one_weights(A, d), d)) == on_A
    graph = tmp_path / "cycle.tsv"
    write_edge_list(graph, A)
    for argv in (("spectrum", str(graph)), ("extract", str(graph), "--fixed-point")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"rolekit: did not converge: {on_A[0]}\n"


def _near_tie_graph(n, tmp_path, capsys):
    """Two flipped generator graphs whose top two eigenvalues of G nearly
    coincide: 60.12067 and 60.12021 at n = 19 (9 classes), 110.4200 and
    110.4182 at n = 29 (10 classes)."""
    path = tmp_path / f"near_tie_{n}.tsv"
    if n == 19:
        run(capsys, "generate", "--kind", "bipartite_communities", "--sizes", "6,5,5,3",
            "--p-in", "0.01", "--p-out", "0.01", "--seed", "888", "--out", str(path))
    else:
        A, _, _ = generate_structure("bipartite_communities", (3, 8, 11, 7),
                                     perm=np.random.default_rng(162).permutation(29))
        write_edge_list(path, perturb(A, PerturbationModel(0.005, 0.005, 162)))
    return read_edge_list(path), str(path)


@pytest.mark.parametrize("n, c", [(19, 9), (29, 10)])
def test_beta_bound_settles_on_small_quotients_with_near_tied_eigenvalues(n, c, tmp_path,
                                                                          capsys):
    # a power iteration gains only a factor lambda_2 / lambda_1 = 0.99999 a
    # step on these graphs, too little to settle within DEFAULT_MAX_K steps;
    # Lanczos, whose stop bounds its error, settles them in at most 100
    # steps (21 at n = 19), so every command finishes
    from conftest import kron_rho
    A, path = _near_tie_graph(n, tmp_path, capsys)
    assert (A.n, A.quotient.c) == (n, c)
    steps = []
    original = similarity._gamma_into
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "_gamma_into",
                      lambda *args: steps.append(1) or original(*args))
        rho = similarity.beta_bound(A)
    assert rho == pytest.approx(kron_rho(A), rel=1e-13)
    assert len(steps) <= 100
    for argv in (("extract",), ("extract", "--fixed-point"), ("spectrum",), ("betabound",)):
        code, out, err = run(capsys, argv[0], path, *argv[1:])
        assert (code, err) == (0, ""), argv
        assert out
    assert out.startswith(f"rho_hat\t{rho:.9g}\n")


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


@pytest.mark.parametrize("weight", ["1e-200", "1e-160", "1e160"])
def test_weights_past_the_double_range_are_a_configuration_error(tmp_path, capsys, weight):
    # on a 2-cycle of weight 1e-200 rho underflowed to 0 and the default
    # beta2 divided by it; at 1e-160 rho was subnormal and beta2 infinite.
    # Every command now exits 3 on the range before any similarity step
    graph = tmp_path / "pair.tsv"
    graph.write_text(f"0\t1\t{weight}\n1\t0\t{weight}\n")
    for argv in (("extract", str(graph)), ("extract", str(graph), "--fixed-point"),
                 ("spectrum", str(graph)), ("betabound", str(graph))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("rolekit: invalid configuration: edge weights out of range")


@pytest.mark.parametrize("weight", ["1e-150", "1e-120", "1e77", "1e100", "1e150"])
def test_weights_far_from_one_solve_at_the_fixed_point(tmp_path, capsys, weight):
    # inside the range, the solve runs on the graph scaled by a power of
    # two; before, R . R under- or overflowed and it ran to its step cap
    graph = tmp_path / "pair.tsv"
    graph.write_text(f"0\t1\t{weight}\n1\t0\t{weight}\n")
    code, out, _ = run(capsys, "extract", str(graph), "--fixed-point")
    assert code == 0
    assert json.loads(out)["sigma"] in ([0, 0], [0, 1])
    code, out, _ = run(capsys, "spectrum", str(graph))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    # the unit 2-cycle's S is 2 I / (1 - 0.81)
    for row in rows:
        assert float(row[3]) == pytest.approx(float(weight) ** 2 * 2 / 0.19, rel=1e-8)


@pytest.mark.parametrize("command", ["betabound", "extract", "spectrum"])
def test_a_stdout_closed_by_its_reader_exits_1_without_a_traceback(tmp_path, command):
    graph = tmp_path / "cycle.tsv"
    write_edge_list(graph, generate_structure("block_cycle", (20, 10, 10, 20))[0])
    src = str(Path(similarity.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "rolekit.cli", command, str(graph)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()   # the reader is gone before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


def test_betabound_symmetric_two_cycle(tmp_path, capsys):
    graph = tmp_path / "pair.tsv"
    graph.write_text("0\t1\n1\t0\n")
    code, out, _ = run(capsys, "betabound", str(graph))
    assert code == 0
    lines = dict(line.split("\t") for line in out.strip().split("\n"))
    assert float(lines["rho_hat"]) == pytest.approx(2.0, rel=1e-9)
    assert float(lines["beta2_max"]) == pytest.approx(0.5, rel=1e-9)


def test_every_command_finishes_on_the_undirected_300_ring(tmp_path, capsys):
    # all 300 classes have degree 2, so there is no start block, and beta_bound
    # runs Lanczos from 1 1^T / c, an eigenvector of G with eigenvalue
    # 2 d^2 = 8.  G's next eigenvalue lies within 2e-3 of 8 here, so a power
    # iteration stopped on its estimate's relative change would not settle
    graph = tmp_path / "ring.tsv"
    graph.write_text("".join(f"{i}\t{(i + 1) % 300}\n{(i + 1) % 300}\t{i}\n"
                             for i in range(300)))
    code, out, err = run(capsys, "betabound", str(graph))
    assert (code, err) == (0, "")
    assert out.startswith("rho_hat\t8\n")
    for command in ("extract", "spectrum"):
        code, out, err = run(capsys, command, str(graph))
        assert (code, err) == (0, ""), command
        assert out


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

@pytest.mark.parametrize("sizes, seed, relabel", [((17,) * 4, 457, 464),
                                                   ((18,) * 4, 473, 480)])
def test_extract_prints_the_same_for_a_relabelled_graph(sizes, seed, relabel, tmp_path,
                                                        capsys):
    # beta_bound starts from a block that depends on no node order, so on
    # these flipped graphs the printed beta2 keeps its 9th digit under a
    # relabelling, and the roles are the same, told in the original order
    n = sum(sizes)
    A = generate_structure("bipartite_communities", sizes,
                           perm=np.random.default_rng(seed).permutation(n))[0]
    M = perturb(A, PerturbationModel(p_in=0.1, p_out=0.1, seed=seed)).entries
    perm = np.random.default_rng(relabel).permutation(n)
    printed = []
    for name, entries in (("graph.tsv", M), ("relabelled.tsv", M[np.ix_(perm, perm)])):
        write_edge_list(tmp_path / name, Adjacency.from_matrix(entries))
        code, out, _ = run(capsys, "extract", str(tmp_path / name))
        assert code == 0
        printed.append(json.loads(out))
    before, after = printed
    sigma = np.empty(n, dtype=int)
    sigma[perm] = after["sigma"]   # node i of the relabelled graph is node perm[i]
    sigma, order = canonicalize(Assignment(sigma))
    B = np.array(after["B"]).reshape(after["q"], after["q"])[np.ix_(order, order)]
    after.update(sigma=sigma.tolist(), B=B.ravel().tolist(),
                 unassigned=sorted(perm[after["unassigned"]].tolist()))
    assert after == before


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
    """Record every call of beta_bound and of the similarity operator,
    public or through the kernel the solves share with it.  beta_bound's
    Lanczos iteration applies the operator through that kernel too; those
    calls are part of the beta_bound call, and only it is recorded."""
    calls, inside = [], []

    def record(*args, _f, _n, **kwargs):
        if not any(inside):
            calls.append(_n)
        inside.append(_n == "beta_bound")
        try:
            return _f(*args, **kwargs)
        finally:
            inside.pop()

    for name in ("beta_bound", "gamma", "_gamma_into"):
        monkeypatch.setattr(similarity, name,
                            functools.partial(record, _f=getattr(similarity, name), _n=name))
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
    # similarity rejects it before the first step, at every finite depth,
    # k = 1 included, and at the fixed point, on the 6-cycle (rho = 2, no
    # equivalent nodes) and on a block cycle of 3 classes
    A, path = small_graph
    for G in (A, generate_structure("block_cycle", (5, 5, 5))[0]):
        beta2 = 2.0 / similarity.beta_bound(G)
        for call in (lambda: extract_roles(G, beta2=beta2),
                     lambda: extract_roles(G, beta2=beta2, k=1),
                     lambda: extract_roles(G, beta2=beta2, k=None),
                     lambda: spectrum_report(G, beta2=beta2, k=1),
                     lambda: spectrum_report(G, beta2=beta2, k=3),
                     lambda: spectrum_report(G, beta2=beta2),
                     lambda: lowrank_iterate(G, beta2, k=1),
                     lambda: lowrank_iterate(G, beta2, k=3),
                     lambda: lowrank_iterate(G, beta2)):
            with pytest.raises(ValueError, match="admissible bound"):
                call()
    for argv in (("extract",), ("extract", "--fixed-point"),
                 ("spectrum", "--k", "3"), ("spectrum",)):
        assert_config_error(capsys, argv[0], path, "--beta2", "1", *argv[1:])
    assert "gamma" not in solver_calls and "_gamma_into" not in solver_calls


def test_beta2_is_resolved_once_per_call_at_every_depth(small_graph, solver_calls):
    # one beta_bound per call: on A at a finite depth, k = 1 included, and
    # for an exact model at the fixed point too; by the solve on A_hat for
    # any other solve at the fixed point.  The noisy cycle has c = 48, so
    # extraction takes the thin route at a finite depth
    A, _ = small_graph
    ideal = generate_structure("block_cycle", (12, 12, 12, 12))[0]
    noisy = perturb(ideal, PerturbationModel(p_in=0.1, p_out=0.1, seed=2))
    assert noisy.quotient.c == 48
    for G in (A, ideal, noisy):
        for call in (extract_roles, spectrum_report, lowrank_iterate):
            for k in (1, 3, None):
                solver_calls.clear()
                call(G, k=k)
                assert solver_calls.count("beta_bound") == 1, (call.__name__, k)


def test_one_tolerance_for_the_fixed_point_in_every_command(small_graph, capsys,
                                                           monkeypatch):
    # extract --fixed-point and spectrum solve for the same S, to DEFAULT_TOL
    tols = []
    original = similarity._fixed_point

    def recording(A, beta2, tol, max_k):
        tols.append(tol)
        return original(A, beta2, tol, max_k)

    monkeypatch.setattr(similarity, "_fixed_point", recording)
    A, path = small_graph
    extract_roles(A, k=None)
    spectrum_report(A)
    lowrank_iterate(A, 0.1, k=None)
    assert run(capsys, "extract", path, "--fixed-point")[0] == 0
    assert run(capsys, "spectrum", path)[0] == 0
    assert tols == [similarity.DEFAULT_TOL] * 5


@pytest.mark.parametrize("argv", [("extract", "--method", "greedy"),
                                  ("spectrum", "--gap-ratio", "0.5"),
                                  ("extract", "--gap-ratio", "0.5"),
                                  ("extract", "--angle-tol", "1e-6"),
                                  ("extract", "--max-k", "3"),
                                  ("spectrum", "--max-k", "3")])
def test_extraction_rule_and_spectrum_gap_ratio_are_not_flags(argv, small_graph, capsys,
                                                              solver_calls):
    # no flag sets the extraction rule, a gap ratio, an angle tolerance or the
    # similarity solve's step cap: each is one constant in every command
    _, path = small_graph
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (3, "")
    assert "unrecognized arguments" in err
    assert solver_calls == []


def scaled_iterate_at(A, beta2=0.1, k=3):
    """scaled_iterate on A as D A D, with the request as keywords."""
    return scaled_iterate(A, np.linspace(1.0, 2.0, A.n), beta2, k)


def scaled_fixed_point_at(A, **request):
    """scaled_fixed_point on A as D A D."""
    return scaled_fixed_point(A, np.linspace(1.0, 2.0, A.n), **request)


#: the entry points that solve for the fixed point
SOLVES = (extract_roles, spectrum_report, lowrank_iterate, fixed_point, scaled_fixed_point_at)
#: requests no graph can make valid, the error and message each is rejected
#: with, and the entry points it is sent to.  The stopping rule of the solve
#: is no argument, so ``max_k`` and ``tol`` are TypeErrors everywhere
BAD_REQUESTS = [
    ({"k": 0}, ValueError, "depth k",
     (extract_roles, spectrum_report, lowrank_iterate, scaled_iterate_at)),
    ({"max_k": 0}, TypeError, "max_k", SOLVES),
    ({"beta2": float("nan")}, ValueError, "beta2", (*SOLVES, scaled_iterate_at)),
    ({"beta2": -0.1}, ValueError, "beta2", (*SOLVES, scaled_iterate_at)),
    ({"trunc_tol": 0.0}, ValueError, "trunc_tol", (extract_roles, lowrank_iterate)),
    ({"tol": float("nan")}, TypeError, "tol", SOLVES),
]
#: the depths an entry point takes, where it does not take all three
DEPTHS = {fixed_point: [{}], scaled_fixed_point_at: [{}], scaled_iterate_at: [{}, {"k": 1}]}


@pytest.mark.parametrize("bad, error, match, entry_points", BAD_REQUESTS,
                         ids=["k=0", "max_k=0", "beta2=nan", "beta2=-0.1",
                              "trunc_tol=0", "tol=nan"])
def test_a_bad_request_is_rejected_before_the_graph_is_read(bad, error, match,
                                                           entry_points, monkeypatch):
    # no quotient may be built, and no weighted graph split into D and A:
    # each entry point checks the request before it reads the graph, at a
    # finite depth, at k = 1 and at the fixed point, on an unsigned graph and
    # on a checkerboard signed one
    def forbidden(*args):
        raise AssertionError("the graph was read for a bad request")

    monkeypatch.setattr(graphcore, "_equivalence_classes", forbidden)
    monkeypatch.setattr(similarity, "_weighted_parts", forbidden)
    for entry in entry_points:
        depths = [{}] if "k" in bad else DEPTHS.get(entry, [{}, {"k": 1}, {"k": None}])
        for depth in depths:
            for M in (np.roll(np.eye(6), 1, axis=1), SIGNED_EXAMPLE):
                with pytest.raises(error, match=match):
                    entry(Adjacency.from_matrix(M), **depth, **bad)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_k_must_be_positive(value, small_graph, tmp_path, capsys, solver_calls):
    # the flag is checked before the graph is read: exit 3 on a missing file
    A, path = small_graph
    for call in (extract_roles, spectrum_report):
        with pytest.raises(ValueError, match="depth k"):
            call(A, k=int(value))
    for graph in (path, str(tmp_path / "missing.tsv")):
        assert_config_error(capsys, "extract", graph, f"--k={value}")
        assert_config_error(capsys, "spectrum", graph, f"--k={value}")
    assert solver_calls == []


@pytest.mark.parametrize("value", ["0", "-3"])
def test_top_must_be_positive(value, small_graph, tmp_path, capsys, solver_calls):
    # the flag is checked before the graph is read: exit 3 on a missing file
    A, path = small_graph
    with pytest.raises(ValueError, match="top_m"):
        spectrum_report(A, top_m=int(value))
    for graph in (path, str(tmp_path / "missing.tsv")):
        assert_config_error(capsys, "spectrum", graph, f"--top={value}")
    assert solver_calls == []


@pytest.mark.parametrize("value", ["nan", "0", "1", "-1e-3"])
def test_trunc_tol_must_lie_strictly_between_0_and_1(value, small_graph, tmp_path, capsys,
                                                     solver_calls):
    A, path = small_graph
    with pytest.raises(ValueError, match="trunc_tol"):
        extract_roles(A, trunc_tol=float(value))
    for graph in (path, str(tmp_path / "missing.tsv")):
        assert_config_error(capsys, "extract", graph, f"--trunc-tol={value}")
    assert solver_calls == []


@pytest.mark.parametrize("argv, match", [
    (("generate", "--kind", "block_cycle", "--sizes", "5,x"), "could not parse sizes"),
    (("generate", "--kind", "block_cycle", "--sizes", ","), "at least one role size"),
    (("extract", "missing.tsv", "--beta2", "abc"), "--beta2 must be a number"),
    (("spectrum", "missing.tsv", "--beta2", "abc"), "--beta2 must be a number"),
], ids=["sizes=5,x", "sizes=,", "extract-beta2=abc", "spectrum-beta2=abc"])
def test_an_unparsable_flag_value_is_a_configuration_error(argv, match, tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "x.tsv"
    extra = ("--out", str(out)) if argv[0] == "generate" else ()
    code, stdout, err = run(capsys, *argv, *extra)
    assert (code, stdout) == (3, "")
    assert match in err
    assert not out.exists() and not out.with_suffix(".truth.json").exists()
