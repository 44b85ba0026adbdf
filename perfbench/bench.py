"""Closed-loop runs of the rolekit CLI, their metrics, and the grid and
record modes.  Started through ``run.py``, which caps BLAS threads and puts
the checkout's ``src`` on the import path first.

A workload run is one client in a closed loop: each operation is one
in-process ``rolekit.cli.main([...])`` call on an edge-list file, with its
standard output captured, and the next starts when it returns.  Operations
are timed with tracing off; with ``--trace 1`` every second operation runs
under :class:`tracing.Tracer` instead, and the run reports per-layer
figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rolekit
import tracing
import workloads as wl
from rolekit import cli
from run import BLAS_THREAD_VARS, ROOT

WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
TOP = 10
SETUP_REPEATS = 11


@dataclass(frozen=True)
class Workload:
    kind: str
    n: int
    items: int          # pool items one run cycles through
    argv: tuple         # CLI arguments; the graph path goes after argv[0]

    @property
    def command(self) -> str:
        return " ".join(self.argv)

    def cli_args(self, path: Path) -> list[str]:
        return [self.argv[0], str(path), *self.argv[1:]]


# ideal_extract: read_edge_list and beta_bound dominate on the 1M-edge file,
#   and lowrank keeps rank 4 (its time is the SVD of A).
# noisy_extract: lowrank_iterate at full rank r = n dominates, then the
#   discarded greedy pass and the k-means sweep.
# spectrum_fixed_point: the dense fixed point dominates; lowrank and extract
#   never run, so a change to them predicts no change here.
WORKLOADS = {
    "ideal_extract": Workload("ideal", 2000, 2, ("extract",)),
    "noisy_extract": Workload("noisy", 500, 3, ("extract", "--trunc-tol", "1e-3")),
    "spectrum_fixed_point": Workload("noisy", 500, 3, ("spectrum", "--top", str(TOP))),
}

END_TO_END_UNITS = {"op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}

PER_LAYER_UNITS = {
    "graphcore.read_edge_list.s": "s",
    "similarity.beta_bound.s": "s",
    "similarity.beta_bound.calls": "count",
    "similarity.fixed_point.s": "s",
    "similarity.fixed_point.steps": "count",
    "similarity.fixed_point.applications": "count",
    "similarity.fixed_point.gflop_computed": "GFLOP",
    "lowrank.lowrank_iterate.s": "s",
    "lowrank.kept_rank": "count",
    "lowrank.steps": "count",
    "extract.cluster_rows.s": "s",
    "extract.greedy_kept_ratio": "ratio",
    "extract.reconstruct_B.calls": "count",
    "extract.extraction_cost.s": "s",
    "extract.extract_roles.s": "s",
    "extract.extract_roles.self_s": "s",
    "spectra.spectrum_report.self_s": "s",
    "cli.self_s": "s",
    "cli.stdout_digest_mismatches": "count",
    "trace.op_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


@dataclass(frozen=True, eq=False)
class Input:
    graph: wl.Graph
    path: Path
    sha256: str
    ref: dict                   # what reference.json recorded for the item
    sigma_A: np.ndarray | None  # singular values of the benchmark's own matrix


@dataclass(frozen=True, eq=False)
class Op:
    index: int
    input: Input
    traced: bool
    seconds: float
    code: int | None            # None when the call raised
    stdout: str
    stderr: str


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median seconds a fresh interpreter takes to import rolekit.cli and
    build its parser.  One unrecorded run first lets bytecode be compiled."""
    code = ("import time; t = time.perf_counter(); import rolekit.cli as c; "
            "c.build_parser(); print(time.perf_counter() - t, c.__file__)")
    src = ROOT / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    times = []
    for attempt in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, module = proc.stdout.split()
        if not Path(module).resolve().is_relative_to(src):
            raise RuntimeError(f"the set-up probe imported rolekit from {module}")
        if attempt:
            times.append(float(seconds))
    print(f"setup_samples\t{[round(t, 4) for t in times]}")
    return statistics.median(times)


# ---------------------------------------------------------------------------
# inputs and operations
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under the checkout's work directory, removed on exit."""
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def make_input(kind: str, n: int, item: int, workdir: Path, ref: dict | None,
               spectrum: bool) -> Input:
    """Write pool item ``item`` to ``workdir``; with ``spectrum`` also take
    the singular values of its matrix for the spectrum oracle."""
    graph = wl.make_graph(kind, n, item)
    path = workdir / f"{kind}-{n}-{item}.tsv"
    sha = wl.write_edge_list(graph, path)
    if ref is not None and sha != ref["input_sha256"]:
        raise RuntimeError(f"{path.name} differs from the input recorded in "
                           f"{wl.REFERENCE.name}; the recorded outputs do not apply")
    sigma_A = np.linalg.svd(graph.A.astype(float), compute_uv=False) if spectrum else None
    return Input(graph=graph, path=path, sha256=sha, ref=ref or {}, sigma_A=sigma_A)


def run_op(argv: list[str]):
    """One CLI call with stdout and stderr captured: (seconds, code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def check_op(workload: Workload, op: Op):
    """None when the operation succeeded and its output passes the oracle."""
    if op.code != 0:
        return f"exit code {op.code}: {op.stderr.strip()[-500:]}"
    if workload.argv[0] == "extract":
        return wl.check_extract(op.stdout, op.input.graph)
    ref = op.input.ref
    return wl.check_spectrum(op.stdout, op.input.sigma_A, ref["sigma_S"],
                             ref["sigma_S_half"], TOP)


def closed_loop(workload: Workload, inputs: list[Input], seconds: float,
                tracer: tracing.Tracer | None):
    """Run operations back to back until ``seconds`` have passed.

    With a tracer every second operation is traced, and the loop runs until
    at least one traced operation has finished.
    """
    ops = []
    begin = time.perf_counter()
    while True:
        i = len(ops)
        inp = inputs[i % len(inputs)]
        traced = tracer is not None and i % 2 == 1
        with tracer.installed(i) if traced else contextlib.nullcontext():
            result = run_op(workload.cli_args(inp.path))
        ops.append(Op(i, inp, traced, *result))
        if time.perf_counter() - begin >= seconds and (tracer is None or len(ops) >= 2):
            break
    return ops, time.perf_counter() - begin


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: list[dict], traced: list[Op], n: int) -> dict:
    """Per-layer figures: the median over traced operations of each one's
    per-operation value (0 where the layer never ran).  A span whose call
    raised has no observed return value and counts 0 steps and rank."""
    per_op = {op.index: Counter() for op in traced}
    kept = attempts = 0
    for span, own in zip(spans, tracing.self_times(spans)):
        name, m = span["name"], per_op[span["op"]]
        m[f"{name}.s"] += span["end"] - span["start"]
        m[f"{name}.self_s"] += own
        m[f"{name}.calls"] += 1
        parent = spans[span["parent"]]["name"] if span["parent"] is not None else None
        if name == "similarity.gamma" and parent == "similarity.fixed_point":
            m["similarity.fixed_point.applications"] += 1
        elif name == "similarity.fixed_point":
            m["similarity.fixed_point.steps"] += span.get("steps", 0)
        elif name == "lowrank.lowrank_iterate":
            m["lowrank.kept_rank"] = span.get("rank", 0)
            m["lowrank.steps"] += span.get("steps", 0)
        elif name == "extract.cluster_rows":
            attempts += 1
        elif name == "extract.extract_roles":
            kept += span.get("method") == "greedy"
        elif name == "cli.main":
            m["root.s"] = span["end"] - span["start"]
    for op in traced:
        m = per_op[op.index]
        m["similarity.fixed_point.gflop_computed"] = (
            m["similarity.fixed_point.applications"] * 8 * n**3 / 1e9)
        m["cli.self_s"] = m["cli.main.self_s"]
        m["trace.unaccounted_s"] = op.seconds - m["root.s"]

    values = {name: statistics.median(per_op[op.index][name] for op in traced)
              for name in PER_LAYER_UNITS}
    values["extract.greedy_kept_ratio"] = kept / attempts if attempts else 0.0
    values["trace.op_s_p50"] = statistics.median(op.seconds for op in traced)
    return values


def _metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    reference = wl.load_reference()[f"{workload.kind}-{workload.n}"]
    env = environment()
    with scratch_dir(f"{name}-") as workdir:
        items = np.random.default_rng(seed).choice(wl.POOL, workload.items, replace=False)
        inputs = [make_input(workload.kind, workload.n, item, workdir, reference[str(item)],
                             workload.argv[0] == "spectrum")
                  for item in items.tolist()]
        setup_s = None if trace else measure_setup()
        tracer = tracing.Tracer() if trace else None
        ops, wall = closed_loop(workload, inputs, seconds, tracer)

    failed = mismatches = 0
    for op in ops:
        problem = check_op(workload, op)
        if problem:
            failed += 1
            print(f"op {op.index} on item {op.input.graph.item} failed: {problem}",
                  file=sys.stderr)
        elif wl.sha256_text(op.stdout) != op.input.ref["stdout_sha256"][workload.command]:
            mismatches += 1
    times = [op.seconds for op in ops]

    if trace:
        values = layer_metrics(tracer.spans, [op for op in ops if op.traced], workload.n)
        values["cli.stdout_digest_mismatches"] = mismatches
        values["trace.overhead_s"] = values["trace.op_s_p50"] - statistics.median(
            op.seconds for op in ops if not op.traced)
        metrics = _metric_block(values, PER_LAYER_UNITS)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        print(f"spans\t{spans_path.relative_to(ROOT)}")
    else:
        values = {
            "op_s_p50": statistics.median(times),
            "ops_per_s": (len(ops) - failed) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        metrics = _metric_block(values, END_TO_END_UNITS)

    print(f"env\t{json.dumps(env, sort_keys=True)}")
    print(f"workload\t{name} n={workload.n} items={items.tolist()} seed={seed}")
    print(f"samples\t{len(ops)}\t{[round(t, 3) for t in times]}")
    print(f"fail_ratio\t{failed / len(ops)}")
    for metric, block in metrics.items():
        print(f"{metric}\t{block['value']!r}\t{block['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# grid and record modes
# ---------------------------------------------------------------------------

GRID_SIZES = (200, 500, 1000, 2000)


def run_grid() -> int:
    """One traced extraction per graph of the grid: ideal and 10%-flipped
    block cycles at each size.  Prints a Markdown table, then its rows as
    JSON.  Gates nothing."""
    rows = []
    with scratch_dir("grid-") as workdir:
        for n in GRID_SIZES:
            for workload in (WORKLOADS["ideal_extract"], WORKLOADS["noisy_extract"]):
                inp = make_input(workload.kind, n, 0, workdir, None, False)
                tracer = tracing.Tracer()
                with tracer.installed(0):
                    op = Op(0, inp, True, *run_op(workload.cli_args(inp.path)))
                inp.path.unlink()
                values = layer_metrics(tracer.spans, [op], n)
                rows.append({
                    "n": n, "kind": workload.kind, "correct": check_op(workload, op) is None,
                    "op_s": op.seconds,
                    "read_edge_list_s": values["graphcore.read_edge_list.s"],
                    "beta_bound_s": values["similarity.beta_bound.s"],
                    "lowrank_iterate_s": values["lowrank.lowrank_iterate.s"],
                    "kept_rank": values["lowrank.kept_rank"],
                    "steps": values["lowrank.steps"],
                    "cluster_rows_s": values["extract.cluster_rows.s"],
                    "sweep_self_s": values["extract.extract_roles.self_s"],
                    "extract_roles_s": values["extract.extract_roles.s"],
                })
                print(f"grid n={n} {workload.kind}: {op.seconds:.2f} s", file=sys.stderr)
    print("| n | kind | op | read | `beta_bound` | `lowrank_iterate` (kept r, steps) "
          "| greedy `cluster_rows` | sweep self | `extract_roles` | correct |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['n']} | {r['kind']} | {r['op_s']:.2f} s | {r['read_edge_list_s']:.2f} s "
              f"| {r['beta_bound_s']:.2f} s | {r['lowrank_iterate_s']:.2f} s "
              f"(r={r['kept_rank']}, {r['steps']}) | {r['cluster_rows_s']:.2f} s "
              f"| {r['sweep_self_s']:.2f} s | {r['extract_roles_s']:.2f} s | {r['correct']} |")
    print(json.dumps({"environment": environment(), "grid": rows}))
    return 0


def record_reference() -> int:
    """Rewrite reference.json from the current program: the sha256 of each
    pool input, the sha256 of each workload's stdout on it, and the spectrum
    of S.  Every output must first pass the oracles that need no recording."""
    reference = {}
    with scratch_dir("record-") as workdir:
        for kind, n in sorted({(w.kind, w.n) for w in WORKLOADS.values()}):
            users = [w for w in WORKLOADS.values() if (w.kind, w.n) == (kind, n)]
            spectrum = any(w.argv[0] == "spectrum" for w in users)
            table = reference[f"{kind}-{n}"] = {}
            for item in range(wl.POOL):
                inp = make_input(kind, n, item, workdir, None, spectrum)
                entry = table[str(item)] = inp.ref
                entry.update(input_sha256=inp.sha256, stdout_sha256={})
                for workload in users:
                    op = Op(0, inp, False, *run_op(workload.cli_args(inp.path)))
                    if op.code == 0 and workload.argv[0] == "spectrum":
                        # kept as printed: 9 digits are well inside the oracle's 1e-6
                        cols = np.array([line.split(",") for line in op.stdout.splitlines()[1:]],
                                        dtype=float)
                        entry.update(sigma_S_half=cols[:, 2].tolist(), sigma_S=cols[:, 3].tolist())
                    problem = check_op(workload, op)
                    if problem:
                        raise RuntimeError(f"{kind}-{n} item {item}, {workload.command}: {problem}")
                    entry["stdout_sha256"][workload.command] = wl.sha256_text(op.stdout)
                    print(f"{kind}-{n} item {item} {workload.command}: {op.seconds:.2f} s",
                          file=sys.stderr)
                inp.path.unlink()
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--grid", action="store_true", help="print the per-layer size grid")
    mode.add_argument("--record", action="store_true", help="rewrite reference.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not Path(rolekit.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported rolekit from {rolekit.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.grid:
        return run_grid()
    if args.record:
        return record_reference()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
