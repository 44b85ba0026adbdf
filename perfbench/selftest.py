"""Self-tests of the benchmark: its oracles reject wrong answers and its
tracer leaves rolekit as it found it.

    python3 perfbench/selftest.py

Exits 0 when every test passes.  The file is not named ``test_*.py`` on
purpose, so the repository's own pytest run does not collect it.  The tests
import numpy and rolekit inside their bodies, after ``prepare()`` has capped
BLAS threads and put the checkout's ``src`` on the import path.
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
import traceback

from run import ROOT, prepare


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def _extract_stdout(graph, sigma, residual, B=None):
    import workloads as wl
    B = wl.B_TRUE if B is None else B
    return json.dumps({"q": 4, "sigma": [int(v) for v in sigma],
                       "B": [int(v) for v in B.ravel()], "residual": residual,
                       "unassigned": [], "params": {}})


def test_swapped_labels_fail_the_oracle():
    import numpy as np
    import workloads as wl
    graph = wl.make_graph("ideal", 40, 0)
    check(wl.check_extract(_extract_stdout(graph, graph.sigma, 0.0), graph) is None,
          "the true partition must pass")
    relabel = np.array([2, 0, 3, 1])        # found label -> true label
    found = np.argsort(relabel)[graph.sigma]
    B_found = wl.B_TRUE[np.ix_(relabel, relabel)]
    check(wl.check_extract(_extract_stdout(graph, found, 0.0, B_found), graph) is None,
          "a relabelled partition with its relabelled B must pass")
    check(wl.check_extract(_extract_stdout(graph, found, 0.0), graph) is not None,
          "a relabelled partition with the unrelabelled B must fail")
    i = int(np.flatnonzero(graph.sigma == 0)[0])
    j = int(np.flatnonzero(graph.sigma == 1)[0])
    swapped = graph.sigma.copy()
    swapped[[i, j]] = swapped[[j, i]]
    check(wl.check_extract(_extract_stdout(graph, swapped, 0.0), graph) is not None,
          "two swapped node labels must fail")


def test_wrong_residual_fails_the_oracle():
    import workloads as wl
    ideal = wl.make_graph("ideal", 40, 0)
    check(wl.check_extract(_extract_stdout(ideal, ideal.sigma, 1.0), ideal) is not None,
          "a nonzero residual on an ideal graph must fail")
    noisy = wl.make_graph("noisy", 40, 0)
    check(noisy.flips > 0, "the noisy graph must have flips")
    good = _extract_stdout(noisy, noisy.sigma, float(noisy.flips))
    check(wl.check_extract(good, noisy) is None, "residual == flips must pass")
    bad = _extract_stdout(noisy, noisy.sigma, float(noisy.flips + 1))
    check(wl.check_extract(bad, noisy) is not None, "residual == flips + 1 must fail")


def test_spectrum_oracle_tolerances():
    import numpy as np
    import workloads as wl
    sigma_A = np.array([9.0, 8.0, 7.0, 6.0, 2.0, 1.9, 1.8, 1.7, 1.6, 1.5])
    sigma_S = sigma_A**4
    half = np.sqrt(sigma_S)

    def csv(a):
        lines = ["index,sigma_A,sigma_S_half,sigma_S"]
        lines += [f"{i + 1},{x:.9g},{y:.9g},{z:.9g}" for i, (x, y, z) in
                  enumerate(zip(a, half, sigma_S))]
        return "\n".join(lines) + "\n"

    check(wl.check_spectrum(csv(sigma_A), sigma_A, sigma_S, half, 10) is None,
          "the exact spectrum must pass")
    off = sigma_A * (1 + 1e-7)
    check(wl.check_spectrum(csv(off), sigma_A, sigma_S, half, 10) is not None,
          "sigma_A off by 1e-7 relative must fail")
    check(wl.check_spectrum(csv(sigma_A)[:-30], sigma_A, sigma_S, half, 10) is not None,
          "a truncated CSV must fail")


def test_tracer_restores_module_attributes():
    import numpy as np
    import tracing
    import workloads as wl
    from rolekit import cli

    def snapshot():
        return {(m.__name__, k): v for m in tracing.MODULES for k, v in vars(m).items()}

    before = snapshot()
    graph = wl.make_graph("noisy", 40, 0)
    workdir = ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=workdir)
    try:
        path = f"{tmp}/g.tsv"
        wl.write_edge_list(graph, path)
        tracer = tracing.Tracer()
        with tracer.installed(0), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["spectrum", path, "--top", "4"])
        check(code == 0, "spectrum must succeed")
        try:
            with tracer.installed(1):
                raise KeyboardInterrupt
        except KeyboardInterrupt:
            pass
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    after = snapshot()
    changed = [key for key in before if after.get(key) is not before[key]]
    check(not changed and before.keys() == after.keys(),
          f"attributes not restored: {changed}")
    names = [s["name"] for s in tracer.spans]
    check(names[0] == "cli.main", "the CLI call is the root span")
    nested = [s for s in tracer.spans if s["name"] == "similarity.beta_bound"
              and s["parent"] is not None
              and tracer.spans[s["parent"]]["name"] == "similarity.fixed_point"]
    check(nested, "fixed_point's own beta_bound call must be seen")
    own = tracing.self_times(tracer.spans)
    root = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    check(np.isclose(sum(own), root, rtol=1e-9, atol=1e-9),
          "self times must add up to the root span")


def main() -> int:
    if prepare() is None:
        print("selftest: no rolekit package under src/", file=sys.stderr)
        return 2
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
