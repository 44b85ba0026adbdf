"""Command-line surface: generate graphs, extract roles, report spectra.

Exit codes: 0 success, 1 input or output error (an unreadable or malformed
graph file, an output that cannot be written, as a file in a missing
directory or a standard output on a full disk, or a standard output its
reader closed before it was written),
2 numerical non-convergence (a solve past ``DEFAULT_MAX_K`` steps: every
command stops by the one rule of :mod:`rolekit.similarity`, which no flag
sets), 3 invalid configuration (``--beta2``, ``--k``, ``--trunc-tol`` and
``--top`` are checked before the graph is read).  All floating-point output
is printed with 9 significant digits; identical configuration and seed
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .extract import extract_roles
from .graphcore import (
    STRUCTURE_KINDS,
    EdgeListFormatError,
    generate_structure,
    read_edge_list,
    write_edge_list,
    write_ground_truth,
)
from .similarity import NonConvergenceError, _check_request, beta_bound
from .spectra import PerturbationModel, SpectrumReport, perturb, spectrum_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGENCE = 2
EXIT_CONFIG = 3


class _InputError(Exception):
    """The graph file could not be read."""


def _read_graph(path):
    """:func:`rolekit.graphcore.read_edge_list`, with an OS error raised as
    an input error: any other OS error a command meets is one of output."""
    try:
        return read_edge_list(path)
    except OSError as exc:
        raise _InputError(exc) from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap to the config exit code
    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"could not parse sizes {text!r}; expected e.g. 20,10,10,20")
    if not sizes:
        raise ValueError("at least one role size is required")
    return sizes


def _resolve_beta2(text: str) -> float | None:
    """Map the --beta2 flag to a value; "auto" defers to the default rule."""
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--beta2 must be a number or 'auto', got {text!r}")


def _depth(args) -> int | None:
    return None if args.fixed_point else args.k


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    sizes = None if args.sizes is None else _parse_sizes(args.sizes)
    if args.kind != "signed_example" and sizes is None:
        raise ValueError(f"--kind {args.kind} requires --sizes")
    A, B, assignment = generate_structure(args.kind, sizes)
    extra = None
    # checked on every run, so a probability outside [0, 1] (NaN included)
    # is rejected even where it would flip nothing
    model = PerturbationModel(p_in=args.p_in, p_out=args.p_out, seed=args.seed)
    if args.p_in > 0 or args.p_out > 0:
        A = perturb(A, model)
        extra = {"perturbation": {"p_in": args.p_in, "p_out": args.p_out,
                                  "seed": args.seed}}
    out = Path(args.out)
    edges = write_edge_list(out, A)
    truth = out.with_suffix(".truth.json")
    write_ground_truth(truth, B, assignment, extra=extra)
    print(f"wrote {out} ({edges} edges) and {truth}")
    return EXIT_OK


def cmd_extract(args) -> int:
    beta2, k = _resolve_beta2(args.beta2), _depth(args)
    _check_request(beta2, k, args.trunc_tol)
    result = extract_roles(_read_graph(args.graph), beta2=beta2, k=k,
                           trunc_tol=args.trunc_tol)
    text = json.dumps(_round_floats(result.to_json_dict()), sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    beta2, k = _resolve_beta2(args.beta2), _depth(args)
    _check_request(beta2, k)
    if args.top < 1:
        raise ValueError("--top must be at least 1")
    report = spectrum_report(_read_graph(args.graph), beta2=beta2, k=k, top_m=args.top)
    text = report.to_csv_text()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        Path(args.svg).write_text(render_spectrum_svg(report))
    return EXIT_OK


def cmd_betabound(args) -> int:
    A = _read_graph(args.graph)
    rho = beta_bound(A)
    print(f"rho_hat\t{_fmt(rho)}")
    print(f"beta2_max\t{_fmt(1.0 / rho)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG emitter: three log-scale scatter panels (A, S^1/2, S)
# ---------------------------------------------------------------------------

PANEL_W, PANEL_H, MARGIN, GAP = 220, 220, 45, 30


def _panel(values: np.ndarray, title: str, x0: float) -> list[str]:
    floor = 1e-16
    vals = np.maximum(np.asarray(values, dtype=float), floor)
    logs = np.log10(vals)
    lo, hi = np.floor(logs.min()), np.ceil(logs.max())
    if hi <= lo:
        hi = lo + 1
    y0, y1 = MARGIN, MARGIN + PANEL_H
    parts = [
        f'<rect x="{x0}" y="{y0}" width="{PANEL_W}" height="{PANEL_H}" '
        'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{x0 + PANEL_W / 2:.1f}" y="{y0 - 8}" text-anchor="middle" '
        f'font-size="13">{title}</text>',
    ]
    for d in range(int(lo), int(hi) + 1):
        y = y1 - (d - lo) / (hi - lo) * PANEL_H
        parts.append(f'<line x1="{x0 - 4}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" '
                     'stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 7}" y="{y + 3.5:.1f}" text-anchor="end" '
                     f'font-size="9">1e{d}</text>')
    m = vals.size
    for i, lg in enumerate(logs):
        x = x0 + (i + 0.5) / m * PANEL_W
        y = y1 - (lg - lo) / (hi - lo) * PANEL_H
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{y1 + 13}" text-anchor="middle" '
                     f'font-size="9">{i + 1}</text>')
    return parts


def render_spectrum_svg(report: SpectrumReport) -> str:
    """Render the three singular-value panels as a standalone SVG 1.1 document."""
    width = MARGIN * 2 + PANEL_W * 3 + GAP * 2
    height = MARGIN * 2 + PANEL_H
    body: list[str] = []
    panels = [
        (report.sigma_A, "sigma(A)"),
        (report.sigma_S_half, "sigma(S^1/2)"),
        (report.sigma_S, "sigma(S)"),
    ]
    for idx, (vals, title) in enumerate(panels):
        body.extend(_panel(vals, title, MARGIN + idx * (PANEL_W + GAP)))
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_depth_flags(p: _Parser, default_k: int | None):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, default=default_k,
                       help="iteration depth (default: %(default)s)")
    group.add_argument("--fixed-point", action="store_true",
                       help="use the similarity at its fixed point")


def _add_beta2_flag(p: _Parser):
    p.add_argument("--beta2", default="auto",
                   help="damping weight squared, or 'auto' for 0.81/rho (default)")


def build_parser() -> _Parser:
    parser = _Parser(prog="rolekit",
                     description="Role extraction for directed graphs via "
                                 "neighborhood-pattern similarity.")
    sub = parser.add_subparsers(dest="command", required=True,
                               parser_class=_Parser)

    g = sub.add_parser("generate",
                       help="write a benchmark graph and its ground truth")
    g.add_argument("--kind", required=True, choices=STRUCTURE_KINDS)
    g.add_argument("--sizes", help="comma-separated role sizes, e.g. 20,10,10,20")
    g.add_argument("--p-in", type=float, default=0.0,
                   help="probability an existing edge is removed")
    g.add_argument("--p-out", type=float, default=0.0,
                   help="probability a missing edge is added")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="edge-list output path; the ground "
                   "truth goes next to it with suffix .truth.json")
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("extract", help="recover the role structure")
    e.add_argument("graph", help="edge-list input file")
    _add_beta2_flag(e)
    _add_depth_flags(e, default_k=6)
    e.add_argument("--trunc-tol", type=float, default=1e-10,
                   help="floor of the role-count estimate: eigenvalues of S "
                        "below trunc-tol^2 times the largest are left out")
    e.add_argument("--out", help="write the result JSON here instead of stdout")
    e.set_defaults(func=cmd_extract)

    s = sub.add_parser("spectrum",
                       help="report singular values of A, S^1/2 and S")
    s.add_argument("graph", help="edge-list input file")
    _add_beta2_flag(s)
    _add_depth_flags(s, default_k=None)
    s.add_argument("--top", type=int, default=10, help="number of values to report")
    s.add_argument("--svg", help="also render a log-scale scatter SVG here")
    s.add_argument("--out", help="write the CSV here instead of stdout")
    s.set_defaults(func=cmd_spectrum)

    b = sub.add_parser("betabound",
                       help="print the operator spectral radius and the "
                            "admissible beta^2 threshold")
    b.add_argument("graph", help="edge-list input file")
    b.set_defaults(func=cmd_betabound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is left in its buffer goes to
        # os.devnull, so the interpreter's own flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except (EdgeListFormatError, _InputError) as exc:
        print(f"rolekit: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:   # a file or standard output that cannot be written
        print(f"rolekit: output error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonConvergenceError as exc:
        print(f"rolekit: did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as exc:
        print(f"rolekit: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
