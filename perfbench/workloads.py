"""Inputs and oracles of the rolekit benchmark.

Every input is a block cycle with 4 equal roles (role r points at role
r + 1 mod 4) under a seeded random node order.  Noisy inputs additionally
flip each entry of the adjacency matrix with probability 0.1, which is the
``p_in = p_out = 0.1`` perturbation; the exact number of flipped entries is
kept as ground truth.  The graphs are built here with plain numpy, never with
``rolekit`` itself, so a change to the program cannot change its own inputs.

Inputs come from a fixed pool of items per (kind, n): item ``i`` is always
the same graph, and ``reference.json`` records, per pool item, the sha256 of
its edge-list file and what the CLI printed for it.  A benchmark seed picks
which pool items a run uses.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

Q = 4
FLIP_P = 0.1
POOL = 16
KIND_TAGS = {"ideal": 1, "noisy": 2}
REFERENCE = Path(__file__).with_name("reference.json")

#: role r points at role r + 1 (mod Q)
B_TRUE = np.roll(np.eye(Q, dtype=int), 1, axis=1)


@dataclass(frozen=True, eq=False)
class Graph:
    """A planted block cycle and its ground truth."""

    kind: str
    n: int
    item: int
    sigma: np.ndarray   # true role of every node
    A: np.ndarray       # boolean adjacency matrix
    flips: int          # entries flipped away from the ideal graph


def make_graph(kind: str, n: int, item: int) -> Graph:
    """Build pool item ``item`` of the given kind at n nodes (n divisible by 4)."""
    if kind not in KIND_TAGS or n % Q:
        raise ValueError(f"no {kind!r} block cycle at n = {n}")
    rng = np.random.default_rng([KIND_TAGS[kind], n, item])
    sigma = np.empty(n, dtype=np.int64)
    sigma[rng.permutation(n)] = np.arange(n) // (n // Q)
    A = sigma[None, :] == (sigma[:, None] + 1) % Q
    flips = 0
    if kind == "noisy":
        flip = rng.random((n, n)) < FLIP_P
        A = A ^ flip
        flips = int(flip.sum())
    return Graph(kind=kind, n=n, item=item, sigma=sigma, A=A, flips=flips)


def write_edge_list(graph: Graph, path: Path) -> str:
    """Write one "src<TAB>dst" line per edge, row-major; return the sha256."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for i in range(graph.n):
            chunk = "".join(f"{i}\t{j}\n" for j in np.flatnonzero(graph.A[i]).tolist())
            data = chunk.encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# oracles: each returns None when the output is right, else the reason
# ---------------------------------------------------------------------------

def check_partition(labels, truth: np.ndarray):
    """``(mapping, None)`` with the map found label -> true label when
    ``labels`` equals the truth up to relabelling, else ``(None, reason)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != truth.shape:
        return None, f"{labels.size} labels for {truth.size} nodes"
    if (labels < 0).any():
        return None, f"{int((labels < 0).sum())} nodes left unassigned"
    mapping = {}
    for found, true in zip(labels.tolist(), truth.tolist()):
        if mapping.setdefault(found, true) != true:
            return None, f"found role {found} mixes true roles {mapping[found]} and {true}"
    if len(set(mapping.values())) != len(mapping):
        return None, "two found roles map to one true role"
    return mapping, None


def check_extract(stdout: str, graph: Graph):
    """Oracle of ``rolekit extract`` on a planted block cycle."""
    try:
        result = json.loads(stdout)
        labels, q, B, residual = (result[k] for k in ("sigma", "q", "B", "residual"))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return f"stdout is not an extraction result: {exc!r}"
    mapping, problem = check_partition(labels, graph.sigma)
    if problem:
        return problem
    if q != Q or len(B) != Q * Q:
        return f"q = {q} with {len(B)} entries of B, expected {Q} and {Q * Q}"
    if graph.kind == "ideal":
        B = np.asarray(B, dtype=int).reshape(Q, Q)
        order = [mapping[a] for a in range(Q)]
        if not np.array_equal(B, B_TRUE[np.ix_(order, order)]):
            return "B differs from the planted role matrix"
        if residual != 0:
            return f"residual {residual} on an ideal graph"
    elif not abs(residual - graph.flips) < 0.5:
        return f"residual {residual} but {graph.flips} entries were flipped"
    return None


def gap_index(sigma, gap_ratio: float = 0.5, noise_floor: float = 1e-12) -> int:
    """Position of the last consecutive ratio below ``gap_ratio`` (the role
    count the spectrum shows); values under the noise floor are ignored."""
    best = None
    for r in range(1, len(sigma)):
        hi, lo = sigma[r - 1], sigma[r]
        if hi <= noise_floor * sigma[0]:
            break
        if lo < gap_ratio * hi:
            best = r
    return len(sigma) if best is None else best


def _close(printed: float, ref: float, rtol: float) -> bool:
    # the CLI prints 9 significant digits, so allow half a unit of the 9th
    # digit on top of the tolerance on the value itself
    if ref == 0.0:
        return printed == 0.0
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 8)
    return abs(printed - ref) <= rtol * abs(ref) + half_digit


def check_spectrum(stdout: str, sigma_A, sigma_S, sigma_S_half, top: int):
    """Oracle of ``rolekit spectrum --top <top>``.

    ``sigma_A`` is computed by the benchmark from its own matrix and must
    match within 1e-9 relative; ``sigma_S`` and ``sigma_S_half`` are the
    values recorded in ``reference.json`` and must match within 1e-6.
    """
    lines = stdout.splitlines()
    if not lines or lines[0] != "index,sigma_A,sigma_S_half,sigma_S":
        return "missing CSV header"
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        return f"unparsable CSV row: {exc}"
    if rows.shape != (top, 4):
        return f"CSV has shape {rows.shape}, expected ({top}, 4)"
    gap = gap_index(rows[:, 3])
    if gap != Q:
        return f"gap index {gap}, expected {Q}"
    for column, (name, ref, rtol) in enumerate(
            [("sigma_A", sigma_A, 1e-9), ("sigma_S_half", sigma_S_half, 1e-6),
             ("sigma_S", sigma_S, 1e-6)], start=1):
        for i, (got, want) in enumerate(zip(rows[:, column], ref[:top])):
            if not _close(float(got), float(want), rtol):
                return f"{name}[{i}] = {got!r}, expected {want!r}"
    return None
