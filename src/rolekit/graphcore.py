"""Graph data types, ideal block-structured graphs, and benchmark generators.

A directed graph on ``n`` nodes is held as a dense ``n x n`` real matrix.
Graphs whose permuted adjacency matrix is exactly block-constant factor as
``(PZ) B (PZ)^T`` for a small binary role matrix ``B`` and a (possibly signed)
role-indicator matrix ``Z``; such graphs are called ideal, because all nodes
sharing a role are structurally equivalent.  This module builds ideal graphs,
reduces redundant role structure to a minimal one, recognizes checkerboard
sign patterns, applies rank-one edge weights, and generates the standard
benchmark structures (communities, overlapping communities, bipartite
communities, block cycles, and a signed checkerboard example).

Every :class:`Adjacency` also knows its quotient by structural equivalence
(:class:`Quotient`): nodes with identical rows and identical columns are
collapsed into one class, and the graph is rebuilt exactly from a c x c
matrix on the classes.  The similarity code runs its O(n^3) work on that
matrix, so it costs what the number of classes c needs, not the node count
n.  On an ideal graph c is the number of roles (plus one class of
disconnected nodes, if any); on a graph with no equivalent nodes c = n and
the quotient is the graph itself.

Everything here is a pure function of its inputs; values are safe to share
across threads read-only.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

UNWEIGHTED = "unweighted"
SIGNED = "signed"
WEIGHTED = "weighted"

STRUCTURE_KINDS = (
    "community",
    "overlapping",
    "bipartite_communities",
    "block_cycle",
    "signed_example",
)

#: The largest node count the edge-list reader accepts.  The graph is held
#: as a dense float64 n x n matrix, which at 2^14 nodes takes 2 GiB.
MAX_NODES = 2**14


class EdgeListFormatError(ValueError):
    """Unreadable edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class Adjacency:
    """Square real matrix of a directed graph plus a value-range tag.

    ``kind`` is one of ``"unweighted"`` (entries in {0,1}), ``"signed"``
    (entries in {-1,0,1}) or ``"weighted"`` (arbitrary reals).  The kind is
    validated at construction; use :meth:`from_matrix` to infer the narrowest
    kind that fits the values.
    """

    entries: np.ndarray
    kind: str

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("adjacency matrix must be square")
        object.__setattr__(self, "entries", M)
        if self.kind == UNWEIGHTED:
            if not np.isin(M, (0.0, 1.0)).all():
                raise ValueError("unweighted adjacency entries must be 0 or 1")
        elif self.kind == SIGNED:
            if not np.isin(M, (-1.0, 0.0, 1.0)).all():
                raise ValueError("signed adjacency entries must be -1, 0 or 1")
        elif self.kind != WEIGHTED:
            raise ValueError(f"unknown adjacency kind: {self.kind!r}")

    @classmethod
    def from_matrix(cls, M) -> "Adjacency":
        """Wrap a matrix, inferring the narrowest kind that fits its values."""
        M = np.asarray(M, dtype=float)
        if np.isin(M, (0.0, 1.0)).all():
            kind = UNWEIGHTED
        elif np.isin(M, (-1.0, 0.0, 1.0)).all():
            kind = SIGNED
        else:
            kind = WEIGHTED
        return cls(M, kind)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def quotient(self) -> "Quotient":
        """The graph collapsed onto its classes of structurally equivalent
        nodes; computed once per Adjacency."""
        return Quotient.of(self.entries)

    def disconnected_nodes(self) -> list[int]:
        """Nodes whose row and column are both entirely zero."""
        zero = self.entries == 0
        return [int(i) for i in np.flatnonzero(zero.all(axis=0) & zero.all(axis=1))]

    def __abs__(self) -> "Adjacency":
        return Adjacency.from_matrix(np.abs(self.entries))


@dataclass(frozen=True, eq=False)
class Quotient:
    """A graph collapsed onto its classes of structurally equivalent nodes.

    Nodes are equivalent when their rows of A are equal and their columns of
    A are equal, bit for bit.  ``labels[i]`` is the class of node ``i``;
    classes are numbered in order of their first node ``first[c]`` and hold
    ``sizes[c]`` nodes.  With P the n x c class indicator and
    D = diag(sizes), ``Q = P D^(-1/2)`` has orthonormal columns and

        A = Q entries Q^T   exactly,   entries = D^(1/2) A[first, first] D^(1/2).

    So every matrix built from A by products with A and A^T (the similarity
    iterates, the factor U of S = U U^T) is Q times its counterpart on
    ``entries``, and spectra carry over.  When no two nodes are equivalent
    (c = n) the quotient is the graph itself: ``entries`` is A and
    :meth:`lift` returns its argument.
    """

    labels: np.ndarray
    first: np.ndarray
    sizes: np.ndarray
    entries: np.ndarray

    @property
    def c(self) -> int:
        return self.first.size

    @classmethod
    def of(cls, M: np.ndarray) -> "Quotient":
        """The quotient of the square float64 matrix M."""
        labels = _equivalence_classes(M)
        n = labels.size
        _, first = np.unique(labels, return_index=True)
        if first.size == n:
            return cls(labels, first, np.ones(n, dtype=np.int64), M)
        sizes = np.bincount(labels)
        half = np.sqrt(sizes)
        entries = half[:, None] * M[np.ix_(first, first)] * half[None, :]
        return cls(labels, first, sizes, entries)

    def lift(self, X: np.ndarray) -> np.ndarray:
        """Q X: row i is ``X[labels[i]] / sqrt(sizes[labels[i]])``, so rows of
        one class are equal bit for bit."""
        if self.c == self.labels.size:
            return X
        return (X / np.sqrt(self.sizes)[:, None])[self.labels]


def _fingerprint_weights(n: int) -> np.ndarray:
    """Fixed pseudo-random int64 multipliers for the row and column hashes."""
    info = np.iinfo(np.int64)
    return np.random.default_rng(n).integers(info.min, info.max, size=n,
                                             dtype=np.int64, endpoint=True)


def _equivalence_classes(M: np.ndarray) -> np.ndarray:
    """Class label per node, equal labels iff equal rows and equal columns.

    Rows and columns are hashed by a wrapping int64 product of their bit
    patterns with fixed multipliers, which equal rows and columns always
    share; nodes with equal hashes are then checked entry by entry, and the
    rare class that fails the check is split by exact comparison.  Labels
    are numbered in order of first node.  Costs O(n^2), against O(n^3) for
    the similarity work it saves.
    """
    n = M.shape[0]
    bits = M.view(np.int64)
    w = _fingerprint_weights(n)
    keys = np.stack([bits @ w, w @ bits], axis=1)
    _, first, labels = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    if first.size == n:
        return np.arange(n)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    labels = rank[labels.ravel()]
    first = np.sort(first)
    # the rows equal their class's first row, and those first rows agree on
    # the columns of each class, iff rows and columns are equal in full
    heads = bits[first]
    exact = bool((heads == heads[:, first[labels]]).all())
    for lo in range(0, n, 256):
        exact = exact and bool((bits[lo:lo + 256] == heads[labels[lo:lo + 256]]).all())
    if exact:
        return labels
    groups: dict[bytes, int] = {}
    return np.array([groups.setdefault(M[i].tobytes() + M[:, i].tobytes(), len(groups))
                     for i in range(n)])


def as_adjacency(obj) -> Adjacency:
    """Coerce an :class:`Adjacency` or a plain matrix to :class:`Adjacency`."""
    if isinstance(obj, Adjacency):
        return obj
    return Adjacency.from_matrix(obj)


@dataclass(frozen=True, eq=False)
class RoleMatrix:
    """``q x q`` binary matrix describing which roles point at which."""

    entries: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("role matrix must be square")
        if not np.isin(M, (0.0, 1.0)).all():
            raise ValueError("role matrix entries must be 0 or 1")
        object.__setattr__(self, "entries", M)

    @property
    def q(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Diagonal sign matrix Q with entries in {-1,+1}, so Q @ Q = I."""

    diag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float).ravel()
        if not np.isin(d, (-1.0, 1.0)).all():
            raise ValueError("sign matrix diagonal entries must be -1 or +1")
        object.__setattr__(self, "diag", d)

    def conjugate(self, M: np.ndarray) -> np.ndarray:
        """Return Q M Q."""
        d = self.diag
        return d[:, None] * np.asarray(M, dtype=float) * d[None, :]


@dataclass(frozen=True, eq=False)
class Assignment:
    """Node-to-role map.

    ``sigma[i]`` is the 0-based role of node ``i``, or -1 when the node is
    left unassigned (e.g. disconnected nodes).  Every role index 0..q-1 must
    own at least one node.  ``signs`` optionally holds a per-node factor in
    {-1,+1} for signed block structure; the row of the indicator matrix for
    node ``i`` is then ``signs[i] * e_{sigma[i]}``.
    """

    sigma: np.ndarray
    signs: np.ndarray | None = None

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=int).ravel()
        object.__setattr__(self, "sigma", sig)
        assigned = sig[sig >= 0]
        if assigned.size == 0:
            raise ValueError("assignment must place at least one node in a role")
        q = int(assigned.max()) + 1
        counts = np.bincount(assigned, minlength=q)
        if (counts == 0).any():
            raise ValueError("every role index 0..q-1 must own at least one node")
        if self.signs is not None:
            s = np.asarray(self.signs, dtype=float).ravel()
            if s.shape[0] != sig.shape[0]:
                raise ValueError("signs must have one entry per node")
            if not np.isin(s, (-1.0, 1.0)).all():
                raise ValueError("signs entries must be -1 or +1")
            object.__setattr__(self, "signs", s)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    @property
    def q(self) -> int:
        return int(self.sigma.max()) + 1

    def sizes(self) -> np.ndarray:
        """Number of nodes per role."""
        assigned = self.sigma[self.sigma >= 0]
        return np.bincount(assigned, minlength=self.q)

    def unassigned(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.sigma < 0)]

    def membership(self) -> np.ndarray:
        """The ``n x q`` indicator matrix PZ (signed when signs are present)."""
        W = np.zeros((self.n, self.q))
        nodes = np.flatnonzero(self.sigma >= 0)
        vals = np.ones(nodes.size) if self.signs is None else self.signs[nodes]
        W[nodes, self.sigma[nodes]] = vals
        return W

    @classmethod
    def from_blocks(cls, sizes, perm=None, signs=None) -> "Assignment":
        """Build an assignment from per-role block sizes.

        ``perm[t]`` names the node placed at block position ``t``; identity
        when omitted.  ``signs`` is given in block order and is carried over
        to the nodes.
        """
        sizes = [int(s) for s in np.atleast_1d(sizes)]
        if len(sizes) == 0 or any(s < 1 for s in sizes):
            raise ValueError("every role size must be at least 1")
        n = sum(sizes)
        if perm is None:
            perm = np.arange(n)
        perm = np.asarray(perm, dtype=int).ravel()
        if perm.shape[0] != n or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        block_role = np.repeat(np.arange(len(sizes)), sizes)
        sigma = np.empty(n, dtype=int)
        sigma[perm] = block_role
        node_signs = None
        if signs is not None:
            signs = np.asarray(signs, dtype=float).ravel()
            if signs.shape[0] != n:
                raise ValueError("signs must have one entry per node")
            node_signs = np.empty(n)
            node_signs[perm] = signs
        return cls(sigma, node_signs)


def ideal_adjacency(B: RoleMatrix, assignment: Assignment) -> Adjacency:
    """Return (PZ) B (PZ)^T for the given role matrix and assignment.

    Unassigned nodes contribute zero rows and columns.
    """
    sig = assignment.sigma
    n = assignment.n
    A = np.zeros((n, n))
    nodes = np.flatnonzero(sig >= 0)
    vals = B.entries[np.ix_(sig[nodes], sig[nodes])]
    if assignment.signs is not None:
        s = assignment.signs[nodes]
        vals = vals * np.outer(s, s)
    A[np.ix_(nodes, nodes)] = vals
    return Adjacency.from_matrix(A)


def build_ideal(B: RoleMatrix, sizes, perm=None, signs=None) -> Adjacency:
    """Build the ideal adjacency matrix (PZ) B (PZ)^T.

    ``sizes`` gives the node count of each role (all >= 1), ``perm[t]`` the
    node placed at block position ``t``, and ``signs`` an optional per-block-
    position factor in {-1,+1} producing a signed ideal graph.
    """
    return ideal_adjacency(B, Assignment.from_blocks(sizes, perm, signs))


def is_minimal_role_matrix(B: RoleMatrix) -> bool:
    """True iff no row of [B B^T] is zero and no two are equal (for binary
    rows, linearly dependent): :func:`minimalize` would change nothing."""
    C = np.hstack([B.entries, B.entries.T])
    return bool(C.any(axis=1).all()) and np.unique(C, axis=0).shape[0] == B.q


def _merge_equivalent_roles(B: RoleMatrix, assignment: Assignment):
    """Merge roles whose rows of [B B^T] coincide; returns (B, assignment)."""
    C = np.hstack([B.entries, B.entries.T])
    _, rep, relabel = np.unique(C, axis=0, return_index=True, return_inverse=True)
    if rep.size == B.q:
        return B, assignment
    order = np.argsort(rep)   # number the merged roles by their first role
    rep, relabel = rep[order], np.argsort(order)[relabel.ravel()]
    new_B = RoleMatrix(B.entries[np.ix_(rep, rep)])
    sigma = assignment.sigma.copy()
    mask = sigma >= 0
    sigma[mask] = relabel[sigma[mask]]
    return new_B, Assignment(sigma, assignment.signs)


def minimalize(B: RoleMatrix, assignment: Assignment):
    """Reduce (B, Z) to a minimal role structure with the same ideal matrix.

    Roles whose row and column of B are both zero are removed (their nodes
    become unassigned; they are disconnected in the ideal graph), and roles
    with identical rows of [B B^T] are merged, summing their sizes.  The
    product (PZ) B (PZ)^T is unchanged and the result is a fixed point of
    this reduction.
    """
    C = np.hstack([B.entries, B.entries.T])
    alive = ~(C == 0).all(axis=1)
    if not alive.all():
        keep = np.flatnonzero(alive)
        relabel = -np.ones(B.q, dtype=int)
        relabel[keep] = np.arange(keep.size)
        sigma = assignment.sigma.copy()
        mask = sigma >= 0
        sigma[mask] = relabel[sigma[mask]]
        B = RoleMatrix(B.entries[np.ix_(keep, keep)])
        assignment = Assignment(sigma, assignment.signs)
    return _merge_equivalent_roles(B, assignment)


def checkerboard_signature(A: Adjacency) -> SignMatrix | None:
    """Find a diagonal sign matrix Q with |A| = Q A Q, if one exists.

    Each edge (i, j) forces sign(q_i q_j) = sign(A_ij); the constraint graph
    is 2-colored by breadth-first search, the first node of every connected
    component receiving +1.  Returns None when a sign cycle is inconsistent
    (the graph is not checkerboard).
    """
    if A.kind == WEIGHTED:
        raise ValueError("checkerboard signature is defined for unweighted graphs")
    M = A.entries
    n = A.n
    sgn = np.sign(M)
    q = np.zeros(n)
    for start in range(n):
        if q[start] != 0:
            continue
        q[start] = 1.0
        stack = [start]
        while stack:
            i = stack.pop()
            for signs in (sgn[i], sgn[:, i]):   # out-edges, then in-edges
                for j in np.flatnonzero(signs):
                    want = signs[j] * q[i]
                    if q[j] == 0:
                        q[j] = want
                        stack.append(int(j))
                    elif q[j] != want:
                        return None
    return SignMatrix(q)


def apply_rank_one_weights(A: Adjacency, d) -> Adjacency:
    """Scale an unweighted graph by a rank-one weight pattern: D A D."""
    if A.kind != UNWEIGHTED:
        raise ValueError("rank-one weighting expects an unweighted graph")
    d = np.asarray(d, dtype=float).ravel()
    if d.shape[0] != A.n:
        raise ValueError("weight vector length must equal the node count")
    if (d <= 0).any():
        raise ValueError("weights must be strictly positive")
    return Adjacency.from_matrix(d[:, None] * A.entries * d[None, :])


def structure_role_matrix(kind: str, q: int) -> RoleMatrix:
    """Role matrix of a named benchmark structure with q roles (q pairs for
    bipartite communities)."""
    if kind == "community":
        if q < 1:
            raise ValueError("community structure needs at least 1 role")
        return RoleMatrix(np.eye(q))
    if kind == "overlapping":
        if q < 3:
            raise ValueError("overlapping communities need at least 3 roles")
        B = np.eye(q)
        B[:, -1] = 1.0
        B[-1, :] = 1.0
        return RoleMatrix(B)
    if kind == "bipartite_communities":
        if q < 1:
            raise ValueError("bipartite communities need at least 1 pair")
        B = np.zeros((2 * q, 2 * q))
        B[:q, q:] = np.eye(q)
        B[q:, :q] = np.eye(q)
        return RoleMatrix(B)
    if kind == "block_cycle":
        if q < 1:
            raise ValueError("block cycle needs at least 1 role")
        B = np.zeros((q, q))
        for i in range(q):
            B[i, (i + 1) % q] = 1.0
        return RoleMatrix(B)
    raise ValueError(f"unknown structure kind: {kind!r}")


# The fixed signed checkerboard example: a 3-cycle role graph on 6 nodes
# with mixed-sign role indicators.
_SIGNED_EXAMPLE_SIZES = (2, 1, 3)
_SIGNED_EXAMPLE_SIGNS = (1, -1, -1, 1, -1, -1)


def generate_structure(kind: str, sizes=None, perm=None):
    """Generate a ground-truth triple (Adjacency, RoleMatrix, Assignment).

    ``kind`` is one of ``community``, ``overlapping``, ``bipartite_communities``
    (sizes lists all 2q roles), ``block_cycle`` or ``signed_example`` (fixed
    6-node instance; sizes ignored).  The returned role matrix is minimal for
    every kind.
    """
    if kind not in STRUCTURE_KINDS:
        raise ValueError(f"unknown structure kind: {kind!r}")
    if kind == "signed_example":
        B = structure_role_matrix("block_cycle", 3)
        asg = Assignment.from_blocks(_SIGNED_EXAMPLE_SIZES, perm, _SIGNED_EXAMPLE_SIGNS)
        return ideal_adjacency(B, asg), B, asg
    if sizes is None:
        raise ValueError(f"structure kind {kind!r} requires role sizes")
    sizes = [int(s) for s in np.atleast_1d(sizes)]
    if kind == "bipartite_communities":
        if len(sizes) % 2 != 0:
            raise ValueError("bipartite communities need an even number of role sizes")
        B = structure_role_matrix(kind, len(sizes) // 2)
    else:
        B = structure_role_matrix(kind, len(sizes))
    asg = Assignment.from_blocks(sizes, perm)
    return ideal_adjacency(B, asg), B, asg


# ---------------------------------------------------------------------------
# edge-list and ground-truth file formats
# ---------------------------------------------------------------------------

def _format_weight(w: float) -> str:
    if w == int(w):
        return str(int(w))
    return format(w, ".9g")


def write_edge_list(path, A: Adjacency) -> int:
    """Write one "src<TAB>dst[<TAB>weight]" line per nonzero entry, row-major.

    The weight column is omitted for weight 1.  Node ids are 0-based.
    Returns the number of edges written.
    """
    A = as_adjacency(A)
    lines = []
    rows, cols = np.nonzero(A.entries)
    for i, j in zip(rows, cols):
        w = A.entries[i, j]
        if w == 1.0:
            lines.append(f"{i}\t{j}")
        else:
            lines.append(f"{i}\t{j}\t{_format_weight(w)}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def read_edge_list(path, n: int | None = None) -> Adjacency:
    """Read the edge-list format back into an Adjacency.

    The node count is inferred as 1 + the largest id seen unless given; it
    may not exceed :data:`MAX_NODES`.  Raises :class:`EdgeListFormatError`
    (with a line number) on malformed lines, negative ids, ids at or above
    the node limit, non-finite weights and an edge repeated with a different
    weight (naming both lines), and when the file holds no edges at all.
    Repeating an edge with the same weight is allowed.

    A file whose lines all have two columns of plain integers, or all three
    with a weight, is parsed in one vectorized pass: ``np.loadtxt`` reads it
    from its path, in numpy's C tokenizer.  Any other file, and any file
    that fails a check, goes through the per-line parser, which is the one
    source of error messages and line numbers.  Both give the same matrix
    for every file the vectorized pass accepts.  A two-column file has
    weight 1 on every edge, so a repeated edge cannot conflict: its weights
    are not read back, and it is built as ``"unweighted"`` directly.
    """
    if n is not None and int(n) > MAX_NODES:
        raise EdgeListFormatError(
            f"declared node count {int(n)} exceeds the limit of {MAX_NODES} nodes")
    src, dst, w = _parse_edges_vectorized(path) or _parse_edge_lines(path)[:3]
    if src.size == 0:
        raise EdgeListFormatError("no edges found")
    max_id = int(max(src.max(), dst.max()))
    n = (max_id + 1) if n is None else int(n)
    if n <= max_id:
        raise EdgeListFormatError(f"node id {max_id} exceeds declared count {n}")
    M = np.zeros((n, n))
    if w is None:
        M[src, dst] = 1.0
        return Adjacency(M, UNWEIGHTED)
    M[src, dst] = w
    # every edge reads back its own weight, bit for bit, iff no edge is
    # repeated with another weight; then the order of the writes is moot
    if (M[src, dst].view(np.int64) != w.view(np.int64)).any():
        _raise_conflicting_edge(path)
    return Adjacency.from_matrix(M)


def _parse_edge_lines(path):
    """Parse line by line; returns (src, dst, weight, line number) arrays.

    Raises :class:`EdgeListFormatError` at the first line that is malformed,
    has a negative id or one at or above :data:`MAX_NODES`, or a non-finite
    weight.  Blank lines are skipped.
    """
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
    E = np.array(edges, dtype=float).reshape(-1, 4)   # ids and line numbers are exact
    src, dst, line = E[:, [0, 1, 3]].astype(np.int64).T
    return src, dst, E[:, 2], line


#: one line of the three-column format
_WEIGHTED_EDGE = np.dtype([("src", np.int64), ("dst", np.int64), ("w", np.float64)])


#: suffixes that numpy's loadtxt decompresses when it opens a file by name
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".xz", ".lzma")


def _parse_edges_vectorized(path):
    """Parse a file of uniform two- or three-column lines with ``np.loadtxt``.

    ``loadtxt`` gets the file's absolute name, not an open handle: from a
    name its C tokenizer reads the file in blocks, from a handle it pulls
    one Python string per line.  It would fetch a name that looks like a
    URL and decompress one with a compression suffix, so only an existing
    file without such a suffix goes to it, and it reads the bytes ``open``
    reads.

    Returns (src, dst, weight) arrays, with weight None for a two-column
    file (every edge weighs 1, so no repeat can conflict), or None when
    the path is not such a file, or the file has lines of both widths or
    of another width, a field ``loadtxt`` cannot parse (including ones
    Python's ``int`` and ``float`` accept, such as ``1_0``),
    whitespace-only lines, no lines, or an edge the per-line parser would
    reject.  Fields it parses get the values ``int`` and ``float`` give.
    """
    name = os.path.abspath(os.fsdecode(path))
    if not os.path.isfile(name) or os.path.splitext(name)[1] in _COMPRESSED_SUFFIXES:
        return None
    for dtype in (np.int64, _WEIGHTED_EDGE):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # a file without lines warns
                E = np.loadtxt(name, delimiter="\t", dtype=dtype, ndmin=2, comments=None)
        except ValueError:
            continue
        if E.size == 0:
            return None
        if dtype is _WEIGHTED_EDGE:
            src, dst, w = E["src"].ravel(), E["dst"].ravel(), E["w"].ravel()
        elif E.shape[1] == 2:
            src, dst, w = E[:, 0], E[:, 1], None
        else:
            continue   # three integer columns: parse the weights as floats
        if (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= MAX_NODES
                or (w is not None and not np.isfinite(w).all())):
            return None
        return src, dst, w
    return None


def _raise_conflicting_edge(path):
    """Raise at the first line that repeats an edge with another weight."""
    src, dst, w, line = _parse_edge_lines(path)
    seen: dict[tuple[int, int], int] = {}
    for i, key in enumerate(zip(src.tolist(), dst.tolist())):
        j = seen.setdefault(key, i)
        if w[j].tobytes() != w[i].tobytes():
            raise EdgeListFormatError(
                f"edge {key[0]} -> {key[1]} has weight {w[i]:g} here "
                f"but {w[j]:g} at line {line[j]}", int(line[i]))


def write_ground_truth(path, B: RoleMatrix, assignment: Assignment,
                       extra: dict | None = None) -> None:
    """Serialize a ground-truth triple as JSON: {n, q, B row-major, sigma, signs?}."""
    doc = {
        "n": assignment.n,
        "q": B.q,
        "B": [int(v) for v in B.entries.ravel()],
        "sigma": [int(v) for v in assignment.sigma],
    }
    if assignment.signs is not None:
        doc["signs"] = [int(v) for v in assignment.signs]
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def read_ground_truth(path):
    """Read a ground-truth JSON document; returns (RoleMatrix, Assignment)."""
    doc = json.loads(Path(path).read_text())
    q = int(doc["q"])
    B = RoleMatrix(np.asarray(doc["B"], dtype=float).reshape(q, q))
    signs = doc.get("signs")
    asg = Assignment(np.asarray(doc["sigma"], dtype=int),
                     None if signs is None else np.asarray(signs, dtype=float))
    return B, asg
