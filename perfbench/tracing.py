"""Spans around rolekit's public functions, recorded from outside the package.

:class:`Tracer` replaces each traced function in every rolekit module that
binds it (so calls between modules, and a module's calls to its own public
names, are seen) with a wrapper that records a span: name, start, end,
parent span and operation id.  The spans stay in memory until the
benchmark writes them out.  ``installed()`` puts the originals back on exit,
also when the operation raises.
"""

from __future__ import annotations

import contextlib
import functools
import time

import rolekit
from rolekit import cli, extract, graphcore, lowrank, similarity, spectra

MODULES = (rolekit, graphcore, similarity, lowrank, extract, spectra, cli)

#: span name -> (home module, attribute)
TRACED = {
    "cli.main": (cli, "main"),
    "graphcore.read_edge_list": (graphcore, "read_edge_list"),
    "similarity.beta_bound": (similarity, "beta_bound"),
    "similarity.fixed_point": (similarity, "fixed_point"),
    "similarity.gamma": (similarity, "gamma"),
    "lowrank.lowrank_iterate": (lowrank, "lowrank_iterate"),
    "extract.extract_roles": (extract, "extract_roles"),
    "extract.cluster_rows": (extract, "cluster_rows"),
    "extract.reconstruct_B": (extract, "reconstruct_B"),
    "extract.extraction_cost": (extract, "extraction_cost"),
    "spectra.spectrum_report": (spectra, "spectrum_report"),
}


def _observe(name: str, result) -> dict:
    """What a span keeps of its function's return value."""
    if name == "lowrank.lowrank_iterate":
        return {"rank": int(result.r), "steps": int(result.k)}
    if name == "similarity.fixed_point":
        return {"steps": int(result.k)}
    if name == "extract.extract_roles":
        return {"method": result.params["method"]}
    return {}


class Tracer:
    """Collects spans of the operations run while it is installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._op = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self._op,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span.update(_observe(name, result))
                return result
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
        return traced

    @contextlib.contextmanager
    def installed(self, op_id):
        """Trace every call made inside the block as part of operation ``op_id``."""
        replaced = []
        try:
            for name, (home, attr) in TRACED.items():
                original = getattr(home, attr)
                wrapper = self._wrap(name, original)
                for module in MODULES:
                    if module.__dict__.get(attr) is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
            self._op = op_id
            yield self
        finally:
            self._op = None
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Calls run on one thread, so children of one span never overlap and the
    time they cover is the sum of their durations.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
