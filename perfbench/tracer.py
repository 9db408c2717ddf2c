"""Spans around the program's layers, recorded from outside the program.

The traced run wraps each layer function below and keeps one span per
call in memory: layer, start, end and the enclosing span.  Wrappers are
installed on every `schrijver` module that binds the function (methods on
`SchrijverGraph` itself), so calls the program makes internally, such as
the sweeps inside `diameter_bruteforce`, get spans too; nothing under
`src/` is edited.  Counters are taken from arguments and results at the
same boundaries.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import Counter
from functools import wraps
from time import perf_counter


def _graph_built(counts, args, result):
    counts["graph.vertices"] += len(args[0].vertices)


def _swept(counts, args, result):
    counts["graph.sweeps"] += 1
    counts["graph.bfs.levels"] += int(result.max())


def _probed(counts, args, result):
    counts["graph.sweeps"] += 1
    counts["graph.bfs.levels"] += result.distance or 0


def _orbits(counts, args, result):
    counts["graph.orbits"] += len(result)


def _verified(counts, args, result):
    counts["certificates.verified"] += 1


# Layer name -> (module, attribute, counter taken on each successful call).
# A dotted attribute is a method of a class in that module.
LAYERS = {
    "graph.SchrijverGraph": ("graph", "SchrijverGraph.__init__", _graph_built),
    "cyclic.enumerate_stable_sets": ("cyclic", "enumerate_stable_sets", None),
    "graph.orbit_representatives": ("graph", "SchrijverGraph.orbit_representatives", _orbits),
    "graph.diameter_bruteforce": ("graph", "SchrijverGraph.diameter_bruteforce", None),
    "graph.distances_from": ("graph", "SchrijverGraph.distances_from", _swept),
    "graph.bfs_distance": ("graph", "SchrijverGraph.bfs_distance", _probed),
    "graph.all_distances": ("graph", "SchrijverGraph.all_distances", None),
    "closedform.diameter_formula": ("closedform", "diameter_formula", None),
    "blocks.decompose": ("blocks", "decompose", None),
    "blocks.distance2_criterion": ("blocks", "distance2_criterion", None),
    "blocks.disjoint_middle_vertex": ("blocks", "disjoint_middle_vertex", None),
    "paths.reduce_intersection": ("paths", "reduce_intersection", None),
    "paths.path_via_reduction": ("paths", "path_via_reduction", None),
    "paths.path_dist3": ("paths", "path_dist3", None),
    "lift.bound_path_m_plus_3": ("lift", "bound_path_m_plus_3", None),
    "lift.bound_path_with_trace": ("lift", "bound_path_with_trace", None),
    "certificates.verify_certificate": ("certificates", "verify_certificate", _verified),
    "certificates.certificate_to_json": ("certificates", "certificate_to_json", None),
    "cli.main": ("cli", "main", None),
}

COUNTS = ("graph.vertices", "graph.sweeps", "graph.orbits", "graph.bfs.levels")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: Counter = Counter()
        self._open = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer_id: int, fn, count):
        layer, start, end, parent, open_ = self.layer, self.start, self.end, self.parent, self._open
        counts = self.counts

        @wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(start)
            layer.append(layer_id)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return spanned

    def install(self) -> None:
        """Wrap every layer; `uninstall` puts the originals back."""
        import schrijver  # here, so run.py can import this before finding src/

        modules = [
            m for name, m in sys.modules.items()
            if name == "schrijver" or name.startswith("schrijver.")
        ]
        for layer_id, (modname, attr, count) in enumerate(LAYERS.values()):
            module = getattr(schrijver, modname)
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(module, clsname)
                fn = cls.__dict__[meth]
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(layer_id, fn, count))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(layer_id, fn, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._undo.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, fn = self._undo.pop()
            setattr(owner, key, fn)

    def self_times(self, pass_start: int):
        """Per-layer calls and self time, over all spans and over the pass.

        Self time is a span's duration minus the durations of its direct
        children.  Spans from index `pass_start` on belong to the traced
        pass; `covered` is the time its top-level spans cover.
        """
        count = len(self.start)
        child = [0.0] * count
        calls = [0] * len(self.names)
        self_all = [0.0] * len(self.names)
        self_pass = [0.0] * len(self.names)
        covered = 0.0
        for idx in range(count - 1, -1, -1):
            dur = self.end[idx] - self.start[idx]
            own = dur - child[idx]
            layer = self.layer[idx]
            calls[layer] += 1
            self_all[layer] += own
            if idx >= pass_start:
                self_pass[layer] += own
            up = self.parent[idx]
            if up >= 0:
                child[up] += dur
            elif idx >= pass_start:
                covered += dur
        return calls, self_all, self_pass, covered

    def write(self, path) -> None:
        """Write every span as gzipped JSON, times in microseconds from the first span."""
        origin = self.start[0] if self.start else 0.0
        data = {
            "layers": self.names,
            "columns": ["layer", "start_us", "end_us", "parent"],
            "layer": self.layer.tolist(),
            "start_us": [round((t - origin) * 1e6) for t in self.start],
            "end_us": [round((t - origin) * 1e6) for t in self.end],
            "parent": self.parent.tolist(),
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))

