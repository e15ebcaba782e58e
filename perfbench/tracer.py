"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every public function of the
entgeo layers at every module attribute that holds it (``projection`` holds
``eig_hermitian`` by name, for instance), plus ``numpy.linalg.eigh`` and
``eigvalsh`` as the ``lapack`` layer. Spans are kept in memory as begin and
end events and aggregated when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "geometry", "projection", "states", "linalg")
LAPACK = ("eigh", "eigvalsh")
# The wrappers append (kind, value) pairs to a flat event list: a span begins
# with (name id, start ns) and ends with (END, end ns); TAG and WORK annotate
# the span that just ended and OP marks the start of an operation. Spans are
# rebuilt from the events when the run ends, which keeps each traced call cheap.
END, TAG, WORK, OP = -1, -2, -3, -4


def _scan_plane_note(args, kwargs, result):
    plane = args[0] if args else kwargs["plane"]
    real = not (np.any(plane.a1.imag) or np.any(plane.a2.imag))
    return ("real_frame" if real else "complex_frame"), int(result.min_eig.size)


def _contours_note(args, kwargs, result):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    return kind, sum(len(line) for line in result)


def _csv_note(args, kwargs, result):
    return None, len(result)


def _lapack_note(args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    return None, int(np.prod(a.shape[:-2], dtype=np.int64))


# Functions whose spans carry a tag (appended to the span name after ':') and
# a work count: cells scanned, contour points, CSV bytes, matrices decomposed.
NOTES = {
    "geometry.scan_plane": _scan_plane_note,
    "geometry.boundary_contours": _contours_note,
    "geometry.grid_to_csv": _csv_note,
    "lapack.eigh": _lapack_note,
    "lapack.eigvalsh": _lapack_note,
}


class Tracer:
    """Records spans while ``recording`` is true; passes calls through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.events: list[int] = []
        self._stored = array("q")
        self.recording = False
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def start_op(self, op: int) -> None:
        self.events += (OP, op)
        self.recording = True

    def stop_op(self) -> None:
        """Stop recording and move this op's events into compact storage."""
        self.recording = False
        self._stored.extend(self.events)
        self.events.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self._name_id(name)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            ev = tracer.events
            ev.append(nid)
            ev.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ev.append(END)
                ev.append(perf_counter_ns())
            if note is not None:
                tag, work = note(args, kwargs, result)
                if tag is not None:
                    ev += (TAG, tracer._name_id(f"{name}:{tag}"))
                ev += (WORK, work)
            return result

        return traced

    def install(self) -> None:
        """Replace every public layer function, wherever a layer module holds it."""
        modules = [importlib.import_module("entgeo")]
        modules += [importlib.import_module(f"entgeo.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(module, attr, wrappers[id(obj)][1])
        for attr in LAPACK:
            self._patch(np.linalg, attr, self._wrap(f"lapack.{attr}", getattr(np.linalg, attr)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def table(self) -> np.ndarray:
        """One row per span: name id, parent row, op id, start ns, end ns, work."""
        cols = [[] for _ in range(6)]
        name, parent, op_col, start, end, work = cols
        stack: list[int] = []
        op = last = -1
        it = iter(self._stored)
        for kind, value in zip(it, it):
            if kind >= 0:
                parent.append(stack[-1] if stack else -1)
                stack.append(len(name))
                name.append(kind)
                op_col.append(op)
                start.append(value)
                end.append(0)
                work.append(0)
            elif kind == END:
                last = stack.pop()
                end[last] = value
            elif kind == TAG:
                name[last] = value
            elif kind == WORK:
                work[last] = value
            else:
                op = value
        return np.array(cols, dtype=np.int64).T.reshape(-1, 6)

    def aggregate(self, t: np.ndarray) -> dict[str, dict[str, float]]:
        """Per span name: calls, self and total seconds, and summed work counts.

        Tagged spans count under their own name ('geometry.scan_plane:real_frame')
        and under the untagged function name.
        """
        if len(t) == 0:
            return {}
        name_id, parent, start, end, work = t[:, 0], t[:, 1], t[:, 3], t[:, 4], t[:, 5]
        duration = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(t))
        self_time = duration - child
        k = len(self.names)
        per_name = {
            "calls": np.bincount(name_id, minlength=k),
            "self_s": np.bincount(name_id, weights=self_time, minlength=k) * 1e-9,
            "total_s": np.bincount(name_id, weights=duration, minlength=k) * 1e-9,
            "work": np.bincount(name_id, weights=work.astype(np.float64), minlength=k),
        }
        out: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            if per_name["calls"][nid] == 0:
                continue
            keys = [name] if ":" not in name else [name, name.split(":", 1)[0]]
            for key in keys:
                entry = out.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0})
                for field, values in per_name.items():
                    entry[field] += values[nid].item()
        return out

    def spans_of_op(self, t: np.ndarray, op: int, limit: int) -> list[list]:
        """The first ``limit`` spans of one operation: [name, parent row, start ns, end ns, work]."""
        rows = t[t[:, 2] == op][:limit]
        return [[self.names[r[0]], int(r[1]), int(r[3]), int(r[4]), int(r[5])] for r in rows.tolist()]
