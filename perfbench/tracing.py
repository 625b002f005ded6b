"""Per-layer spans for a traced benchmark run, recorded from outside the library.

`Tracer.install` wraps the functions listed in LAYERS.  It rebinds every
name that refers to a wrapped function: the defining module, the
`from .x import y` aliases in other reflector modules and in the package
itself, and the attributes of reflector classes, so a call reaches the
wrapper whichever binding it goes through.  Spans stay in memory as
(name, start, end, parent, item, work) tuples and are written once, at the
end of the run.  A layer's self time is its span time minus the time its
direct child spans cover.

Leaf helpers that run in inner loops (matrix products, `DiscriminantForm.q`,
`Lattice.norm`) are not wrapped: a span costs about as much as one of their
calls, so their time would be mostly the tracer's own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Layer:
    module: str  # reflector submodule
    path: str  # attribute path inside it, "Class.method" for methods
    name: str  # metric prefix, <module>.<function>
    work: tuple[str, Callable] | None = None  # (stat, count from (args, result))
    calls_stat: str = "calls"


def _order(args, result) -> int:
    return args[0].order()


LAYERS = [
    Layer("catalog", "Catalog.parse", "catalog.parse"),
    Layer("catalog", "definite_part", "catalog.definite_part"),
    Layer("classify", "verdict_table", "classify.verdict_table"),
    Layer("classify", "classify", "classify.classify"),
    Layer("classify", "classify_symbolic", "classify.classify_symbolic"),
    Layer("classify", "eliminate_case", "classify.eliminate_case"),
    Layer("classify", "verify_construction", "classify.verify_construction"),
    Layer("classify", "class_number", "classify.class_number", ("classes", lambda a, r: r)),
    Layer("cli", "main", "cli.main"),
    Layer("discforms", "DiscriminantForm.milgram_octant", "discforms.milgram_octant",
          ("elements", _order)),
    Layer("discforms", "DiscriminantForm.count_norm", "discforms.count_norm",
          ("elements", _order)),
    Layer("discforms", "genus_symbol", "discforms.genus_symbol"),
    Layer("discforms", "isotropic_subgroups", "discforms.isotropic_subgroups",
          ("found", lambda a, r: len(r))),
    Layer("discforms", "even_overlattices", "discforms.even_overlattices",
          ("returned", lambda a, r: len(r))),
    Layer("etaq", "f_series", "etaq.f_series"),
    Layer("etaq", "s_transform", "etaq.s_transform"),
    Layer("intmat", "matrix_rank", "intmat.matrix_rank"),
    Layer("intmat", "invert", "intmat.invert"),
    Layer("intmat", "determinant", "intmat.determinant"),
    Layer("intmat", "congruent_diagonal", "intmat.congruent_diagonal"),
    Layer("intmat", "smith_normal_form", "intmat.smith_normal_form"),
    Layer("intmat", "row_hermite_form", "intmat.row_hermite_form"),
    Layer("intmat", "ldl_decomposition", "intmat.ldl_decomposition"),
    Layer("lattices", "Lattice.__post_init__", "lattices.Lattice", calls_stat="built"),
    Layer("reflcheck", "check_candidate", "reflcheck.check_candidate",
          ("passed", lambda a, r: int(r.passed))),
    Layer("reflcheck", "solve_candidates", "reflcheck.solve_candidates",
          ("rays", lambda a, r: int(r.status == "ray"))),
    Layer("roots", "short_vectors", "roots.short_vectors",
          ("vectors", lambda a, r: sum(len(v) for v in r.values()))),
    Layer("roots", "root_components", "roots.root_components"),
    Layer("towers", "verify_all", "towers.verify_all"),
    Layer("towers", "replay_tower", "towers.replay_tower"),
    Layer("towers", "replay_transfer", "towers.replay_transfer"),
]

# useful outcomes over attempts: (ratio, numerator layer, denominator layer);
# the denominator counts only spans whose direct parent is a numerator span
YIELDS = [
    ("discforms.even_overlattices.yield", "discforms.even_overlattices",
     "discforms.isotropic_subgroups"),
    ("classify.class_number.yield", "classify.class_number", "discforms.even_overlattices"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer.name}.{layer.calls_stat}"] = "count"
        units[f"{layer.name}.self_s"] = "s"
        if layer.work:
            units[f"{layer.name}.{layer.work[0]}"] = "count"
    for name, _, _ in YIELDS:
        units[name] = "ratio"
    units["trace.spans"] = "count"
    units["trace.pass_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _reflector_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "reflector" or name.startswith("reflector.")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = -1  # id of the item being run, stamped on each span
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            count = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    count = work(args, result)
                return result
            finally:
                spans[index] = (name_id, start, perf_counter(), parent, self.item, count)
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = _reflector_modules()
        classes = {id(v): v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("reflector.")}
        for name_id, layer in enumerate(LAYERS):
            owner = importlib.import_module(f"reflector.{layer.module}")
            for part in layer.path.split("."):
                orig = getattr(owner, part)
                owner = orig
            wrapper = self._wrap(orig, name_id, layer.work[1] if layer.work else None)
            for holder in modules + list(classes.values()):
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, wrapper)
                        self._undo.append((holder, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    def metrics(self, passes: int, seconds) -> dict[str, float]:
        """Per-layer totals divided by the number of traced passes.

        `seconds(start, end)` turns a span's perf_counter times into seconds.
        """
        n = len(LAYERS)
        calls, self_s, work = [0] * n, [0.0] * n, [0] * n
        durations = [seconds(start, end) for _, start, end, _, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for span, duration in zip(self.spans, durations):
            if span[3] >= 0:
                covered[span[3]] += duration
        for index, (name_id, _, _, _, _, count) in enumerate(self.spans):
            calls[name_id] += 1
            self_s[name_id] += durations[index] - covered[index]
            work[name_id] += count
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer.name}.{layer.calls_stat}"] = calls[i] / passes
            out[f"{layer.name}.self_s"] = self_s[i] / passes
            if layer.work:
                out[f"{layer.name}.{layer.work[0]}"] = work[i] / passes
        ids = {layer.name: i for i, layer in enumerate(LAYERS)}
        for ratio, top, below in YIELDS:
            top_id, below_id = ids[top], ids[below]
            attempts = sum(s[5] for s in self.spans
                           if s[0] == below_id and s[3] >= 0 and self.spans[s[3]][0] == top_id)
            out[ratio] = work[top_id] / attempts if attempts else 0.0
        out["trace.spans"] = len(self.spans) / passes
        return out

    def write(self, path) -> None:
        doc = {
            "names": [layer.name for layer in LAYERS],
            "fields": ["name", "start", "end", "parent", "item", "work"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
