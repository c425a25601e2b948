"""Span recorder for the traced run.

`Recorder.install` replaces each traced function, in every flatconic module
that binds it, with a wrapper that records a span (name, start, end,
parent, job id, returned normally); `restore` puts the originals back.
Spans stay in memory until `write_spans`. Functions are traced from outside
the program, at the names the calling modules imported them under, so
nothing in `src/` knows about the trace.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

# (defining module, function): the layer boundaries the benchmark reports
TRACED = (
    ("cli", "main"),
    ("surface", "parse_surface"), ("surface", "develop"),
    ("surface", "rebase"), ("surface", "subconic_fits"),
    ("cellcomplex", "build_complex"), ("cellcomplex", "default_seed"),
    ("cellcomplex", "two_cell"), ("cellcomplex", "feasible_region"),
    ("cellcomplex", "rigid_conics"), ("cellcomplex", "matching_from_affine"),
    ("cellcomplex", "frontier_bijection"), ("cellcomplex", "complex_to_json"),
    ("subconic", "conic_through_five"), ("subconic", "strip_direction"),
    ("quadform", "transform_by_affine"), ("geom", "class_key"),
    ("veech", "veech_check"), ("veech", "discover_affine"),
    ("veech", "psi_of_quadruple"), ("veech", "reconstruct"),
    ("veech", "tessellate"), ("render", "render_svg"),
)


def _observe_develop(rec, chart):
    rec.count("surface.develop.placements", len(chart.placements))


def _observe_rigid(rec, conics):
    ellipses = sum(1 for u in conics if u.kind.value == "ellipse-interior")
    rec.count("cellcomplex.rigid_conics.ellipses", ellipses)
    rec.count("cellcomplex.rigid_conics.strips", len(conics) - ellipses)


OBSERVERS = {"surface.develop": _observe_develop,
             "cellcomplex.rigid_conics": _observe_rigid}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []       # (name id, start, end, parent, job, ok)
        self.outer: list = []       # span index -> no same-name ancestor
        self.counters: dict = {}
        self.job = None
        self._stack: list[int] = []
        self._active: list[int] = []
        self._saved: list = []

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        observe = OBSERVERS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append(None)
            rec.outer.append(rec._active[nid] == 0)
            rec._stack.append(idx)
            rec._active[nid] += 1
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                rec._active[nid] -= 1
                rec._stack.pop()
                rec.spans[idx] = (nid, start, end, parent, rec.job, ok)
            if observe is not None:
                observe(rec, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "flatconic" or n.startswith("flatconic.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"flatconic.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Per name: calls, returned (normal returns), inclusive seconds of
        the outermost spans, and self seconds (span minus its children)."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "returned": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i, (nid, start, end, _, _, ok) in enumerate(self.spans):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["returned"] += ok
            entry["self_s"] += end - start - child[i]
            if self.outer[i]:
                entry["s"] += end - start
        return out


def write_spans(path: str, recorders, t0: float) -> None:
    """One CSV row per span of every traced repetition; times from t0."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("rep,index,job,name,start_s,end_s,parent,ok\n")
        for rep, rec in enumerate(recorders):
            for i, (nid, start, end, parent, job, ok) in enumerate(rec.spans):
                fh.write(f"{rep},{i},{job},{rec.names[nid]},{start - t0:.6f},"
                         f"{end - t0:.6f},{parent},{int(ok)}\n")
