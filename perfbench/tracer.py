"""Spans and counts around the shamans layers, recorded from outside.

``Tracer`` replaces the public functions listed in ``TARGETS`` with
timing wrappers wherever a ``shamans`` module binds them (a function
imported with ``from .x import f`` is bound in both modules), and puts
the originals back on exit.  Spans (name, start, end, parent) and counts
stay in memory; ``layer_metrics`` folds one traced pipeline into the
per-layer metrics and ``dump`` writes every span out at the end.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# Layer -> functions wrapped as module attributes of shamans.<layer>.
TARGETS = {
    "cli": ("read_csv_matrix", "write_csv_matrix", "write_report_json",
            "export_abundance_maps"),
    "mnnls": ("solve", "metrics"),
    "densela": ("gram", "spd_factor"),
    "homotopy": ("regularization_path", "path_coefficients", "next_breakpoint"),
    "nnls": ("nnls_gram", "nnls_active_set"),
    "selector": ("build_cost_tables", "init_gain", "select", "select_step",
                 "assemble"),
}

# Per-layer metric -> unit.  Times are seconds summed over one pipeline.
UNITS = {
    "homotopy.path_s": "s",
    "homotopy.self_s": "s",
    "homotopy.breakpoints": "count",
    "homotopy.breakpoints_per_col_max": "count",
    "homotopy.us_per_breakpoint": "us",
    "homotopy.coefficients_s": "s",
    "homotopy.next_breakpoint_s": "s",
    "homotopy.truncated_columns": "count",
    "nnls.refit_calls": "count",
    "nnls.refit_s": "s",
    "nnls.refit_ratio": "ratio",
    "nnls.fallback_columns": "count",
    "densela.spd_factor_calls": "count",
    "densela.spd_factor_s": "s",
    "densela.gram_s": "s",
    "selector.tables_s": "s",
    "selector.init_s": "s",
    "selector.select_s": "s",
    "selector.select_steps": "count",
    "selector.us_per_step": "us",
    "selector.assemble_s": "s",
    "selector.overshoot": "count",
    "cli.read_s": "s",
    "cli.read_mb_per_s": "MB/s",
    "cli.input_mb": "MB",
    "cli.write_s": "s",
    "mnnls.solve_s": "s",
    "mnnls.self_s": "s",
    "mnnls.metrics_s": "s",
}


def shamans_attributes() -> dict:
    """Identity of every attribute of every loaded shamans module."""
    return {(name, attr): id(value) for name, mod in list(sys.modules.items())
            if name == "shamans" or name.startswith("shamans.")
            for attr, value in vars(mod).items()}


class Tracer:
    """Context manager that traces calls into shamans while active."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def __enter__(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"shamans.{layer}")
            for name in names if module is not None else ():
                fn = getattr(module, name, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "shamans" and not mod_name.startswith("shamans."):
                continue
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            observe(name, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name, args, kwargs, result):
        c = self.counts
        if name == "homotopy.regularization_path":
            steps = len(result.entries) - 1
            c["breakpoints"] += steps
            c["breakpoints_per_col_max"] = max(c["breakpoints_per_col_max"], steps)
            c["truncated"] += bool(result.truncated)
        elif name == "selector.select_step":
            c["select_steps"] += result is not None
        elif name == "selector.select":
            q = args[2] if len(args) > 2 else kwargs["q"]
            c["overshoot"] += int(result.sum()) - int(q)
        elif name == "cli.read_csv_matrix":
            c["input_bytes"] += os.path.getsize(args[0])

    def mark(self):
        """Start a pipeline: reset the counts, return its first span index."""
        self.counts.clear()
        return len(self.spans)

    def layer_metrics(self, since=0) -> dict:
        """Per-layer metrics of the spans recorded after ``since``."""
        total = defaultdict(float)  # inclusive time per span name
        own = defaultdict(float)  # self time per span name
        calls = defaultdict(int)
        refit_s, refit_calls = 0.0, 0
        spans = self.spans
        for idx in range(since, len(spans)):
            name, start, end, parent = spans[idx]
            dur = end - start
            total[name] += dur
            own[name] += dur
            calls[name] += 1
            if parent >= since:
                own[spans[parent][0]] -= dur
                if name == "nnls.nnls_gram" and spans[parent][0] != "nnls.nnls_active_set":
                    refit_s += dur
                    refit_calls += 1
        c = self.counts
        breakpoints = c["breakpoints"]
        steps = c["select_steps"]
        read_s = total["cli.read_csv_matrix"]
        input_mb = c["input_bytes"] / 1e6
        out = {
            "homotopy.path_s": total["homotopy.regularization_path"],
            "homotopy.self_s": own["homotopy.regularization_path"],
            "homotopy.breakpoints": breakpoints,
            "homotopy.breakpoints_per_col_max": c["breakpoints_per_col_max"],
            "homotopy.us_per_breakpoint":
                total["homotopy.regularization_path"] / breakpoints * 1e6 if breakpoints else 0.0,
            "homotopy.coefficients_s": total["homotopy.path_coefficients"],
            "homotopy.next_breakpoint_s": total["homotopy.next_breakpoint"],
            "homotopy.truncated_columns": c["truncated"],
            "nnls.refit_calls": refit_calls,
            "nnls.refit_s": refit_s,
            "nnls.refit_ratio": refit_calls / breakpoints if breakpoints else 0.0,
            "nnls.fallback_columns": calls["nnls.nnls_active_set"],
            "densela.spd_factor_calls": calls["densela.spd_factor"],
            "densela.spd_factor_s": total["densela.spd_factor"],
            "densela.gram_s": total["densela.gram"],
            "selector.tables_s": total["selector.build_cost_tables"],
            "selector.init_s": total["selector.init_gain"],
            "selector.select_s": total["selector.select"],
            "selector.select_steps": steps,
            "selector.us_per_step": total["selector.select"] / steps * 1e6 if steps else 0.0,
            "selector.assemble_s": total["selector.assemble"],
            "selector.overshoot": c["overshoot"],
            "cli.read_s": read_s,
            "cli.read_mb_per_s": input_mb / read_s if read_s else 0.0,
            "cli.input_mb": input_mb,
            "cli.write_s": total["cli.write_csv_matrix"] + total["cli.write_report_json"]
                           + total["cli.export_abundance_maps"],
            "mnnls.solve_s": total["mnnls.solve"],
            "mnnls.self_s": own["mnnls.solve"],
            "mnnls.metrics_s": total["mnnls.metrics"],
        }
        return out

    def dump(self, path) -> None:
        """Write every span as a tab-separated line: name, start, end, parent."""
        with open(path, "wt", encoding="ascii") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
