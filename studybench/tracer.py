"""Span tracing of oscille's public functions, installed from outside.

Each public function of the traced modules is replaced by a wrapper that
records a span (id, name, start, end, parent, thread, error, info). The
replacement is bound in every oscille module that holds the function,
because `study` and `corrector` import `lp_norm`, `extend`, `mollify` and
friends by name and would otherwise keep calling the unwrapped original.
Span stacks are thread-local, so spans opened by `run_study`'s worker
threads are roots of their own thread.

Spans stay in memory; `write_spans` saves them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

LAYERS = ("cell", "linalg", "fem", "smoothing", "corrector", "norms", "mesh", "study", "cli")


def _iterations(result):
    return result[-1].iterations


def _free_dofs(result):
    return int(result.free_dofs.shape[0])


def _cells(result):
    return len(result.cells)


def _offsets(result):
    return len(result[0])


def _bytes_written(result):
    return sum(os.path.getsize(p) for p in result)


# span name -> function of the return value kept as the span's info
INFO = {
    "linalg.solve_saddle": _iterations,
    "linalg.solve_spd": _iterations,
    "fem.assemble": _free_dofs,
    "cell.tabulate_cells": _cells,
    "smoothing.window_weights": _offsets,
    "cli.write_report": _bytes_written,
}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, error, info)
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        info_of = INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            error = None
            info = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if info_of is not None:
                    info = info_of(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, threading.get_ident(), error, info))

        return traced

    def install(self):
        """Wrap every public function of LAYERS and rebind it everywhere."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"oscille.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "oscille" or modname.startswith("oscille.")):
                continue
            for attr, obj in list(vars(module).items()):
                pair = originals.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in self._restore:
            setattr(module, attr, obj)
        self._restore.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span[2]
        for lo, hi in sorted(children.get(span[0], ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[0]] = (span[3] - span[2]) - covered
    return out


# per-layer time metric -> span names whose self times it sums
SELF_TIME = {
    "cell.tabulate_s": ("cell.tabulate_effective", "cell.tabulate_cells",
                        "cell.effective_from_cells", "cell.effective_tensor"),
    "cell.solve_s": ("cell.solve_cell",),
    "linalg.saddle_s": ("linalg.solve_saddle",),
    "linalg.spd_s": ("linalg.solve_spd",),
    "linalg.tridiag_s": ("linalg.solve_tridiag",),
    "fem.solve_s": ("fem.solve_resolvent_stats", "fem.solve_resolvent"),
    "fem.assemble_s": ("fem.assemble",),
    "fem.load_s": ("fem.assemble_load",),
    "corrector.build_r0_s": ("corrector.build_r0",),
    "corrector.apply_s": ("corrector.corrector_apply",),
    "corrector.gradient_s": ("corrector.corrector_gradient", "corrector.corrector_gradient_parts"),
    "norms.lp_s": ("norms.lp_norm",),
    "norms.w1p_s": ("norms.w1p_seminorm", "norms.w1p_norm"),
    "norms.besov_s": ("norms.besov_seminorm", "norms.shift_modulus"),
    "smoothing.extend_s": ("smoothing.extend",),
    "smoothing.mollify_s": ("smoothing.mollify",),
    "study.fit_s": ("study.fit_rate", "study.verdict"),
    "cli.write_report_s": ("cli.write_report",),
}

CORRECTOR_PASSES = {"corrector.corrector_apply", "corrector.corrector_gradient",
                    "corrector.corrector_gradient_parts"}


def layer_metrics(spans):
    """Per-layer self times and counts of one operation's spans."""
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(own[s[0]] for n in names for s in by_name.get(n, ()))

    def info_sum(name):
        return sum(s[7] for s in by_name.get(name, ()) if s[7] is not None)

    out["cell.solves"] = len(by_name.get("cell.solve_cell", ()))
    out["cell.table_entries"] = info_sum("cell.tabulate_cells")
    out["linalg.saddle_iters"] = info_sum("linalg.solve_saddle")
    out["linalg.spd_iters"] = info_sum("linalg.solve_spd")
    out["fem.dofs"] = info_sum("fem.assemble")
    out["norms.lp_calls"] = len(by_name.get("norms.lp_norm", ()))
    out["cli.bytes_written"] = info_sum("cli.write_report")
    out["linalg.failures"] = sum(1 for s in spans if s[1].startswith("linalg.") and s[6] is not None)

    # z offsets evaluated: per corrector pass, the product of the window
    # lengths of the smoothing.window_weights calls it made (one per axis)
    axis_lengths = {}
    for s in by_name.get("smoothing.window_weights", ()):
        if s[7] is not None:
            axis_lengths.setdefault(s[4], []).append(s[7])
    offsets = 0
    for name in CORRECTOR_PASSES:
        for s in by_name.get(name, ()):
            lengths = axis_lengths.get(s[0])
            if lengths:
                prod = 1
                for n in lengths:
                    prod *= n
                offsets += prod
    out["corrector.window_offsets"] = offsets
    out["trace.spans"] = len(spans)
    return out
