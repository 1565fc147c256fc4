"""Workload process: run one study repeatedly, gate every result, report.

Started by run.py as `python3 studybench/worker.py <spec.json>` with
`src` on PYTHONPATH and the BLAS thread pools pinned to one thread. The
spec names the generated config, the entry point (`run_study` or the CLI
`study` command), the thread count, the run length and the reference
values of the correctness gate. The result is written as JSON to the
spec's `result` path.

Operations run serially in a closed loop: the next starts when the
previous one has finished, as long as it can be expected to end within
`seconds` (at least one operation). With `trace` set, untraced and traced operations alternate,
so the traced run also measures its own overhead. In an untraced run the
calibration kernel (calib.Ticker) is timed every calib.TICK_S seconds
during the operations, and each operation keeps the samples taken while it
ran.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np

import scipy
from oscille import cell, cli, mesh, study

import calib
from tracer import Tracer, layer_metrics

A0_REL_TOL = 1e-3
SLOPE_TOL = 5e-4


def closed_form_a0(preset, params, x1):
    """A0 of the shipped presets, which are laminates in y1.

    For a = g(x1) * (c + amp * sin 2 pi y1), A0 = g(x1) * diag(sqrt(c^2 - amp^2), c)
    with g = 1 + slope * x1 (g = 1 for Sine1D).
    """
    c, amp = params[0], params[1]
    g = 1.0 + params[2] * x1 if preset == "LocallyPeriodic2D" else np.ones_like(x1)
    harmonic = math.sqrt(c * c - amp * amp)
    if preset == "Sine1D":
        return (g * harmonic)[:, None, None]
    out = np.zeros(x1.shape + (2, 2))
    out[..., 0, 0] = g * harmonic
    out[..., 1, 1] = g * c
    return out


def a0_miss(eff, preset, params):
    """Largest relative miss of the tabulated A0 against the closed form."""
    x1 = eff.x_axes[0]
    want = closed_form_a0(preset, params, x1)
    got = eff.tensors
    if got.ndim == 4:  # 2D table: (n1, n2, 2, 2); the closed form depends on x1 only
        want = want[:, None, :, :]
    miss = np.abs(got - want).max(axis=(-2, -1))
    scale = np.abs(want).max(axis=(-2, -1))
    return float((miss / scale).max())


def read_rates(path):
    """Rows of rates.csv as (target, error, slope, verdict) strings."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = []
    for line in lines[1:]:
        target, _eps, _h, error, slope, verdict = line.split(",")
        rows.append((target, error, slope, verdict))
    return rows


def gate(spec, csv_path, eff, exit_code):
    """Reasons the operation's result is wrong; empty when it is correct."""
    reasons = []
    if exit_code not in (None, 0):
        reasons.append(f"cli exit code {exit_code}")
    slopes = {}
    for target, error, slope, verdict in read_rates(csv_path):
        if not math.isfinite(float(error)) or float(error) <= 0.0:
            reasons.append(f"{target}: error {error}")
        if slope == "NA" or not math.isfinite(float(slope)):
            reasons.append(f"{target}: slope {slope}")
        else:
            slopes[target] = float(slope)
        if verdict != "PASS":
            reasons.append(f"{target}: verdict {verdict}")
    for target, want in (spec["reference_slopes"] or {}).items():
        got = slopes.get(target)
        if got is None or abs(got - want) > SLOPE_TOL:
            reasons.append(f"{target}: slope {got} differs from reference {want}")
    if eff is None:
        reasons.append("no A0 table was tabulated")
    else:
        miss = a0_miss(eff, spec["preset"], spec["params"])
        if not miss <= A0_REL_TOL:
            reasons.append(f"A0 misses the closed form by {miss:.2e} relative")
    # rates.csv repeats a target's slope and verdict on each of its eps rows
    return list(dict.fromkeys(reasons)), slopes


def versions():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """One study operation of the spec, with the A0 table it tabulated."""

    def __init__(self, spec):
        self.spec = spec
        self.eff = None
        tabulate = cell.tabulate_effective

        @functools.wraps(tabulate)
        def capture(*args, **kwargs):
            eff, table = tabulate(*args, **kwargs)
            self.eff = eff
            return eff, table

        # study reaches tabulation as cell.tabulate_effective, so rebinding
        # the module attribute sees every table without touching the program;
        # the tracer wraps this stand-in under the original's name
        cell.tabulate_effective = capture
        if spec["entry"] == "run_study":
            self.scenario = cli.load_scenario(spec["config"])

    def run(self, out_dir):
        """Run once; returns the CLI exit code (None for run_study)."""
        self.eff = None
        if self.spec["entry"] == "cli":
            argv = ["study", "--config", self.spec["config"], "--out", out_dir,
                    "--threads", str(self.spec["threads"])]
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        self.report = study.run_study(self.scenario, threads=self.spec["threads"])
        return None

    def write_rates(self, out_dir):
        if self.spec["entry"] == "run_study":
            cli.write_report(self.report, out_dir)
        return os.path.join(out_dir, "rates.csv")


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    work = Workload(spec)
    tracer = Tracer() if spec["trace"] else None
    quad_cache = mesh._quadrature_cached
    out_dir = os.path.join(spec["work_dir"], "out")
    ops = []
    ticker = None if tracer else calib.Ticker()
    if ticker:
        ticker.start()
    begin = time.perf_counter()
    while True:
        traced = bool(tracer) and len(ops) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        first_span = len(tracer.spans) if tracer else 0
        cache_before = quad_cache.cache_info()
        if traced:
            tracer.install()
        error = None
        exit_code = None
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            exit_code = work.run(out_dir)
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        if traced:
            tracer.uninstall()
        cache_after = quad_cache.cache_info()
        op = {
            "traced": traced,
            "study_s": wall,
            "cpu_s": cpu,
            "quadrature_hits": cache_after.hits - cache_before.hits,
            "quadrature_misses": cache_after.misses - cache_before.misses,
        }
        if ticker:
            op["kernel_s"] = ticker.between(wall0, wall0 + wall)
        if error is not None:
            op["reasons"] = [error]
        elif not os.path.isfile(csv_path := work.write_rates(out_dir)):
            op["reasons"] = [f"no rates.csv written (exit code {exit_code})"]
        else:
            op["reasons"], op["slopes"] = gate(spec, csv_path, work.eff, exit_code)
            op["rates_sha256"] = digest(csv_path)
        if traced:
            op["layers"] = layer_metrics(tracer.spans[first_span:])
        ops.append(op)
        # start another operation only if one more of the longest so far
        # still ends within the run's seconds; a traced run needs one of each
        elapsed = time.perf_counter() - begin
        longest = max(o["study_s"] for o in ops)
        enough_kinds = not tracer or len(ops) >= 2
        if elapsed + longest > spec["seconds"] and enough_kinds:
            break
    if ticker:
        ticker.stop()
    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
    }
    if tracer:
        tracer.write_spans(os.path.join(spec["work_dir"], "spans.jsonl"))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
