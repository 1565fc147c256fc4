"""Command-line entry point: studies, cell solves, lemma suites, audits.

Commands
  study           run a convergence study from a JSON config
  cell            solve one cell problem and print the effective tensor
  suite-smoothing sweep the smoothing-operator estimates
  suite-strip     sweep the boundary-strip inequality
  audit           randomized ellipticity audit of a preset

Exit codes: 0 every verdict PASSes, 1 some verdict failed or a target has
no fit (NotApplicable: its errors sit at solver noise level, so nothing
was verified; summary.txt names it), 2 usage or config error
(`core.ConfigError`), 3 numerical failure (`core.NumericalError`).
Any other exception is a bug and ends in a traceback. CSV output is
byte-identical across runs on the same platform for the same config.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import cell as cell_mod
from . import core, norms, smoothing, study
from .core import ConfigError
from .mesh import build_cell_mesh

_SCENARIO_KEYS = {
    "field",
    "domain",
    "bc",
    "mu",
    "p",
    "s",
    "s_plus",
    "epsilons",
    "points_per_period",
    "interior_margin",
}
_FIELD_KEYS = {"preset_id", "params", "dim"}
_BC_KEYS = {"kind", "dirichlet_edges"}


def _object(d, keys, where, optional=()):
    """Check that d is a JSON object with every key of keys and no key outside keys and optional."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    unknown = set(d) - keys - set(optional)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = keys - set(d)
    if missing:
        raise ConfigError(f"missing {where} keys: {sorted(missing)}")
    return d


def _typed(v, where, kind, types):
    # bool is an int subclass, but true is not a number
    if isinstance(v, bool) or not isinstance(v, types):
        raise ConfigError(f"{where} must be {kind}, got {v!r}")
    return v


def _number(v, where):
    try:
        return float(_typed(v, where, "a number", (int, float)))
    except OverflowError:
        raise ConfigError(f"{where} is too large, got {v!r}") from None


def _string(v, where):
    return _typed(v, where, "a string", str)


def _list(v, where, item):
    return tuple(item(x, f"entries of {where}") for x in _typed(v, where, "a list", list))


def scenario_from_dict(cfg):
    """Strict JSON-to-Scenario mapping; unknown keys and wrong types are errors."""
    _object(cfg, _SCENARIO_KEYS, "scenario")
    fcfg = _object(cfg["field"], _FIELD_KEYS, "field")
    field = core.preset_coefficient(
        _string(fcfg["preset_id"], "field.preset_id"),
        _list(fcfg["params"], "field.params", _number),
        _typed(fcfg["dim"], "field.dim", "an integer", int),
    )
    bcfg = _object(cfg["bc"], {"kind"}, "bc", optional=_BC_KEYS)
    edges = _list(bcfg.get("dirichlet_edges", []), "bc.dirichlet_edges", _string)
    bc = core.BoundarySpec(_string(bcfg["kind"], "bc.kind"), edges)
    return core.Scenario(
        field=field,
        domain=_list(cfg["domain"], "domain", lambda ax, _: _list(ax, "domain axes", _number)),
        bc=bc,
        mu=_number(cfg["mu"], "mu"),
        p=_number(cfg["p"], "p"),
        s=_number(cfg["s"], "s"),
        s_plus=_number(cfg["s_plus"], "s_plus"),
        epsilons=_list(cfg["epsilons"], "epsilons", _number),
        points_per_period=_typed(cfg["points_per_period"], "points_per_period", "an integer", int),
        interior_margin=_number(cfg["interior_margin"], "interior_margin"),
    )


def load_scenario(path, eps_override=None, ppp_override=None):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # a missing file, bad JSON or bad UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config root must be an object, got {cfg!r}")
    if eps_override is not None:
        cfg["epsilons"] = eps_override
    if ppp_override is not None:
        cfg["points_per_period"] = ppp_override
    return scenario_from_dict(cfg)


def _fmt(v):
    return f"{v:.12g}"


def write_report(report, out_dir, plot=False):
    """Write rates.csv, summary.txt and optional per-target SVG plots."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    csv_path = os.path.join(out_dir, "rates.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("target,eps,h,error,slope,verdict\n")
        for t in report.targets:
            fit = report.fits[t.name]
            slope = _fmt(fit.slope) if fit is not None else "NA"
            v = report.verdicts[t.name]
            for r in report.rows:
                fh.write(
                    f"{t.name},{_fmt(r.eps)},{_fmt(r.h)},{_fmt(r.errors[t.name])},{slope},{v}\n"
                )
    written.append(csv_path)
    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(study.summarize(report))
    written.append(summary_path)
    if plot:
        for t in report.targets:
            pts = [(r.eps, r.errors[t.name]) for r in report.rows if not r.excluded[t.name]]
            if len(pts) < 3:
                continue
            path = os.path.join(out_dir, f"rates_{t.name}.svg")
            _svg_loglog(path, t, pts, report.fits[t.name])
            written.append(path)
    return written


def _svg_loglog(path, target, pts, fit):
    """Minimal deterministic log-log scatter with the fitted line."""
    w, h, m = 480, 360, 50
    xs = [math.log10(p[0]) for p in pts]
    ys = [math.log10(p[1]) for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-12:
        y1 = y0 + 1.0
    pad_y = 0.08 * (y1 - y0)
    y0, y1 = y0 - pad_y, y1 + pad_y

    def sx(x):
        return m + (x - x0) / (x1 - x0) * (w - 2 * m)

    def sy(y):
        return h - m - (y - y0) / (y1 - y0) * (h - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="black"/>',
    ]
    if fit is not None:
        ln_slope = fit.slope
        # fitted line in natural-log space: ln e = slope*ln eps + b; convert to log10
        b10 = fit.intercept / math.log(10.0)
        ya = ln_slope * x0 + b10
        yb = ln_slope * x1 + b10
        parts.append(
            f'<line x1="{sx(x0):.2f}" y1="{sy(ya):.2f}" x2="{sx(x1):.2f}" y2="{sy(yb):.2f}" '
            f'stroke="#888" stroke-dasharray="4 3"/>'
        )
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="#1f77b4"/>')
    slope_txt = f"slope {fit.slope:.3f}" if fit is not None else "no fit"
    parts.append(
        f'<text x="{w / 2:.0f}" y="20" text-anchor="middle" font-size="14">'
        f"{target.name}: {slope_txt} (guaranteed {target.guaranteed_exponent:g})</text>"
    )
    parts.append(
        f'<text x="{w / 2:.0f}" y="{h - 12}" text-anchor="middle" font-size="12">log10 eps</text>'
    )
    parts.append(
        f'<text x="14" y="{h / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {h / 2:.0f})">log10 error</text>'
    )
    for xv in sorted(set(xs)):
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{h - m + 16}" text-anchor="middle" font-size="10">'
            f"{xv:.2f}</text>"
        )
    parts.append(f'<text x="{m - 6}" y="{sy(y0):.2f}" text-anchor="end" font-size="10">{y0:.2f}</text>')
    parts.append(f'<text x="{m - 6}" y="{sy(y1):.2f}" text-anchor="end" font-size="10">{y1:.2f}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _floats(text, flag):
    """A comma-separated list of finite numbers from a command-line flag."""
    try:
        values = [float(t) for t in text.split(",")]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise ConfigError(f"{flag} must be comma-separated finite numbers, got {text!r}")


def _cmd_study(args):
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    eps = _floats(args.eps, "--eps") if args.eps is not None else None
    scenario = load_scenario(args.config, eps_override=eps, ppp_override=args.ppp)
    try:  # before the study, so an unusable --out is a config error, not a lost run
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.out!r}: {exc.strerror}") from None
    report = study.run_study(scenario, threads=args.threads)
    files = write_report(report, args.out, plot=args.plot)
    sys.stdout.write(study.summarize(report))
    sys.stdout.write("wrote: " + ", ".join(files) + "\n")
    return 0 if report.all_passed else 1


def _cmd_cell(args):
    field = core.preset_coefficient(args.preset, _floats(args.params, "--params"), args.dim)
    dim = field.dim
    m = args.m if args.m is not None else cell_mod.default_cell_m(dim)
    cmesh = build_cell_mesh(m, dim)
    x = _floats(args.x, "--x") if args.x is not None else [0.0] * dim
    if len(x) != dim:
        raise ConfigError(f"--x needs {dim} coordinates for {args.preset}, got {args.x!r}")
    tensor = cell_mod.solve_cell(field, x, cmesh).a0
    if dim == 1:
        sys.stdout.write(f"A0 = {tensor[0, 0]:.6g}\n")
    else:
        sys.stdout.write(
            "A0 =\n"
            + "\n".join("  " + "  ".join(f"{tensor[i, j]: .6g}" for j in range(dim)) for i in range(dim))
            + "\n"
        )
    return 0


def _cmd_suite_smoothing(args):
    report = smoothing.smoothing_lemma_suite()
    for c in report.checks:
        status = "ok " if c.passed else "FAIL"
        ratios = ", ".join(f"{r:.4g}" for r in c.ratios)
        sys.stdout.write(f"[{status}] {c.lemma:<22} {c.sample:<10} ratios: {ratios}\n")
    iso = smoothing.isometry_check()
    for name, eps, lhs, rhs, rel in iso:
        sys.stdout.write(
            f"[{'ok ' if rel <= smoothing.ISOMETRY_TOL else 'FAIL'}] isometry {name:<14} eps={eps:<8g} defect={rel:.3e}\n"
        )
    return 0 if report.all_passed and all(row[4] <= smoothing.ISOMETRY_TOL for row in iso) else 1


def _cmd_suite_strip(args):
    sweeps = norms.strip_lemma_suite()
    for sweep in sweeps:
        sys.stdout.write(f"[{'ok ' if sweep.passed else 'FAIL'}] d={sweep.dim} {sweep.sample}:\n")
        for i, row in enumerate(sweep.rows):
            step = f" step={sweep.steps[i - 1]:.3f}" if i else ""
            sys.stdout.write(
                f"  eps={row.eps:<9g} strip={row.strip_norm:.4e} "
                f"pred={row.predictor:.4e} ratio={row.ratio:.4f}{step}\n"
            )
    return 0 if all(sweep.passed for sweep in sweeps) else 1


def _cmd_audit(args):
    field = core.preset_coefficient(args.preset, _floats(args.params, "--params"), args.dim)
    audit = core.audit_ellipticity(field, args.samples, seed=args.seed)
    sys.stdout.write(
        f"min_eig={audit.min_eig:.6g} (certified {field.c_a:g})\n"
        f"max_eig={audit.max_eig:.6g} (certified {field.norm_inf:g})\n"
        f"lipschitz_estimate={audit.lipschitz_estimate:.6g} (certified {field.lipschitz_x:g})\n"
    )
    for kind, point, value in audit.violations:
        sys.stdout.write(f"VIOLATION {kind} at {point}: {value:.6g}\n")
    return 0 if not audit.violations else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="oscille", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    st = sub.add_parser("study", help="run a convergence study from a JSON config")
    st.add_argument("--config", required=True)
    st.add_argument("--out", required=True)
    st.add_argument("--threads", type=int, default=1, help="eps cases run in parallel (default 1)")
    st.add_argument("--plot", action="store_true")
    st.add_argument("--eps", default=None, help="comma-separated override of the eps sweep")
    st.add_argument("--ppp", type=int, default=None, help="points per period override")
    st.set_defaults(fn=_cmd_study)

    ce = sub.add_parser("cell", help="solve one cell problem, print the effective tensor")
    ce.add_argument("--preset", required=True)
    ce.add_argument("--params", required=True)
    ce.add_argument("--m", type=int, default=None)
    ce.add_argument("--dim", type=int, default=None)
    ce.add_argument("--x", default=None, help="macroscopic point, comma-separated")
    ce.set_defaults(fn=_cmd_cell)

    sm = sub.add_parser("suite-smoothing", help="smoothing-operator estimate sweeps")
    sm.set_defaults(fn=_cmd_suite_smoothing)

    sp = sub.add_parser("suite-strip", help="boundary-strip inequality sweeps")
    sp.set_defaults(fn=_cmd_suite_strip)

    au = sub.add_parser("audit", help="randomized ellipticity audit")
    au.add_argument("--preset", required=True)
    au.add_argument("--params", required=True)
    au.add_argument("--dim", type=int, default=None)
    au.add_argument("--samples", type=int, default=10000)
    au.add_argument("--seed", type=int, default=0)
    au.set_defaults(fn=_cmd_audit)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except core.NumericalError as exc:
        sys.stderr.write(f"numerical failure: {type(exc).__name__}: {exc}\n")
        return 3
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
