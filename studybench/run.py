"""Study benchmark: end-to-end time, CPU, set-up and memory of oscille studies.

    python3 studybench/run.py --workload mixed1d --seed 0 --seconds 30 --trace 0

Run from the repository root (or any checkout of it). The benchmark runs
the shipped studies from outside the program, the way a user runs them:
`oscille.run_study` on a config, or the `oscille study` command. Every
result passes a correctness gate (see worker.py). The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`study_s`, `cpu_s`,
`setup_s`, `peak_rss_mb`), the three times scaled by the calibration
kernel to the defining box's usual speed (see calib.py); with `--trace 1`
they are the per-layer self times and counts of a traced run (see
tracer.py) plus the tracing overhead, unscaled. The lines above it give the
same numbers and the unscaled times for a reader, and the
full record (commit, cores, versions, seed, threads, every operation) is
appended to `.studybench/records.jsonl`.

The seed makes the inputs: seed 0 is the shipped config, any other seed
draws the preset's amplitude (and slope for LocallyPeriodic2D) from the
ranges in WORKLOADS. Meshes, eps sweep and work shape do not change.
Exit code 0 with a result, 1 if the run could not finish, 2 if the
checkout holds no oscille sources to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".studybench"
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0


def usable_cores():
    return len(os.sched_getaffinity(0))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# `draws` maps a preset parameter index to the range other seeds draw it
# from; every range keeps amplitude < mean and 1 + slope > 0, so the
# certified ellipticity bounds hold.
WORKLOADS = {
    "laminate2d": {
        "config": "configs/laminate2d.json",
        "entry": "run_study",
        "threads": 1,
        # the three coarsest of the five shipped eps; the full sweep takes
        # ~100 s a study, too long to repeat within the benchmark's budget
        "keep_eps": 3,
        "draws": {1: (0.9, 1.1), 2: (0.4, 0.6)},
    },
    "mixed1d": {
        "config": "configs/mixed1d.json",
        "entry": "run_study",
        "threads": 1,
        # w1_corr FAILs (fit residual > 0.15) from amplitude 1.04 up at
        # the commit that added this benchmark, and the benchmark's runs
        # must pass; mixed1d_wide keeps that failure in view (README.md)
        "draws": {1: (0.9, 1.0)},
    },
    # mixed1d over the range the other 1D workload draws from; steadiness.py
    # runs its seed 2 (amplitude 1.0912) to show the failure while it lasts
    "mixed1d_wide": {
        "config": "configs/mixed1d.json",
        "entry": "run_study",
        "threads": 1,
        "draws": {1: (0.9, 1.1)},
    },
    "sine1d_cli": {
        "config": "configs/sine1d.json",
        "entry": "cli",
        "threads": "cores",
        "draws": {1: (0.9, 1.1)},
    },
    # the whole shipped sweep, for checking ROADMAP's reference slopes by
    # hand; BENCHMARK.json does not list it
    "laminate2d_full": {
        "config": "configs/laminate2d.json",
        "entry": "run_study",
        "threads": 1,
        "draws": {1: (0.9, 1.1), 2: (0.4, 0.6)},
        "limit_s": 900.0,
    },
}


def make_config(name, seed, path):
    """Write the workload's config for this seed; returns the parsed dict."""
    wl = WORKLOADS[name]
    raw = (ROOT / wl["config"]).read_bytes()
    cfg = json.loads(raw)
    if "keep_eps" in wl:
        cfg["epsilons"] = cfg["epsilons"][: wl["keep_eps"]]
    if seed != 0:
        rng = random.Random(seed)
        for index, (lo, hi) in sorted(wl["draws"].items()):
            cfg["field"]["params"][index] = round(rng.uniform(lo, hi), 6)
    if seed == 0 and "keep_eps" not in wl:
        path.write_bytes(raw)
    else:
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return cfg


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def commit():
    """Commit of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "oscille").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(config_path, env):
    """Median over fresh interpreters of import oscille + Scenario build.

    Each probe's time is scaled by the calibration kernel run in the same
    interpreter; returns the median scaled time and the probes' records.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), str(config_path)],
                             env=env, capture_output=True, text=True, timeout=60, check=True)
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return statistics.median(p["setup_s"] * calib.factor(p["kernel_s"]) for p in probes), probes


def check_digests(ops, name, inputs):
    """rates.csv must be byte-identical across repetitions of one input.

    Repetitions inside this run are compared with each other and with the
    digest an earlier run left in .studybench for the same `inputs`: the
    sources, the generated config and the library versions.
    """
    store = WORK / name / "rates_digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]
    for op in ops:
        sha = op.get("rates_sha256")
        if sha is None:
            continue
        if key not in known:
            known[key] = sha
        elif sha != known[key]:
            op["reasons"].append("rates.csv differs from an earlier repetition of this seed")
    store.write_text(json.dumps(known, indent=1) + "\n")


def median_of(ops, key):
    return statistics.median(op[key] for op in ops)


def trace_metrics(ops):
    traced = [op for op in ops if op["traced"] and "layers" in op]
    plain = [op for op in ops if not op["traced"]]
    if not traced or not plain:
        return {}, []
    names = traced[0]["layers"].keys()
    metrics = {}
    for key in names:
        # a count keeps a value that was observed; times take the median
        middle = statistics.median if key.endswith("_s") else statistics.median_low
        metrics[key] = middle(op["layers"][key] for op in traced)
    hits = traced[0]["quadrature_hits"]
    misses = traced[0]["quadrature_misses"]
    metrics["mesh.quadrature_misses"] = misses
    metrics["mesh.quadrature_lookups"] = hits + misses
    metrics["mesh.quadrature_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace.study_s"] = median_of(traced, "study_s")
    metrics["trace.overhead_s"] = metrics["trace.study_s"] - median_of(plain, "study_s")
    counts = [{k: v for k, v in op["layers"].items() if not k.endswith("_s")}
              | {"mesh.quadrature_misses": op["quadrature_misses"]} for op in traced]
    differing = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
    return metrics, differing


def load_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    wl = WORKLOADS[args.workload]
    if not (ROOT / "src" / "oscille" / "__init__.py").is_file() or not (ROOT / wl["config"]).is_file():
        sys.stderr.write(f"studybench: no oscille sources or {wl['config']} under {ROOT}\n")
        return 2

    run_dir = WORK / args.workload / f"seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    cfg = make_config(args.workload, args.seed, config_path)
    env = child_env()
    threads = usable_cores() if wl["threads"] == "cores" else wl["threads"]
    reference = json.loads((HERE / "reference.json").read_text())["slopes"]
    spec = {
        "config": str(config_path),
        "entry": wl["entry"],
        "threads": threads,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "preset": cfg["field"]["preset_id"],
        "params": cfg["field"]["params"],
        "reference_slopes": reference.get(args.workload) if args.seed == 0 else None,
        "work_dir": str(run_dir),
        "result": str(run_dir / f"result-trace{args.trace}.json"),
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n")

    try:
        setup_s, setup_probes = (None, [])
        if not args.trace:
            setup_s, setup_probes = measure_setup(config_path, env)
        remaining = wl.get("limit_s", RUN_LIMIT_S) - (time.perf_counter() - started)
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                       env=env, cwd=str(ROOT), timeout=remaining, check=True)
        result = json.loads(Path(spec["result"]).read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        sys.stderr.write(f"studybench: run did not finish: {exc}\n")
        return 1

    ops = result["ops"]
    src = source_digest()
    check_digests(ops, args.workload, {"src": src, "config": config_path.read_text(encoding="utf-8"),
                                       "versions": result["versions"]})
    failed = sum(1 for op in ops if op["reasons"])
    plain = [op for op in ops if not op["traced"]]
    counts_differing = None
    if args.trace:
        metrics, counts_differing = trace_metrics(ops)
    else:
        # one factor for the run: per-operation factors rest on a few
        # samples each and were noisier across seeds on sine1d_cli
        scale = calib.factor([k for op in plain for k in op["kernel_s"]])
        metrics = {
            "study_s": median_of(plain, "study_s") * scale,
            "cpu_s": median_of(plain, "cpu_s") * scale,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    units = load_units(args.trace)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": commit(),
        "source_digest": src,
        "cores": usable_cores(),
        "threads": threads,
        "blas_threads": 1,
        **result["versions"],
        "params": cfg["field"]["params"],
        "setup_probes": setup_probes,
        "scale": None if args.trace else scale,
        "ops": ops,
        "counts_differing": counts_differing,
        "metrics": metrics,
    }
    with open(WORK / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"studybench {args.workload} seed={args.seed} trace={args.trace} "
          f"params={cfg['field']['params']} threads={threads} ops={len(ops)}")
    for name, value in metrics.items():
        unit = units.get(name, "")
        print(f"  {name:<28} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  unscaled: study_s {median_of(plain, 'study_s'):.4f} s, cpu_s {median_of(plain, 'cpu_s'):.4f} s; "
              f"scale factor {scale:.4f} from {sum(len(op['kernel_s']) for op in plain)} kernel samples")
    print(f"  study_s samples: {len(plain)} untraced" +
          (f", {len(ops) - len(plain)} traced; counts differing between traced operations: "
           f"{counts_differing or 'none'}" if args.trace else ""))
    reasons = {}
    for op in ops:
        for reason in op["reasons"]:
            reasons[reason] = reasons.get(reason, 0) + 1
    for reason, n in reasons.items():
        print(f"  FAILED ({n} of {len(ops)} operations): {reason}")
    print(f"  attempted {len(ops)} failed {failed}")
    print(f"  commit={record['commit'][:12]} src={src} cores={record['cores']} python={record['python']} "
          f"numpy={record['numpy']} scipy={record['scipy']} blas={record['blas']}")
    out = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items() if name in units},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
