"""Run-to-run agreement of the benchmark: spreads, baseline and repeated counts.

    python3 studybench/steadiness.py
    python3 studybench/steadiness.py --workloads mixed1d --record

For each workload (by default every one in BENCHMARK.json) this runs
run.py once for each of seeds 1 to 10 and prints, per end-to-end metric:

- the median of the ten values;
- the distance between their first and third quartiles
  (`statistics.quantiles(values, n=4)`) as a share of the median, next to
  the metric's bound from BENCHMARK.json;
- the median's change against the one in `baseline.json`, as a share of
  the baseline, next to the same bound.

It then makes two traced seed-0 runs and lists every per-layer count that
differs between them. When `mixed1d` is among the workloads, it also runs
`mixed1d_wide` at seed 2, an amplitude outside mixed1d's range that FAILs
at the commit that added this benchmark (see README.md), and prints its
attempted and failed counts.

`--record` writes this set's medians to `baseline.json` instead of
comparing with it. Every set is appended to .studybench/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SEEDS = range(1, 11)
TRACED_REPEATS = 2
COUNT_UNITS = {"count", "bytes"}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(share, bound):
    return "ok" if abs(share) < bound / 3 else ("within bound" if abs(share) <= bound else "TOO WIDE")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--record", action="store_true", help="write the medians to baseline.json")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"workloads": {}}
    summary = []
    for workload in args.workloads:
        results = [run(workload, seed, seconds, 0) for seed in SEEDS]
        entry = {"workload": workload, "seeds": list(SEEDS), "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
                 "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "metrics": {}}
        print(f"{workload}: seeds {SEEDS[0]}..{SEEDS[-1]}, attempted {entry['attempted']}, "
              f"failed {entry['failed']}", flush=True)
        base = baseline["workloads"].get(workload, {})
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            s = spread(values)
            entry["metrics"][name] = {"values": values, "median": median, "spread": s, "bound": bound}
            line = (f"  {name:<12} median {median:10.4f}  spread {s:6.3f} {verdict(s, bound):<12}"
                    f"  bound {bound:4.2f}")
            if name in base and not args.record:
                change = (median - base[name]) / base[name]
                entry["metrics"][name]["change"] = change
                line += f"  vs baseline {base[name]:10.4f}: {change:+6.3f} {verdict(change, bound)}"
            print(line, flush=True)
        traced = [run(workload, 0, seconds, 1) for _ in range(TRACED_REPEATS)]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if units.get(k) in COUNT_UNITS}
                  for r in traced]
        entry["traced_counts"] = counts
        entry["counts_differing"] = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        print(f"  traced seed-0 runs: {TRACED_REPEATS}; counts differing between them: "
              f"{entry['counts_differing'] or 'none'}", flush=True)
        summary.append(entry)
    if "mixed1d" in args.workloads:
        wide = run("mixed1d_wide", 2, seconds, 0)
        summary.append({"workload": "mixed1d_wide", "seeds": [2], "attempted": wide["attempted"],
                        "failed": wide["failed"]})
        print(f"mixed1d_wide seed 2 (outside mixed1d's range): attempted {wide['attempted']}, "
              f"failed {wide['failed']}", flush=True)
    with open(ROOT / ".studybench" / "steadiness.jsonl", "a", encoding="utf-8") as fh:
        for entry in summary:
            fh.write(json.dumps(entry) + "\n")
    if args.record:
        for entry in summary:
            if "metrics" in entry:
                baseline["workloads"][entry["workload"]] = {
                    name: m["median"] for name, m in entry["metrics"].items()}
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
