"""Set-up probe: time `import oscille` plus building the Scenario.

Run in a fresh interpreter with `src` on PYTHONPATH:

    python3 studybench/probe.py <config.json>

Prints one JSON line: `setup_s`, the elapsed seconds from before the
import to after the Scenario is built, and `kernel_s`, the times of the
calibration kernel (calib.py) run in the same process right after.
"""

import json
import sys
import time

KERNEL_SAMPLES = 3


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    start = time.perf_counter()
    import oscille  # noqa: F401
    from oscille import cli

    cli.scenario_from_dict(cfg)
    setup_s = time.perf_counter() - start
    import calib  # after the timed part, so its imports do not shorten it

    print(json.dumps({"setup_s": setup_s, "kernel_s": calib.samples(KERNEL_SAMPLES)}))


if __name__ == "__main__":
    main()
