"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py --workload battery --seeds 1 2 3 4 5

Runs ``run.py`` once per seed with the declared ``run_seconds`` and prints,
for each end-to-end metric, the median and the distance between the first
and third quartile as a share of the median, against the metric's bound in
BENCHMARK.json.  A spread at or above a third of its bound is flagged; the
set-up time is reported but not flagged.  Exits 1 when any run fails or is
incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    status = 0
    for seed in args.seeds:
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= 0 if result["correct"] else 1
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- wide"
        print(f"{m['name']:<16} median {med:.6g} {m['unit']:<4} spread {spread:.4f} "
              f"bound {m['bound']}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
