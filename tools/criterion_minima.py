"""Print each battery criterion's fastest runtime and the p50/p90 of those
minima, as the benchmark's battery workload computes its latencies.

    python3 tools/criterion_minima.py [--root DIR] [--passes K]

Runs K whole ``blocklab.suite.run_battery`` passes in one process through
``perfbench/workloads.Battery``, at the benchmark's seed 1 and with BLAS on
one thread, and takes the minima and percentiles with ``perfbench/run.py``'s
own ``fastest_per_op`` and ``_percentile``.  ``--root`` names the checkout whose ``src/`` and
``perfbench/`` are used (default: this one), so one copy of this script can
print two checkouts side by side.  It is a quick look at where the battery's
time goes and backs no claim: a claim needs the alternating runs of
``perfbench/run.py``.  It exits 1 when a criterion fails.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose src/ and perfbench/ are used")
    parser.add_argument("--passes", type=int, default=5, help="battery passes (at least 2)")
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")

    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    bench = importlib.import_module("run")
    bench._single_thread_blas()  # before blocklab, and so numpy, is imported
    from workloads import Battery

    battery = Battery()
    battery.setup(bench.load_blocklab(), 1, "")
    results = []
    for _ in range(args.passes):
        results += battery.cycle(bench._plain)
    names = list(dict.fromkeys(r.name for r in results))
    minima = bench.fastest_per_op(results)
    print(f"root {root}  {args.passes} passes")
    for name, best in zip(names, minima):
        print(f"{name:<14} {1e3 * best:9.2f} ms")
    print(f"{'p50':<14} {1e3 * bench._percentile(minima, 50):9.2f} ms")
    print(f"{'p90':<14} {1e3 * bench._percentile(minima, 90):9.2f} ms")
    failed = sorted({r.name for r in results if not r.passed})
    if failed:
        print(f"failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
