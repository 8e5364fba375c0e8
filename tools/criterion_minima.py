"""Print each op's fastest runtime in one benchmark workload, the p50/p90 of
those minima, as the benchmark computes its latencies, and the minor page
faults per cycle.

    python3 tools/criterion_minima.py [--root DIR] [--workload NAME] [--passes K]

Runs K cycles of one ``perfbench/workloads.WORKLOADS`` workload (default
``battery``: a cycle is one whole ``blocklab.suite.run_battery`` pass) in one
process, at the benchmark's seed 1 and with BLAS on one thread, and takes the
minima and percentiles with ``perfbench/run.py``'s own ``fastest_per_op`` and
``_percentile``.  ``cli_mix`` writes its inputs and outputs in a temporary
directory.  The minor page faults (``resource.getrusage``) are averaged over
cycles 2..K, since the first cycle pays the process's first allocations.
``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: this one), so one copy of this script can print two checkouts side
by side.  It is a quick look at where a workload's time goes and backs no
claim: a claim needs the alternating runs of ``perfbench/run.py``.  It exits 1
when an op fails.
"""

from __future__ import annotations

import argparse
import importlib
import resource
import sys
import tempfile
from pathlib import Path


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose src/ and perfbench/ are used")
    parser.add_argument("--workload", default="battery",
                        help="a name in perfbench/workloads.WORKLOADS (default: battery)")
    parser.add_argument("--passes", type=int, default=5, help="workload cycles (at least 2)")
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")

    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    bench = importlib.import_module("run")
    bench._single_thread_blas()  # before blocklab, and so numpy, is imported
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    results = []
    with tempfile.TemporaryDirectory() as workdir:
        workload.setup(bench.load_blocklab(), 1, workdir)
        results += workload.cycle(bench._plain)
        faults = _minor_faults()
        for _ in range(args.passes - 1):
            results += workload.cycle(bench._plain)
        faults = _minor_faults() - faults
    names = list(dict.fromkeys(r.name for r in results))
    minima = bench.fastest_per_op(results)
    print(f"root {root}  {args.workload}  {args.passes} passes")
    for name, best in zip(names, minima):
        print(f"{name:<28} {1e3 * best:9.3f} ms")
    print(f"{'p50':<28} {1e3 * bench._percentile(minima, 50):9.3f} ms")
    print(f"{'p90':<28} {1e3 * bench._percentile(minima, 90):9.3f} ms")
    print(f"{'minor faults per cycle':<28} {faults / (args.passes - 1):9.1f}")
    failed = sorted({r.name for r in results if not r.passed})
    if failed:
        print(f"failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
