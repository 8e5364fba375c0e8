"""blocklab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; blocklab is imported from ``src/`` of that
checkout and nowhere else.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see README.md).  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Result documents and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7  # before the measured window, and as many again after it


def _single_thread_blas() -> None:
    """Run BLAS on one thread, set before numpy loads.

    On a small shared machine a multi-threaded dense product waits for its
    slowest core, which widened the run-to-run spread of the dense-bound
    metrics about twofold; the thread count is recorded with every result.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_blocklab() -> dict:
    """Import blocklab afresh from this checkout's ``src/``.

    Dropping the cached modules first makes each call pay the package's own
    import cost again, which is part of set-up.
    """
    for name in [m for m in sys.modules if m == "blocklab" or m.startswith("blocklab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("blocklab")
    if Path(pkg.__file__).resolve().parent != SRC / "blocklab":
        raise ImportError(f"blocklab imported from {pkg.__file__}, not from {SRC}")
    lib = {layer: importlib.import_module(f"blocklab.{layer}") for layer in tracing.LAYERS}
    lib["blocklab"] = pkg
    return lib


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    import ctypes
    import glob

    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"library": deps.get("name"), "version": deps.get("version"), "threads": {}}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules[pkg]
        for path in glob.glob(str(Path(mod.__file__).parent.parent / f"{pkg}.libs" / "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"][pkg] = fn()
                    break
    return info


def provenance() -> dict:
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _plain(fn, *args):
    return fn(*args)


def measure(workload, seconds: float, call=_plain) -> tuple[list, int, float]:
    """Whole cycles of the op list until ``seconds`` have passed (at least one)."""
    results, cycles = [], 0
    start = time.perf_counter()
    while True:
        results += workload.cycle(call)
        cycles += 1
        if time.perf_counter() - start >= seconds:
            return results, cycles, time.perf_counter() - start


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def fastest_per_op(results) -> list[float]:
    """Each op's fastest latency over the run's cycles, one value per op.

    The latency percentiles are taken over these.  On a small shared machine
    each core runs about 1.5x slower for stretches of one to many seconds,
    whatever the program does, so a slow run of an op says more about the
    host than about blocklab; the fastest of its runs does not.  Pooled over
    every run of every op, a percentile also falls in the gap between two ops
    (the battery's p90 between criteria 3 and 7) and then reads the slowest
    run of one op: over ten runs of the same code its interquartile range
    reached 28% of its median.
    """
    by_op: dict[str, list[float]] = {}
    for r in results:
        by_op.setdefault(r.name, []).append(r.latency_s)
    return [min(v) for v in by_op.values()]


def end_to_end(results, window: float, setup_s: float, peak_rss_mib: float) -> dict:
    latencies = fastest_per_op(results)
    passed = sum(r.passed for r in results)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (passed / window, "1/s"),
        "latency_p50_s": (_percentile(latencies, 50), "s"),
        "latency_p90_s": (_percentile(latencies, 90), "s"),
        "fail_ratio": ((len(results) - passed) / len(results), "ratio"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def per_layer(tracer, cycles: int, base_rate: float, traced_rate: float) -> dict:
    calls, self_s, root_s = tracer.self_times()
    metrics = {}
    for name in tracing.span_names():
        if not name.startswith("suite."):
            metrics[f"{name}.calls"] = (calls.get(name, 0) / cycles, "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) / cycles, "s")
    c = tracer.counters
    unitary_calls = calls.get("block_encoding.unitary", 0)
    metrics.update({
        "block_encoding.unitary.bytes_computed": (c["block_encoding.unitary.bytes_computed"] / cycles, "B"),
        "block_encoding.unitary.cache_hit_ratio": (
            c["block_encoding.unitary.cache_hits"] / unitary_calls if unitary_calls else 0.0, "ratio"),
        "data_encoding.matrix_encoding.gflop_computed": (
            c["data_encoding.matrix_encoding.gflop_computed"] / cycles, "GFLOP"),
        "spectral.hermitianize_encoding.gflop_computed": (
            c["spectral.hermitianize_encoding.gflop_computed"] / cycles, "GFLOP"),
        "spectral.max_unitary_dim": (c["spectral.max_unitary_dim"], "dim"),
        "bench.op.self_s": (self_s.get(tracing.ROOT, 0.0) / cycles, "s"),
        "trace.op_s": (root_s / cycles, "s"),
        "trace.spans": (len(tracer.spans) / cycles, "count"),
        "trace.untraced_ops_per_s": (base_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_pct": (100.0 * (1.0 - traced_rate / base_rate) if base_rate else 0.0, "%"),
    })
    return metrics


def run_workload(args) -> tuple[dict, object]:
    from workloads import KNOWN_FAILURES, LEFT_OUT, WORKLOADS, is_known_failure

    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setups = []

    def set_up():
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            lib = load_blocklab()
            workload.setup(lib, args.seed, str(workdir))
            setups.append(time.perf_counter() - t0)
        return lib

    try:
        lib = set_up()
        tracer = None
        if args.trace:
            results, cycles, window = measure(workload, args.seconds / 2)
            base_rate = sum(r.passed for r in results) / window
            tracer = tracing.Tracer()
            restore = tracing.install(tracer, lib)
            try:
                traced, traced_cycles, traced_window = measure(workload, args.seconds / 2,
                                                               tracer.root)
            finally:
                restore()
            metrics = per_layer(tracer, traced_cycles, base_rate,
                                sum(r.passed for r in traced) / traced_window)
            results += traced
            cycles += traced_cycles
            window += traced_window
        else:
            results, cycles, window = measure(workload, args.seconds)
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # Set-ups on both sides of the window sample the machine at two
            # moments, half a minute apart, which steadies their median.
            set_up()
            metrics = end_to_end(results, window, statistics.median(setups), peak_rss)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in results if not r.passed]
    unexpected = [r for r in failed if not is_known_failure(r)]
    names = [r.name for r in results]
    per_cycle = len(workload.op_names)
    same_ops = names == workload.op_names * (len(names) // per_cycle)
    return {
        "workload": args.workload,
        "why": next(w["why"] for w in declared()["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "window_s": window,
        "setup_runs_s": setups,
        "ops": workload.op_names,
        "op_latencies_s": {name: [r.latency_s for r in results if r.name == name]
                           for name in workload.op_names},
        "samples": len(results),
        "correct": not unexpected and same_ops,
        "attempted": len(results),
        "failed": len(failed),
        "failures": sorted({(r.name, r.problem.strip().splitlines()[-1][:160],
                             is_known_failure(r)) for r in failed}),
        "unexpected_failures": [{"op": r.name, "problem": r.problem} for r in unexpected[:5]],
        "known_failures": {k: v for k, v in KNOWN_FAILURES.items() if k in workload.op_names},
        "left_out": [x for x in LEFT_OUT if x["workload"] == args.workload],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "provenance": provenance(),
    }, tracer


def _print_report(doc: dict) -> None:
    print(f"workload {doc['workload']}  seed {doc['seed']}  trace {doc['trace']}  "
          f"{doc['samples']} ops in {doc['cycles']} cycles over {doc['window_s']:.2f} s")
    for name, m in doc["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    for name, problem, known in doc["failures"]:
        print(f"  {'known' if known else 'UNEXPECTED'} failure: {name}: {problem}")
    print(json.dumps({"provenance": doc["provenance"]}, sort_keys=True))


def _result_line(doc: dict, names) -> str:
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: doc["metrics"][k] for k in names},
    })


def declared() -> dict:
    """BENCHMARK.json: the workloads, their reasons and the metric names."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in declared()["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_mix", "walk_dense", "battery", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blocklab" / "__init__.py").is_file():
        print(f"error: no blocklab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    _single_thread_blas()
    sys.path.insert(0, str(SRC))
    doc, tracer = run_workload(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json.gz")
    _print_report(doc)
    names = [m["name"] for m in declared()["per_layer" if args.trace else "end_to_end"]]
    print(_result_line(doc, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
