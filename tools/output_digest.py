"""Print one digest line per blocklab output, so two checkouts can be compared
with ``diff``.

    python3 tools/output_digest.py [--root DIR]

Covers the 24 ``cli_mix`` argvs of ``perfbench/workloads.CliMix`` on the
inputs seed 7 generates, the 15 ``EXTRA`` argvs on inputs seed 7 generates
(inputs outside ``cli_mix``: classes in shuffled order and of sizes that are
not powers of two, the scatter and dcca pipelines at sizes ``cli_mix`` leaves
out, a well-conditioned LDA instance, ``center`` on d × n data, ``ols`` on
a rectangular design, ``pca`` on data whose mean of 10 or 100 swamps
its spread, which it refuses, and ``encode`` on a 1 × 1 matrix), ``--help`` of the parser and of every
subcommand, and ``blocklab suite --seed 42``.  Each line holds the exit code
and the SHA-256 of stdout, of stderr and of the JSON document without its
``timing`` block (``-`` when no document was written).  The temporary input
directory is replaced by ``<work>`` before hashing.  One more line per
``perfbench/workloads.WalkDense`` op, on the inputs seed 7 generates, holds
whether the op's check passed, the walk matrix's dtype (``float64`` for real
data, ``complex128`` otherwise), so a storage change shows by name and not
only as a new hash, and the SHA-256 of the walk matrix's bytes and of the
phase-estimation readouts' bytes (``-`` when the op reads none); these
ops read every entry of the data encodings' unitaries, where the ``cli_mix``
argvs read only their leading blocks.
``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: this one).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

INPUT_SEED = 7
SUITE_SEED = 42

# (name, argv) with ("m", rows, cols) a standard normal matrix, ("o", rows, cols,
# offset) one plus a constant, and ("l", sizes) labels in shuffled order
EXTRA = [
    ("dcca-4x7-c3.4-shuffled", ["dcca", ("m", 4, 7), ("m", 4, 7), ("l", (3, 4))]),
    ("verify-ones-n6", ["verify", "--target", "ones", "--n", "6"]),
    ("verify-similarity-1.3", ["verify", "--target", "similarity", "--classes", "1,3"]),
    ("pca-32x32", ["pca", ("m", 32, 32)]),
    ("lda-32x32-c16.16", ["lda", ("m", 32, 32), ("l", (16, 16))]),
    ("lda-8x32-c16.16", ["lda", ("m", 8, 32), ("l", (16, 16)), "--d", "1"]),
    ("cca-16x16", ["cca", ("m", 16, 16), ("m", 16, 16)]),
    ("cca-32x32", ["cca", ("m", 32, 32), ("m", 32, 32)]),
    ("dcca-16x16-c5.11", ["dcca", ("m", 16, 16), ("m", 16, 16), ("l", (5, 11))]),
    ("center-3x6", ["center", ("m", 3, 6)]),
    ("center-6x3-cx", ["center", ("m", 6, 3), "--mode", "cx"]),
    ("ols-12x5", ["ols", ("m", 12, 5), ("m", 12, 1)]),
    ("pca-8x8-offset10", ["pca", ("o", 8, 8, 10.0), "--d", "3"]),
    ("pca-8x8-offset100", ["pca", ("o", 8, 8, 100.0), "--d", "3"]),
    ("encode-1x1", ["encode", ("m", 1, 1)]),
]


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _run(main, argv: list[str], out: str | None, work: str) -> str:
    """Digest line fields of one ``main(argv)`` call."""
    if out and os.path.exists(out):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits after --help
            code = exc.code
    doc = "-"
    if out and os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        payload.pop("timing", None)
        doc = _sha(json.dumps(payload, sort_keys=True).replace(work, "<work>"))
    return (f"exit={code}\tstdout={_sha(stdout.getvalue().replace(work, '<work>'))}"
            f"\tstderr={_sha(stderr.getvalue().replace(work, '<work>'))}\tjson={doc}")


def _extra_argv(name: str, spec: list, work: str, write_matrix_csv) -> list[str]:
    """``spec`` with its inputs written under ``work`` and an ``--out`` path."""
    rng = np.random.default_rng(INPUT_SEED)
    argv = []
    for k, item in enumerate(spec):
        if isinstance(item, str):
            argv.append(item)
            continue
        path = os.path.join(work, f"{name}.{k}.csv")
        if item[0] == "m":
            write_matrix_csv(path, rng.standard_normal(item[1:]))
        elif item[0] == "o":
            write_matrix_csv(path, rng.standard_normal(item[1:3]) + item[3])
        else:
            labels = rng.permutation(np.repeat(np.arange(len(item[1])), item[1]))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{v}\n" for v in labels))
        argv.append(path)
    return argv + ["--out", os.path.join(work, f"{name}.json")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose src/ and perfbench/ are digested")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    from blocklab import applications, centering, cli, data_encoding, mean_centering, spectral
    from blocklab.matrix_core import write_matrix_csv
    from workloads import CliMix, WalkDense

    with tempfile.TemporaryDirectory() as work:
        mix = CliMix()
        mix.setup({"cli": cli}, INPUT_SEED, work)
        for name, cmd in zip(mix.op_names, mix.argvs):
            print(f"{name}\t{_run(cli.main, cmd, cmd[-1], work)}")
        for name, spec in EXTRA:
            cmd = _extra_argv(name, spec, work, write_matrix_csv)
            print(f"{name}\t{_run(cli.main, cmd, cmd[-1], work)}")
        for sub in ["", *sorted(cli._HANDLERS)]:
            cmd = [sub, "--help"] if sub else ["--help"]
            print(f"help{'-' + sub if sub else ''}\t{_run(cli.main, cmd, None, work)}")
        out = os.path.join(work, "suite.json")
        cmd = ["suite", "--seed", str(SUITE_SEED), "--out", out]
        print(f"suite-seed{SUITE_SEED}\t{_run(cli.main, cmd, out, work)}")

        walk = WalkDense()
        walk.setup({"applications": applications, "centering": centering,
                    "data_encoding": data_encoding, "mean_centering": mean_centering,
                    "spectral": spectral}, INPUT_SEED, work)
        outputs = []

        def record(fn, *args):  # keeps each op's (alpha, walk, readouts)
            outputs.append(None)
            outputs[-1] = fn(*args)
            return outputs[-1]

        for result, out in zip(walk.cycle(record), outputs):
            _, w, readouts = out if out is not None else (None, None, [])
            print(f"{result.name}\tpass={result.passed}"
                  f"\tdtype={w.dtype if w is not None else '-'}"
                  f"\twalk={_sha(w.tobytes()) if w is not None else '-'}"
                  f"\treadouts={_sha(np.asarray(readouts).tobytes()) if readouts else '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
