"""Print one digest line per blocklab output, so two checkouts can be compared
with ``diff``.

    python3 tools/output_digest.py [--root DIR]

Covers the 24 ``cli_mix`` argvs of ``perfbench/workloads.CliMix`` on the
inputs seed 7 generates, ``--help`` of the parser and of every
subcommand, and ``blocklab suite --seed 42``.  Each line holds the exit code
and the SHA-256 of stdout, of stderr and of the JSON document without its
``timing`` block (``-`` when no document was written).  The temporary input
directory is replaced by ``<work>`` before hashing.  ``--root`` names the
checkout whose ``src/`` and ``perfbench/`` are used (default: this one).
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

CLI_SEED = 7
SUITE_SEED = 42


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="checkout whose src/ and perfbench/ are digested")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    from blocklab import cli
    from workloads import CliMix

    with tempfile.TemporaryDirectory() as work:
        mix = CliMix()
        mix.setup({"cli": cli}, CLI_SEED, work)
        for name, cmd in zip(mix.op_names, mix.argvs):
            print(f"{name}\t{_run(cli.main, cmd, cmd[-1], work)}")
        for sub in ["", *sorted(cli._HANDLERS)]:
            cmd = [sub, "--help"] if sub else ["--help"]
            print(f"help{'-' + sub if sub else ''}\t{_run(cli.main, cmd, None, work)}")
        out = os.path.join(work, "suite.json")
        cmd = ["suite", "--seed", str(SUITE_SEED), "--out", out]
        print(f"suite-seed{SUITE_SEED}\t{_run(cli.main, cmd, out, work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
