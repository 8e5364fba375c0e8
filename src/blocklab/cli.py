"""Command-line front end: ingest CSV matrices and label files, run the
constructions and pipelines, and emit JSON documents with every declared
scale factor, measured distance, and oracle delta.

Exit codes: 0 all verifications pass, 1 a verification failed, 2 input could
not be parsed, 3 a construction exceeded the dimension cap.  The dimension
cap is 2^14 by default and can be overridden with BLOCKLAB_CAP_QUBITS.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

import numpy as np

from .applications import _RANK_RTOL, LabeledDataset, cca, dcca, lda, ols, pca
from .block_encoding import BlockEncoding, trivial_encoding, verify
from .centering import build_uc, centering_encoding, similarity_encoding
from .data_encoding import matrix_encoding
from .matrix_core import (
    CapExceededError,
    embed_power_of_two,
    is_power_of_two,
    jsonable,
    read_matrix_csv,
    read_vector_csv,
    qubit_count,
    write_matrix_csv,
)
from .mean_centering import mc_encoding
from .oracles import (
    CenteringMode,
    cca_pencil,
    centering_matrix,
    classical_center,
    dcca_pencil,
    ols_closed_form,
    pencil_eigs,
    reflection,
    scatters,
    similarity,
    total_scatter,
)
from .suite import run_suite
from . import __version__

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3

# Positional arguments that name input files; each is digested into the report.
_INPUT_ARGS = ("matrix", "matrix_x", "matrix_y", "labels", "target_file")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _encoding_meta(name: str, be: BlockEncoding) -> dict:
    return {
        "name": name,
        "alpha": float(be.alpha),
        "ancillas": int(be.ancillas),
        "epsilon": float(be.epsilon),
        "system_qubits": int(be.system_qubits),
    }


def _emit(doc: dict, out: str | None, started: float) -> None:
    doc["timing"] = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_time_s": time.perf_counter() - started,
    }
    text = json.dumps(jsonable(doc), sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _base_doc(args: argparse.Namespace) -> dict:
    paths = [getattr(args, name) for name in _INPUT_ARGS if hasattr(args, name)]
    return {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "inputs": {path: {"sha256": _digest(path)} for path in paths},
    }


def _read_labels(path: str) -> np.ndarray:
    raw = read_vector_csv(path)
    labels = raw.real.astype(int)
    if np.max(np.abs(raw - labels)) > 0:
        raise ValueError(f"{path}: labels must be integers, one per line")
    return labels


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_center(args: argparse.Namespace) -> tuple[int, dict]:
    x = read_matrix_csv(args.matrix)
    mode = CenteringMode.parse(args.mode)
    centered = classical_center(x, mode)
    be = mc_encoding(x, mode)
    report = verify(be, embed_power_of_two(centered, be.system_dim), tol=args.tol)
    doc = _base_doc(args)
    doc["params"] = {"mode": mode.value, "tol": args.tol}
    doc["encodings"] = [_encoding_meta("centered-matrix", be)]
    doc["verification"] = report.to_dict()
    doc["matrix"] = centered
    if args.matrix_out:
        write_matrix_csv(args.matrix_out, centered)
    return (EXIT_OK if report.passed else EXIT_VERIFICATION), doc


def _cmd_encode(args: argparse.Namespace) -> tuple[int, dict]:
    x = embed_power_of_two(read_matrix_csv(args.matrix))
    be = matrix_encoding(x)
    report = verify(be, x, tol=args.tol)
    doc = _base_doc(args)
    doc["params"] = {"tol": args.tol}
    doc["encodings"] = [_encoding_meta("data-matrix", be)]
    doc["verification"] = report.to_dict()
    return (EXIT_OK if report.passed else EXIT_VERIFICATION), doc


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict]:
    target_name = args.target.lower()
    if target_name == "c":
        be = centering_encoding(args.n)
        target = embed_power_of_two(centering_matrix(args.n), be.system_dim)
    elif target_name == "uc":
        if args.n < 2 or not is_power_of_two(args.n):
            raise ValueError(f"--target uc is the unpadded reflection, which exists only for "
                             f"n = 2^k >= 2, not n = {args.n}")
        uc = build_uc(qubit_count(args.n))
        be = trivial_encoding(uc)
        target = reflection(args.n)
    elif target_name == "ones":
        be = similarity_encoding(args.n)
        target = embed_power_of_two(np.ones((args.n, args.n)), be.system_dim)
    elif target_name == "similarity":
        sizes = [int(s) for s in args.classes.split(",") if s]
        if not sizes or min(sizes) < 1:
            raise ValueError("--classes needs one or more class sizes, each at least 1")
        labels = np.repeat(np.arange(len(sizes)), sizes)
        be = similarity_encoding(labels)
        target = embed_power_of_two(similarity(labels), be.system_dim)
    else:
        raise ValueError(f"unknown verify target {args.target!r}")
    report = verify(be, target, tol=args.tol)
    doc = _base_doc(args)
    doc["params"] = {"target": target_name, "n": args.n, "tol": args.tol,
                     "classes": args.classes}
    doc["encodings"] = [_encoding_meta(target_name, be)]
    doc["verification"] = report.to_dict()
    return (EXIT_OK if report.passed else EXIT_VERIFICATION), doc


def _cmd_pca(args: argparse.Namespace) -> tuple[int, dict]:
    x = read_matrix_csv(args.matrix)
    result = pca(x, d=args.d, t_bits=args.t_bits)
    dim = result.eigenvectors.shape[0]
    classical = np.sort(np.linalg.eigvalsh(embed_power_of_two(total_scatter(x), dim)))[::-1]
    classical = classical[: args.d]
    alpha = float(np.linalg.norm(x) ** 2)
    bound = alpha * 2.0 ** (-args.t_bits)
    delta = float(np.max(np.abs(result.eigenvalues - classical)))
    doc = _base_doc(args)
    doc["params"] = {"d": args.d, "t_bits": args.t_bits}
    doc["results"] = {
        "eigenvalues_estimated": result.eigenvalues,
        "eigenvalues_classical": classical,
        "max_delta": delta,
        "resolution_bound": bound,
        "alpha_over_lambda_1": alpha / classical[0] if classical[0] > _RANK_RTOL * alpha else None,
        "pass": delta <= bound,
        "eigenvectors": result.eigenvectors.T,
        "degeneracies": result.degeneracies,
    }
    return (EXIT_OK if delta <= bound else EXIT_VERIFICATION), doc


def _pencil_doc(args: argparse.Namespace, result, a_cl, b_cl) -> tuple[int, dict]:
    oracle_vals, _ = pencil_eigs(a_cl, b_cl, args.d)
    delta = float(np.max(np.abs(result.eigenvalues - oracle_vals)))
    doc = _base_doc(args)
    doc["params"] = {"d": args.d, "tol": args.tol}
    doc["results"] = {
        "eigenvalues": result.eigenvalues,
        "eigenvalues_oracle": oracle_vals,
        "max_delta": delta,
        "pass": delta <= args.tol,
        "eigenvectors": result.eigenvectors.T,
        "degeneracies": result.degeneracies,
    }
    return (EXIT_OK if delta <= args.tol else EXIT_VERIFICATION), doc


def _cmd_lda(args: argparse.Namespace) -> tuple[int, dict]:
    ds = LabeledDataset(read_matrix_csv(args.matrix), _read_labels(args.labels))
    result = lda(ds, args.d)
    s_t, s_w, _ = scatters(ds)
    return _pencil_doc(args, result, s_t, s_w)


def _cmd_cca(args: argparse.Namespace) -> tuple[int, dict]:
    x = read_matrix_csv(args.matrix_x)
    y = read_matrix_csv(args.matrix_y)
    return _pencil_doc(args, cca(x, y, args.d), *cca_pencil(x, y))


def _cmd_dcca(args: argparse.Namespace) -> tuple[int, dict]:
    x = read_matrix_csv(args.matrix_x)
    y = read_matrix_csv(args.matrix_y)
    labels = _read_labels(args.labels)
    ds_x = LabeledDataset(x, labels)
    ds_y = LabeledDataset(y, labels)
    return _pencil_doc(args, dcca(ds_x, ds_y, args.d), *dcca_pencil(x, y, labels))


def _cmd_ols(args: argparse.Namespace) -> tuple[int, dict]:
    x = read_matrix_csv(args.matrix)
    y = read_vector_csv(args.target_file)
    reg = ols(x, y)
    closed = ols_closed_form(x, y)
    delta = float(np.max(np.abs(reg.beta_hat - closed)))
    doc = _base_doc(args)
    doc["params"] = {"tol": args.tol}
    doc["results"] = {
        "beta": reg.beta_hat,
        "residual_norm": reg.residual_norm,
        "effective_rank": reg.effective_rank,
        "closed_form_delta": delta,
        "pass": delta <= args.tol,
    }
    return (EXIT_OK if delta <= args.tol else EXIT_VERIFICATION), doc


def _cmd_suite(args: argparse.Namespace) -> tuple[int, dict]:
    doc = run_suite(args.seed)
    width = max(len(c["title"]) for c in doc["suite"]["criteria"])
    for crit in doc["suite"]["criteria"]:
        status = "PASS" if crit["pass"] else "FAIL"
        print(f"criterion {crit['id']:>2}  {status}  {crit['title']:<{width}}")
    all_pass = doc["suite"]["all_pass"]
    print(f"suite: {'PASS' if all_pass else 'FAIL'} (seed {args.seed})")
    return (EXIT_OK if all_pass else EXIT_VERIFICATION), doc


_HANDLERS = {
    "center": _cmd_center,
    "encode": _cmd_encode,
    "verify": _cmd_verify,
    "pca": _cmd_pca,
    "lda": _cmd_lda,
    "cca": _cmd_cca,
    "dcca": _cmd_dcca,
    "ols": _cmd_ols,
    "suite": _cmd_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocklab",
        description="Block-encoded mean centering simulator",
    )
    parser.add_argument("--version", action="version", version=f"blocklab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=None):  # the default --tol of a subcommand that reads one
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol, help="tolerance override")
        p.add_argument("--seed", type=int, default=42, help="seed recorded in the report")
        p.add_argument("--out", default=None, help="write the JSON document here")

    p = sub.add_parser("center", help="mean-center a matrix and verify the encoding")
    p.add_argument("matrix")
    p.add_argument("--mode", choices=["cx", "xc", "cxc"], default="cxc")
    p.add_argument("--matrix-out", default=None, help="write the centered matrix as CSV")
    common(p, tol=1e-8)

    p = sub.add_parser("encode", help="block-encode a matrix and verify it")
    p.add_argument("matrix")
    common(p, tol=1e-9)

    p = sub.add_parser("verify", help="verify a named construction against its target")
    p.add_argument("--target", choices=["c", "uc", "ones", "similarity"], default="c")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--classes", default="", help="comma-separated class sizes")
    common(p, tol=1e-12)

    p = sub.add_parser("pca", help="principal components via phase estimation")
    p.add_argument("matrix")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--t-bits", type=int, default=8, dest="t_bits")
    common(p)

    p = sub.add_parser("lda", help="discriminant directions from the scatter pencil")
    p.add_argument("matrix")
    p.add_argument("labels")
    p.add_argument("--d", type=int, default=2)
    common(p, tol=1e-6)

    p = sub.add_parser("cca", help="canonical correlation directions")
    p.add_argument("matrix_x")
    p.add_argument("matrix_y")
    p.add_argument("--d", type=int, default=2)
    common(p, tol=1e-6)

    p = sub.add_parser("dcca", help="class-aware canonical correlation directions")
    p.add_argument("matrix_x")
    p.add_argument("matrix_y")
    p.add_argument("labels")
    p.add_argument("--d", type=int, default=2)
    common(p, tol=1e-6)

    p = sub.add_parser("ols", help="least squares on the centered design")
    p.add_argument("matrix")
    p.add_argument("target_file", metavar="target")
    common(p, tol=1e-8)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    common(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import; parse_args leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if not 0.0 <= getattr(args, "tol", 0.0) < np.inf:  # NaN fails both
            raise ValueError("--tol must be a finite number >= 0")
        code, doc = _HANDLERS[args.command](args)
        _emit(doc, args.out, started)
        return code
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except AssertionError as exc:
        # internal cross-checks (encoding vs classical route) count as
        # verification failures, not crashes
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
