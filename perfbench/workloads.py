"""The three benchmark workloads.

Each is a closed loop with one client: one cycle runs the workload's op list
once, in order, and the next op starts only after the previous one returned.
Inputs come from the seed only; the op list is the same for every seed.  An
op's latency covers the call into blocklab; its output check runs after the
clock stops and uses numpy alone, so it adds no spans to a traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback
import zlib
from dataclasses import dataclass

import numpy as np


# cli_mix ops that fail when this benchmark was added.  They stay in the op list and
# count as failed; a listed op that fails in the listed way (exit code 1)
# does not make the run incorrect, any other failure does.
PADDED_MEAN = ("padded-mean defect (ROADMAP item 4): the pipeline centers with the "
               "padded power-of-two sample count, the CLI oracle with the true one")
KNOWN_FAILURES = {
    "lda-6x6-c3.3": {"exit_code": 1, "defect": PADDED_MEAN},
    "lda-8x8-c2.6": {"exit_code": 1, "defect": PADDED_MEAN + " (per class: 6 pads to 8)"},
    "cca-3x6": {"exit_code": 1, "defect": PADDED_MEAN + " (C_8 against C_6)"},
}
# No dcca op is refused: dcca runs at n=8 with power-of-two classes only.

# Sizes never requested, with the reason.
LEFT_OUT = [
    {"workload": "cli_mix", "ops": "lda, cca and dcca at n >= 16",
     "reason": "refused by the dimension cap at construction (exit 3); "
               "a capability change adds them later (ROADMAP item 3)"},
    {"workload": "cli_mix", "ops": "pca at n = 32",
     "reason": "refused by the dimension cap at construction (exit 3); "
               "a capability change adds it later (ROADMAP item 3)"},
    {"workload": "walk_dense", "ops": "walk_operator on an n = 16 scatter",
     "reason": "passes the 2^14 cap but was OOM-killed on a 2-core 7 GiB machine; "
               "it waits for the byte budget of ROADMAP item 3"},
]


@dataclass
class OpResult:
    name: str
    latency_s: float
    passed: bool
    problem: str | None = None  # why the op failed; None when it passed


def _rng(seed: int, name: str) -> np.random.Generator:
    """Per-op generator, so one op's inputs do not depend on the op order."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def _timed(call, fn, *args):
    """(result, seconds, traceback or None) of ``call(fn, *args)``.

    An uncaught error is a failed op, not a dead run.
    """
    t0 = time.perf_counter()
    try:
        out = call(fn, *args)
    except Exception:
        return None, time.perf_counter() - t0, traceback.format_exc()
    return out, time.perf_counter() - t0, None


def is_known_failure(result: OpResult) -> bool:
    """True when a listed op failed in its listed way."""
    known = KNOWN_FAILURES.get(result.name)
    return known is not None and (result.problem or "").startswith(
        f"exit {known['exit_code']}:")


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

def _cli_specs() -> list[tuple[str, list]]:
    """(op name, argv) with input placeholders: ("m", rows, cols) a matrix,
    ("v", n) a vector, ("l", sizes) a label file of grouped classes."""
    specs = []
    for n in (8, 16, 32):
        specs += [
            (f"center-cxc-n{n}", ["center", ("m", n, n), "--mode", "cxc"]),
            (f"encode-n{n}", ["encode", ("m", n, n)]),
            (f"ols-n{n}", ["ols", ("m", n, n), ("v", n)]),
        ]
    specs += [(f"pca-n{n}", ["pca", ("m", n, n)]) for n in (8, 16)]
    specs += [
        ("lda-n8-c4.4", ["lda", ("m", 8, 8), ("l", (4, 4))]),
        ("cca-n8", ["cca", ("m", 8, 8), ("m", 8, 8)]),
        ("dcca-n8-c4.4", ["dcca", ("m", 8, 8), ("m", 8, 8), ("l", (4, 4))]),
    ]
    specs += [(f"verify-{t}-n16", ["verify", "--target", t, "--n", "16"])
              for t in ("c", "ones", "uc")]
    specs += [
        ("verify-similarity-3.5.4", ["verify", "--target", "similarity", "--classes", "3,5,4"]),
        ("center-12x12", ["center", ("m", 12, 12)]),
        ("pca-12x12", ["pca", ("m", 12, 12)]),
        ("ols-12x12", ["ols", ("m", 12, 12), ("v", 12)]),
        ("lda-6x6-c3.3", ["lda", ("m", 6, 6), ("l", (3, 3))]),
        ("lda-8x8-c2.6", ["lda", ("m", 8, 8), ("l", (2, 6))]),
        ("cca-3x6", ["cca", ("m", 3, 6), ("m", 3, 6)]),
    ]
    return specs


def _write_rows(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in np.atleast_1d(row)) + "\n")


def _check_cli_doc(doc: dict) -> str | None:
    """Re-derive the document's verdict from its own numbers."""
    if "verification" in doc:
        v = doc["verification"]
        ok = v["distance_measured"] <= max(v["epsilon_declared"], v["tolerance"])
        return None if ok and v["pass"] is True else "verification does not hold"
    r = doc["results"]
    if "resolution_bound" in r:
        ok = r["max_delta"] <= r["resolution_bound"]
    elif "closed_form_delta" in r:
        ok = r["closed_form_delta"] <= doc["params"]["tol"]
    else:
        ok = r["max_delta"] <= doc["params"]["tol"]
    return None if ok and r["pass"] is True else "oracle delta exceeds its tolerance"


class CliMix:
    """One op is one in-process ``blocklab.cli.main([...])`` call."""

    name = "cli_mix"

    def __init__(self):
        self.specs = _cli_specs()
        self.op_names = [name for name, _ in self.specs]

    def setup(self, lib, seed: int, workdir: str) -> None:
        self.lib = lib
        self.workdir = workdir
        self.argvs = []
        self.inputs = {}
        for name, spec in self.specs:
            rng = _rng(seed, name)
            argv = []
            for k, item in enumerate(spec):
                if isinstance(item, str):
                    argv.append(item)
                    continue
                path = os.path.join(workdir, f"{name}.{k}.csv")
                kind = item[0]
                if kind == "m":
                    data = rng.standard_normal(item[1:])
                elif kind == "v":
                    data = rng.standard_normal(item[1])
                else:
                    data = np.repeat(np.arange(len(item[1])), item[1])
                _write_rows(path, data)
                if kind != "l":  # labels follow from the op's class sizes
                    self.inputs[f"{name}.{k}"] = data
                argv.append(path)
            argv += ["--seed", str(seed), "--out", os.path.join(workdir, f"{name}.json")]
            self.argvs.append(argv)

    def cycle(self, call) -> list[OpResult]:
        results = []
        for name, argv in zip(self.op_names, self.argvs):
            out = argv[-1]
            if os.path.exists(out):
                os.remove(out)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code, latency, error = _timed(call, self.lib["cli"].main, argv)
            if error:
                results.append(OpResult(name, latency, False, error))
            else:
                results.append(OpResult(name, latency, *self._judge(code, out, sink)))
        return results

    @staticmethod
    def _judge(code: int, out: str, sink: io.StringIO) -> tuple[bool, str | None]:
        if code != 0:
            return False, f"exit {code}: {sink.getvalue().strip()[:200]}"
        try:
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            return False, f"no JSON document: {exc}"
        problem = _check_cli_doc(doc)
        return problem is None, problem


# ---------------------------------------------------------------------------
# walk_dense
# ---------------------------------------------------------------------------

T_BITS = 8
QUADRATIC_TOL = 1e-8


def _center(n: int) -> np.ndarray:
    return np.eye(n) - np.full((n, n), 1.0 / n)


class WalkDense:
    """One op builds a fresh encoding (``.unitary`` is cached per instance)
    and runs ``walk_operator``, or the walk then qubitization-walk phase
    estimation on the largest and smallest eigenvalue."""

    name = "walk_dense"
    op_names = ["walk-scatter-n8", "walk-pe-scatter-n4", "walk-pe-dilation-mc-cxc-n8",
                "walk-pe-centering-n16"]

    def setup(self, lib, seed: int, workdir: str) -> None:
        self.spectral = lib["spectral"]
        app, dat, mc, cen = (lib[k] for k in
                             ("applications", "data_encoding", "mean_centering", "centering"))
        x8, x4, xm = (_rng(seed, name).standard_normal((n, n))
                      for name, n in zip(self.op_names, (8, 4, 8)))
        self.inputs = dict(zip(self.op_names, (x8, x4, xm)))
        m = _center(8) @ xm @ _center(8)
        # name -> (build a fresh encoding, the classical operator it encodes)
        self.ops = {
            "walk-scatter-n8": (lambda: app.scatter_total_encoding(x8),
                                x8 @ _center(8) @ x8.T),
            "walk-pe-scatter-n4": (lambda: app.scatter_total_encoding(x4),
                                   x4 @ _center(4) @ x4.T),
            "walk-pe-dilation-mc-cxc-n8": (
                lambda: dat.hermitian_dilation(mc.mc_encoding(xm, mc.CenteringMode.CXC)),
                np.block([[np.zeros((8, 8)), m], [m.T, np.zeros((8, 8))]])),
            "walk-pe-centering-n16": (lambda: cen.centering_encoding(16), _center(16)),
        }
        self.oracles = {name: np.linalg.eigh(op) for name, (_, op) in self.ops.items()}

    def _walk_op(self, build, with_pe: bool, vectors):
        spectral = self.spectral
        be = build()
        w = spectral.walk_operator(be)
        estimates = []
        if with_pe:
            for vec in vectors:
                psi = np.zeros(w.shape[0], dtype=complex)
                psi[: vec.shape[0]] = vec
                est = spectral.phase_estimation(
                    w, psi, T_BITS, method=spectral.EstimationMethod.QUBITIZATION_WALK,
                    alpha=be.alpha)
                estimates.append(est.eigenvalue)
        return be.alpha, w, estimates

    def cycle(self, call) -> list[OpResult]:
        results = []
        for name in self.op_names:
            lam, vecs = self.oracles[name]
            with_pe = name != "walk-scatter-n8"
            picked = [-1, 0] if with_pe else []
            out, latency, error = _timed(call, self._walk_op, self.ops[name][0], with_pe,
                                         [vecs[:, j] for j in picked])
            if error:
                results.append(OpResult(name, latency, False, error))
                continue
            alpha, w, est = out
            if with_pe:
                problem = self._check_pe(alpha, lam[picked], est)
            else:
                problem = self._check_quadratic(alpha, w, lam, vecs)
            results.append(OpResult(name, latency, problem is None, problem))
        return results

    @staticmethod
    def _check_quadratic(alpha, w, lam, vecs) -> str | None:
        """W^2 psi - 2 (lambda/alpha) W psi + psi = 0 on every system eigenvector."""
        worst = 0.0
        for j in range(vecs.shape[1]):
            psi = np.zeros(w.shape[0], dtype=complex)
            psi[: vecs.shape[0]] = vecs[:, j]
            wpsi = w @ psi
            worst = max(worst, float(np.linalg.norm(w @ wpsi - 2.0 * (lam[j] / alpha) * wpsi + psi)))
        return None if worst <= QUADRATIC_TOL else f"quadratic identity residual {worst:.3g}"

    @staticmethod
    def _check_pe(alpha, lam, est) -> str | None:
        """cos(theta) = lambda/alpha: a readout on the 2^t grid is within alpha*pi/2^t."""
        bound = alpha * np.pi * 2.0 ** -T_BITS
        delta = float(np.max(np.abs(np.asarray(est) - lam)))
        return None if delta <= bound else f"readout delta {delta:.3g} > bound {bound:.3g}"


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

class Battery:
    """One op is one criterion runner inside ``blocklab.suite.run_battery``;
    a cycle is one whole battery pass, and the op latency is the runner's
    own ``runtime_s``."""

    name = "battery"
    op_names = [f"criterion-{k}" for k in range(1, 11)]

    def setup(self, lib, seed: int, workdir: str) -> None:
        self.lib = lib
        self.seed = seed

    def cycle(self, call) -> list[OpResult]:
        outcomes, latency, error = _timed(call, self.lib["suite"].run_battery, self.seed)
        if error:
            return [OpResult(name, latency / len(self.op_names), False, error)
                    for name in self.op_names]
        # a pass that runs other criteria than op_names makes the run incorrect
        return [OpResult(f"criterion-{o.cid}", o.runtime_s, bool(o.passed),
                         None if o.passed else f"criterion failed: {o.details}")
                for o in outcomes]


WORKLOADS = {w.name: w for w in (CliMix, WalkDense, Battery)}
