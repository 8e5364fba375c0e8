"""In-memory span tracing of blocklab's public functions, installed from the
benchmark's own files so that nothing under ``src/`` changes.

Each traced function is rebound in the module that defines it and in every
blocklab module that imported it by name, including module-level tuples and
lists that hold it (``suite.CRITERIA``).  ``BlockEncoding.extract_block`` and
the ``BlockEncoding.unitary`` property are wrapped on the class.  A span is
``[name, start, end, parent]``; a span's self time is its duration minus the
durations of its direct children, so the self times of all spans add up to
the durations of the root spans the benchmark opens around each timed op.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from collections.abc import Callable

# Layer -> public functions traced, as named in the per-layer metrics.
TRACED = {
    "matrix_core": ("unitary_completion", "is_unitary", "kron", "insert_middle_identity",
                    "place_middle_blocks", "spectral_norm", "read_matrix_csv",
                    "write_matrix_csv"),
    "block_encoding": ("product", "linear_combination", "make_state_prep_pair",
                       "rescale_encoding", "verify"),
    "centering": ("centering_encoding", "similarity_encoding", "build_uc"),
    "data_encoding": ("matrix_encoding", "preparation_unitaries", "build_norm_tree",
                      "hermitian_dilation"),
    "mean_centering": ("mc_encoding", "classical_center"),
    "spectral": ("hermitianize_encoding", "walk_operator", "exact_evolution",
                 "phase_estimation"),
    "applications": ("pca", "lda", "cca", "dcca", "ols", "generalized_eig",
                     "scatter_total_encoding", "scatter_within_encoding",
                     "class_correlation_encoding"),
    "cli": ("main",),
}
LAYERS = (*TRACED, "suite")
# BlockEncoding members, reported under the block_encoding layer.
MEMBERS = ("extract_block", "unitary")
CRITERIA = tuple(f"criterion_{k}" for k in range(1, 11))
ROOT = "bench.op"


def span_names() -> list[str]:
    """Every span name the tracer can report, in metric order."""
    return ([f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
            + [f"block_encoding.{m}" for m in MEMBERS]
            + [f"suite.{c}" for c in CRITERIA])


class Tracer:
    """Spans and computed counters of one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` updates counters."""
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def root(self, fn, *args):
        """Call ``fn(*args)`` inside a root span marking one timed op."""
        return self.wrap(ROOT, fn)(*args)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, float]:
        """(calls per name, self seconds per name, total root seconds)."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for (nid, start, end, parent), covered in zip(self.spans, child):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += (end - start) - covered
            if parent < 0:
                root_s += end - start
        return calls, self_s, root_s

    def write(self, path) -> None:
        """Write all spans, times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_us", "end_us", "parent"],
            "names": self.names,
            "spans": [[n, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                      for n, s, e, p in self.spans],
            "counters": dict(self.counters),
            "missing": self.missing,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _counter_hooks(tracer: Tracer) -> dict:
    """Post-call hooks for the counts computed from dimensions."""
    c = tracer.counters

    def matrix_encoding(args, be):
        c["data_encoding.matrix_encoding.gflop_computed"] += 8.0 * be.system_dim ** 6 / 1e9

    def hermitianize(args, be):
        if be is not args[0]:
            c["spectral.hermitianize_encoding.gflop_computed"] += 16.0 * be.dim ** 3 / 1e9
        c["spectral.max_unitary_dim"] = max(c["spectral.max_unitary_dim"], be.dim)

    def unitary_dim(args, u):
        c["spectral.max_unitary_dim"] = max(c["spectral.max_unitary_dim"], u.shape[0])

    def pe_dim(args, est):
        c["spectral.max_unitary_dim"] = max(c["spectral.max_unitary_dim"],
                                            len(args[0]))

    return {
        "data_encoding.matrix_encoding": matrix_encoding,
        "spectral.hermitianize_encoding": hermitianize,
        "spectral.walk_operator": unitary_dim,
        "spectral.exact_evolution": unitary_dim,
        "spectral.phase_estimation": pe_dim,
    }


def install(tracer: Tracer, lib: dict) -> Callable[[], None]:
    """Wrap every traced callable of the imported package ``lib``.

    ``lib`` maps layer names to the imported blocklab modules (plus the
    package itself under ``"blocklab"``).  Returns a function that restores
    the original bindings.
    """
    hooks = _counter_hooks(tracer)
    wrapped: dict[int, object] = {}
    for layer, fns in list(TRACED.items()) + [("suite", CRITERIA)]:
        mod = lib[layer]
        for fn in fns:
            name = f"{layer}.{fn}"
            orig = getattr(mod, fn, None)
            if orig is None:
                tracer.missing.append(name)
                continue
            wrapped[id(orig)] = tracer.wrap(name, orig, hooks.get(name))

    undo = []
    for mod in lib.values():
        for key, value in list(vars(mod).items()):
            if id(value) in wrapped:
                undo.append((mod, key, value))
                setattr(mod, key, wrapped[id(value)])
            elif isinstance(value, (tuple, list)) and any(id(v) in wrapped for v in value):
                undo.append((mod, key, value))
                setattr(mod, key, type(value)(wrapped.get(id(v), v) for v in value))

    cls = lib["block_encoding"].BlockEncoding
    prop = cls.__dict__["unitary"]
    extract = cls.__dict__["extract_block"]
    undo += [(cls, "unitary", prop), (cls, "extract_block", extract)]
    cls.extract_block = tracer.wrap("block_encoding.extract_block", extract)
    cls.unitary = property(_unitary_getter(tracer, prop.fget), doc=prop.__doc__)

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return restore


def _unitary_getter(tracer: Tracer, fget):
    """The ``unitary`` getter, counting cache hits and materialized bytes.

    A read is a hit when the instance already holds its cached matrix; every
    miss materializes a dim x dim complex128 matrix (16 * dim^2 bytes).
    """
    c = tracer.counters
    traced = tracer.wrap("block_encoding.unitary", fget)

    def getter(be):
        hit = getattr(be, "_cache", None) is not None
        u = traced(be)
        if hit:
            c["block_encoding.unitary.cache_hits"] += 1
        else:
            c["block_encoding.unitary.bytes_computed"] += 16.0 * u.shape[0] ** 2
        return u

    return getter
