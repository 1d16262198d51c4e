"""Span tracing of hsframe's layers, installed from the benchmark's side.

``install`` wraps each public function the per-layer metrics need in every
hsframe module namespace that binds it (``projection`` and ``cli`` import
names such as ``frame_bounds`` and ``cho_factor`` directly), and the
factorization entry points of ``numpy.linalg`` and ``scipy.linalg``.  A span
is (op id, name, start, end, parent, info); spans stay in memory until the
run writes them out.

Per-layer metrics are computed per round (one pass of the four commands)
and reported as the median over rounds.  Byte and factorization counts are
computed from array shapes, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

PUBLIC = {
    "projection": ("subspace_basis", "sectional_operator", "find_oversampling",
                   "oversampled_inverse_apply", "convergence_sweep"),
    "family": ("frame_operator", "frame_bounds", "classify", "riesz_inequality_check",
               "canonical_dual", "verify_alternate_dual"),
    "perturbation": ("perturb_family", "check_condition"),
    "serialization": ("save_family", "load_family", "write_json_report",
                      "write_convergence_csv"),
    "generators": ("random_family", "decaying_family"),
}

# (module, attribute) -> kind of factorization or solve
LINALG = {
    (np.linalg, "svd"): "svd",
    (np.linalg, "eigh"): "eigh",
    (np.linalg, "eigvalsh"): "eigh",
    (scipy.linalg, "eigh"): "eigh",
    (np.linalg, "cholesky"): "cholesky",
    (scipy.linalg, "cho_factor"): "cholesky",
    (np.linalg, "solve"): "solve",
    (scipy.linalg, "cho_solve"): "solve",
    (np.linalg, "inv"): "inv",
}

FACTORIZATIONS = ("linalg.svd", "linalg.eigh", "linalg.cholesky")
REPORT_WRITERS = ("serialization.write_json_report", "serialization.write_convergence_csv")
GENERATORS = ("generators.random_family", "generators.decaying_family")
SWEEP = "projection.convergence_sweep"


@dataclass(slots=True)
class Span:
    idx: int
    op: int
    name: str
    start: float
    end: float
    parent: int | None
    info: dict


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.op = -1
        self.active = True
        self._open: list[int] = []
        self._open_names: list[str] = []
        self._whole: dict[int, np.ndarray] = {}  # id -> T or S array of the current op

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._whole.clear()

    @contextlib.contextmanager
    def paused(self):
        """Call the wrapped functions untraced, e.g. for the benchmark's own checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            info = before(args) if before else {}
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(idx)
            self._open_names.append(name)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self._open_names.pop()
                self.spans[idx] = Span(idx, self.op, name, start, end, parent, info)
            if after:
                after(info, args, out)
            return out

        return traced

    def _is_whole(self, x) -> bool:
        """Is ``x`` all of a family's synthesis matrix T or frame operator S?"""
        if not isinstance(x, np.ndarray):
            return False
        root = x
        while isinstance(root.base, np.ndarray):
            root = root.base
        whole = self._whole.get(id(x))
        if whole is None:
            whole = self._whole.get(id(root))
        return whole is not None and x.shape == whole.shape

    def remember_whole(self, arr) -> None:
        self._whole[id(arr)] = arr  # the reference keeps the id from being reused

    def linalg_hooks(self, qualname):
        def before(args):
            x = args[0] if args else None
            if isinstance(x, tuple):  # cho_solve takes (factor, lower)
                x = x[0]
            return {
                "fn": qualname,
                "shape": list(x.shape) if isinstance(x, np.ndarray) else None,
                "whole": self._is_whole(x),
                "in_sweep": SWEEP in self._open_names,
            }

        def after(info, args, out):
            parts = out if isinstance(out, tuple) else (out,)
            sizes = [p.nbytes for p in parts if isinstance(p, np.ndarray)]
            info["out_bytes"] = sum(sizes)
            info["max_out_bytes"] = max(sizes, default=0)

        return before, after

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"op": s.op, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, **s.info}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap hsframe's public layer functions and the linalg entry points."""
    hs_modules = [m for name, m in sys.modules.items()
                  if name == "hsframe" or name.startswith("hsframe.")]

    def rebind(orig, wrapped):
        for mod in hs_modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    hooks = {
        "serialization.load_family": (lambda a: {"bytes": os.path.getsize(a[0])}, None),
        "serialization.save_family": (
            None, lambda info, a, out: info.update(bytes=os.path.getsize(a[1]))),
        SWEEP: (None, lambda info, a, out: info.update(
            rows=len(out), flagged=sum(1 for r in out if r.flagged))),
        "family.frame_operator": (None, lambda info, a, out: tracer.remember_whole(out)),
    }
    for modname, names in PUBLIC.items():
        mod = importlib.import_module(f"hsframe.{modname}")
        for fname in names:
            name = f"{modname}.{fname}"
            before, after = hooks.get(name, (None, None))
            orig = getattr(mod, fname)
            rebind(orig, tracer.wrap(name, orig, before, after))

    # T is a cached property; remember every synthesis matrix handed out
    from hsframe.family import HSFrameFamily

    synth = HSFrameFamily.__dict__["synthesis_matrix"].func

    def synthesis_matrix(self):
        t = synth(self)
        tracer.remember_whole(t)
        return t

    prop = functools.cached_property(synthesis_matrix)
    prop.__set_name__(HSFrameFamily, "synthesis_matrix")
    HSFrameFamily.synthesis_matrix = prop

    for (mod, attr), kind in LINALG.items():
        orig = getattr(mod, attr)
        before, after = tracer.linalg_hooks(f"{mod.__name__}.{attr}")
        wrapped = tracer.wrap(f"linalg.{kind}", orig, before, after)
        setattr(mod, attr, wrapped)
        rebind(orig, wrapped)


def _round_values(spans: list[Span], names) -> dict[str, float]:
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        d = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + d
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + d
    for s in spans:
        own = (s.end - s.start) - child_time.get(s.idx, 0.0)
        self_s[s.name] = self_s.get(s.name, 0.0) + own

    def info_sum(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    linalg = [s for s in spans if s.name.startswith("linalg.")]
    rows = info_sum(SWEEP, "rows")
    in_sweep = sum(1 for s in linalg if s.name in FACTORIZATIONS and s.info["in_sweep"])
    whole = sum(1 for s in linalg
                if s.name in ("linalg.svd", "linalg.eigh") and s.info["whole"])
    svd_bytes = [s.info["max_out_bytes"] for s in linalg if s.name == "linalg.svd"]
    v = {
        "projection.flagged_rows": info_sum(SWEEP, "flagged"),
        "projection.factorizations_per_section": in_sweep / rows if rows else 0.0,
        "family.whole_family_factorizations": whole,
        "linalg.svd.max_out_bytes": max(svd_bytes, default=0),
        "serialization.bytes_written": info_sum("serialization.save_family", "bytes"),
        "serialization.bytes_read": info_sum("serialization.load_family", "bytes"),
        "serialization.report_write.s": sum(total.get(n, 0.0) for n in REPORT_WRITERS),
        "generators.s": sum(total.get(n, 0.0) for n in GENERATORS),
    }
    # the rest are "<span name>.calls", "<span name>.s" or "<span name>.self_s"
    stats = {"calls": calls, "s": total, "self_s": self_s}
    for key in set(names) - v.keys():
        base, _, stat = key.rpartition(".")
        v[key] = stats[stat].get(base, 0)
    return v


def per_layer(tracer: Tracer, rounds: list[list[int]], names) -> dict[str, float]:
    """Median over rounds of each per-layer metric in ``names``.

    ``rounds`` lists the op ids of each round.
    """
    by_op: dict[int, list[Span]] = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    per_round = [_round_values([s for op in ops for s in by_op.get(op, [])], names)
                 for ops in rounds]
    return {k: statistics.median(r[k] for r in per_round) for k in names}
