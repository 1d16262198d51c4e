"""Independent verification of hsframe's outputs.

Uses only the stdlib ``json``/``csv`` modules and numpy, never hsframe, so a
defect in the package cannot hide itself.  Every check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

RANK_TOL = 1e-10  # the CLI's default --rank-tol
REL = 1e-9  # relative tolerance for quantities recomputed from the same floats


class Reference:
    """Facts about one family file, computed once per round from the raw JSON."""

    def __init__(self, path: str, wl):
        with open(path) as fh:
            doc = json.load(fh)
        self.header = (doc["dim_h"], doc["dim_k"], doc["count"])
        arr = np.asarray(doc["operators"], dtype=float)
        z = arr[..., 0] + 1j * arr[..., 1]  # (count, dim_h, d_k, d_k)
        count, dim_h = z.shape[:2]
        self.blk = z.shape[2] * z.shape[3]
        # synthesis block j is the conjugate of the row-major images of map j
        self.t = z.reshape(count, dim_h, self.blk).conj().transpose(1, 0, 2).reshape(
            dim_h, count * self.blk
        )
        s = self.t @ self.t.conj().T
        self.s = (s + s.conj().T) / 2.0
        self.evals = np.linalg.eigvalsh(self.s)
        self.lower = max(float(self.evals[0]), 0.0)
        self.upper = float(self.evals[-1])
        self.wl = wl


def _close(a: float, b: float, rel: float, scale: float) -> bool:
    return abs(a - b) <= rel * scale


def check_generate(ref: Reference) -> list[str]:
    wl = ref.wl
    if ref.header != (wl.dim_h, wl.dim_k, wl.count):
        return [f"header {ref.header} != requested {(wl.dim_h, wl.dim_k, wl.count)}"]
    kind, _, arg = wl.spectrum.partition(":")
    if wl.kind == "random":
        if kind == "flat":
            want = np.full(wl.dim_h, float(arg) if arg else 1.0)
        else:  # geometric
            want = float(arg) ** np.arange(wl.dim_h, dtype=float)
        err = float(np.max(np.abs(np.sort(want) - ref.evals)))
        if err > REL * float(want.max()):
            return [f"spectrum of T T^H off by {err:.3e}"]
        return []
    # decaying: identity head, tail map j has operator norm ratio**(j - head + 1)
    ratio = float(arg)
    head = -(-wl.dim_h // ref.blk)
    problems = []
    if not np.array_equal(ref.t[:, : wl.dim_h], np.eye(wl.dim_h)):
        problems.append("head of the synthesis matrix is not the identity")
    norms = [
        float(np.linalg.norm(ref.t[:, j * ref.blk : (j + 1) * ref.blk], ord=2))
        for j in range(head, wl.count)
    ]
    want = ratio ** np.arange(1, wl.count - head + 1, dtype=float)
    if not np.allclose(norms, want, rtol=REL, atol=0.0):
        problems.append("tail map norms do not decay at the requested ratio")
    top = 1.0 + float(np.sum(want**2))
    if ref.lower < 1.0 - REL or ref.upper > top * (1.0 + REL):
        problems.append(f"spectrum [{ref.lower}, {ref.upper}] outside [1, {top}]")
    return problems


def check_analyze(ref: Reference, path: str) -> list[str]:
    with open(path) as fh:
        doc = json.load(fh)
    fr = doc["frame_report"]
    a, b = ref.lower, ref.upper
    problems = []
    if not (_close(fr["lower_bound"], a, REL, b) and _close(fr["upper_bound"], b, REL, b)):
        problems.append(
            f"bounds ({fr['lower_bound']}, {fr['upper_bound']}) != eigvalsh(S) ({a}, {b})"
        )
    if fr["frame"] is not True:
        problems.append("frame is not true")
    dual = doc["canonical_dual"]
    if dual is None:
        return problems + ["canonical_dual missing"]
    lo, hi = dual["bounds"]
    if not (_close(lo, 1.0 / b, 1e-8, 1.0 / a) and _close(hi, 1.0 / a, 1e-8, 1.0 / a)):
        problems.append(f"canonical dual bounds ({lo}, {hi}) != (1/B, 1/A)")
    if dual["dual_identity_ok"] is not True:
        problems.append("dual_identity_ok is not true")
    return problems


def check_perturb(ref: Reference, path: str) -> list[str]:
    with open(path) as fh:
        doc = json.load(fh)
    mu = ref.wl.magnitude
    a, b = ref.lower, ref.upper
    lo = a * (1.0 - mu / math.sqrt(a)) ** 2
    hi = b * (1.0 + mu / math.sqrt(b)) ** 2
    problems = []
    if doc["certified"] is not True:
        problems.append("certified is not true")
    got_lo, got_hi = doc["actual_bounds"]
    if got_lo < lo * (1.0 - REL) or got_hi > hi * (1.0 + REL):
        problems.append(f"actual bounds ({got_lo}, {got_hi}) outside ({lo}, {hi})")
    return problems


def check_invert(ref: Reference, path: str, seed: int) -> list[str]:
    wl = ref.wl
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    lengths = wl.schedule_lengths()
    if [int(r["n"]) for r in rows] != lengths:
        return [f"rows cover n = {[r['n'] for r in rows]}, schedule is {lengths}"]
    problems = []
    errs = ("err_plain", "err_oversampled")
    flagged = [r["n"] for r in rows
               if int(r["m_n"]) < 0 or not all(math.isfinite(float(r[k])) for k in errs)]
    if flagged:
        return [f"flagged rows at n = {flagged}"]

    rng = np.random.default_rng(seed)  # the vector invert draws from --seed
    f = rng.standard_normal(wl.dim_h) + 1j * rng.standard_normal(wl.dim_h)
    f /= np.linalg.norm(f)
    scale = 1e-8 * float(np.linalg.norm(np.linalg.solve(ref.s, f)))
    for k in errs:
        if float(rows[-1][k]) > scale:
            problems.append(f"last prefix {k} = {rows[-1][k]} > {scale:.3e}")

    target = ref.lower / wl.lam
    t, blk = ref.t, ref.blk
    for row in rows:
        n, m, r = int(row["n"]), int(row["m_n"]), int(row["r_n"])
        u, sig, _ = np.linalg.svd(t[:, : n * blk], full_matrices=False)
        rank = int(np.count_nonzero(sig > RANK_TOL * sig[0])) if sig[0] > 0 else 0
        if r != rank:
            problems.append(f"n={n}: r_n = {r}, numpy rank {rank}")
            continue
        if rank == 0:
            continue
        q = u[:, :rank]

        def lam_min(k):
            w = q.conj().T @ t[:, : k * blk]
            sec = w @ w.conj().T
            return float(np.linalg.eigvalsh((sec + sec.conj().T) / 2.0)[0])

        if n + m > wl.count or lam_min(n + m) < target * (1.0 - REL):
            problems.append(f"n={n}: m_n = {m} does not reach A/lambda")
        elif m > 0 and lam_min(n + m - 1) >= target * (1.0 + REL):
            problems.append(f"n={n}: m_n = {m} is not the smallest oversampling")
    return problems
