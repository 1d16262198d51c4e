#!/usr/bin/env python3
"""hsframe benchmark: the four CLI commands, driven in-process, one client.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-oversample --seed 1 --seconds 35 --trace 0

One closed-loop client calls ``hsframe.cli.main(argv)`` in this process,
with the BLAS pinned to one thread before numpy is imported.  Each round
generates a fresh family from the workload seed, then analyzes, perturbs
and inverts it.  Every output is verified with json/csv/numpy outside the
timed region (perfbench/checks.py).

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds (and
at least MIN_ROUNDS rounds, so every command has a tail percentile).  Its
times are scaled to the machine speed probed just before each command
(perfbench/speed.py), because the shared machines it runs on drift.
``--trace 1`` runs TRACE_ROUNDS rounds with span tracing installed
(perfbench/layers.py) and reports the per-layer metrics.  The last line of
standard output is the JSON result; the full record, with the environment,
the tested checkout and (traced) the spans, goes to perfbench/results/.
"""

import os
import sys
import time

_START = time.perf_counter()
# Small LAPACK calls oversubscribe the cores when OpenBLAS threads: pin one
# thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import envinfo  # noqa: E402
import layers  # noqa: E402
from speed import SpeedProbe, at_reference_speed  # noqa: E402
from workloads import COMMANDS, WORKLOADS, family_seed, round_commands  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

DEFAULT_SEED = 1
MIN_ROUNDS = 11  # gives each command at least 11 samples: a tail with ten beyond it
MAX_LOOP_S = 120.0  # keeps a slowed-down program inside the 180 s run limit
TRACE_ROUNDS = 5  # fixed, so the traced counts repeat exactly for a seed
SETUP_REPS = 3


def import_hsframe():
    """Import hsframe from this checkout's src/ and refuse any other copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import hsframe
    import hsframe.cli

    where = Path(hsframe.__file__).resolve()
    if where.parent != src / "hsframe":
        raise ImportError(f"hsframe imported from {where}, not from {src}")
    return hsframe.cli.main, str(where)


def call(main, argv):
    """Run one CLI command; returns (seconds, exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is a failed op, not a crashed benchmark
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return seconds, rc, err.getvalue()


def verify(cmd, wl, workdir, fam_seed, ref):
    """(problems, reference) for one op's output; never raises."""
    try:
        if cmd == "generate":
            ref = checks.Reference(str(workdir / "family.json"), wl)
            return checks.check_generate(ref), ref
        if cmd == "analyze":
            return checks.check_analyze(ref, str(workdir / "analyze.json")), ref
        if cmd == "perturb":
            return checks.check_perturb(ref, str(workdir / "perturb.json")), ref
        return checks.check_invert(ref, str(workdir / "invert.csv"), fam_seed), ref
    except Exception as exc:  # unreadable output: a failure of the op
        return [f"verification raised {type(exc).__name__}: {exc}"], ref


def run_round(mains, wl, seed, round_no, workdir, probe, tracer=None):
    fam_seed = family_seed(seed, round_no)
    for old in workdir.iterdir():
        old.unlink()
    ops, ref = [], None
    for i, (cmd, argv) in enumerate(round_commands(wl, fam_seed, workdir)):
        op = {"round": round_no, "command": cmd, "op": round_no * len(COMMANDS) + i}
        if cmd != "generate" and ref is None:
            ops.append({**op, "seconds": None, "problems": ["not run: no family file"]})
            continue
        probe_s = probe.time()
        if tracer:
            tracer.begin_op(op["op"])
        seconds, rc, err = call(mains[cmd], argv)
        if rc == 0:
            # the checks call numpy.linalg too; keep them out of the trace
            with tracer.paused() if tracer else contextlib.nullcontext():
                problems, ref = verify(cmd, wl, workdir, fam_seed, ref)
        else:
            problems = [f"exit code {rc}: {err.strip()[-800:]}"]
        ops.append({**op, "seconds": seconds, "probe_s": probe_s, "problems": problems})
    return ops


def set_up(main, wl, workdir, probe) -> tuple[float, float]:
    """One set-up: write a small family and run every command on it once.

    Returns (seconds, probe time just before it).
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    probe_s = probe.time()
    start = time.perf_counter()
    for cmd, argv in round_commands(wl.warmup(), 0, workdir):
        _, rc, err = call(main, argv)
        if rc != 0:
            raise RuntimeError(f"warm-up {cmd} failed with {rc}: {err}")
    return time.perf_counter() - start, probe_s


def tail(values):
    """Highest order statistic with ten samples above it: (value, percentile, n).

    Below 11 samples no value has ten above it; the minimum is reported and
    the sample count says so.
    """
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def command_stats(ops):
    """Per-command median and tail at reference speed, with the raw samples."""
    stats = {}
    for cmd in COMMANDS:
        ok = [o for o in ops if o["command"] == cmd and not o["problems"]]
        xs = [at_reference_speed(o["seconds"], o["probe_s"]) for o in ok]
        if xs:
            value, pct, n = tail(xs)
            stats[cmd] = {"p50": statistics.median(xs), "tail": value,
                          "tail_percentile": pct, "n": n, "samples": xs,
                          "wall_p50": statistics.median(o["seconds"] for o in ok),
                          "wall_samples": [o["seconds"] for o in ok],
                          "probe_samples": [o["probe_s"] for o in ok]}
    return stats


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        cli_main, hsframe_file = import_hsframe()
    except ImportError as exc:
        print(f"cannot import hsframe from this checkout: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    workdir = BENCH / "work" / f"{wl.name}-{os.getpid()}"
    probe = SpeedProbe()
    try:
        setup_reps = [set_up(cli_main, wl, workdir, probe) for _ in range(SETUP_REPS)]
        # each set-up, imports included, at the speed probed just before it
        setup_s = statistics.median(at_reference_speed(import_s + rep_s, probe_s)
                                    for rep_s, probe_s in setup_reps)

        tracer = None
        mains = {cmd: cli_main for cmd in COMMANDS}
        if args.trace:
            tracer = layers.Tracer()
            layers.install(tracer)
            mains = {cmd: tracer.wrap(f"cli.{cmd}", cli_main) for cmd in COMMANDS}

        ops, rounds = [], 0
        loop_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - loop_start
            if args.trace:
                if rounds >= TRACE_ROUNDS:
                    break
            elif (elapsed >= args.seconds and rounds >= MIN_ROUNDS) or elapsed >= MAX_LOOP_S:
                break
            ops += run_round(mains, wl, args.seed, rounds, workdir, probe, tracer)
            rounds += 1
        loop_s = time.perf_counter() - loop_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = command_stats(ops)
    attempted = len(ops)
    failed = sum(1 for o in ops if o["problems"])
    busy = sum(at_reference_speed(o["seconds"], o["probe_s"])
               for o in ops if o["seconds"] is not None)

    record = {
        "workload": dataclasses.asdict(wl),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "loop_s": loop_s,
        "checkout": {"hsframe_file": hsframe_file, "commit": envinfo.git_commit(ROOT)},
        "environment": envinfo.environment(),
        "import_s": import_s, "setup_reps_s": setup_reps,
        "commands": stats,
        "failures": [o for o in ops if o["problems"]],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}"

    if args.trace:
        with open(ROOT / "BENCHMARK.json") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        values = layers.per_layer(tracer, [[o["op"] for o in ops if o["round"] == r]
                                           for r in range(rounds)], units)
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        spans_path = RESULTS / f"{stem}-spans.jsonl"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["overhead"] = tracing_overhead(stats, RESULTS / f"{stem}-trace0.json")
    else:
        metrics = {"setup_s": (setup_s, "s"), "ops_per_s": ((attempted - failed) / busy, "1/s")}
        for cmd in COMMANDS:
            st = stats.get(cmd, {})
            metrics[f"{cmd}_s.p50"] = (st.get("p50"), "s")
            metrics[f"{cmd}_s.tail"] = (st.get("tail"), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["metrics"] = metrics
    record["attempted"], record["failed"] = attempted, failed
    with open(RESULTS / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# hsframe {hsframe_file} commit {record['checkout']['commit']}")
    print(f"# {wl.name} seed {args.seed}: {rounds} rounds in {loop_s:.1f} s, "
          f"{attempted} ops, {failed} failed; times at reference speed")
    for cmd, st in stats.items():
        print(f"# {cmd}: p50 {st['p50']:.4f} s, tail p{st['tail_percentile']:.0f} "
              f"{st['tail']:.4f} s over {st['n']} samples (wall p50 {st['wall_p50']:.4f} s)")
    for o in record["failures"][:5]:
        print(f"# FAILED round {o['round']} {o['command']}: "
              f"{o['problems'][0].splitlines()[-1]}")
    if args.trace:
        print(f"# tracing overhead: {json.dumps(record['overhead'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def tracing_overhead(traced, untraced_path):
    """Traced per-command medians beside the untraced run's of the same seed."""
    try:
        with open(untraced_path) as fh:
            untraced = json.load(fh)
        commands = untraced["commands"]
    except (OSError, ValueError, KeyError):
        return {"note": f"no untraced result at {untraced_path.name}; run --trace 0 first"}
    out = {}
    for cmd, st in traced.items():
        if cmd in commands:
            # the traced run covers the first TRACE_ROUNDS families; compare like with like
            p50 = statistics.median(commands[cmd]["samples"][: st["n"]])
            out[cmd] = {"traced_p50": st["p50"], "untraced_p50": p50,
                        "overhead": st["p50"] / p50 - 1.0}
    return out


if __name__ == "__main__":
    sys.exit(main())
