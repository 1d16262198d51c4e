"""Command line front end: generate | analyze | invert | perturb.

Exit codes: 0 success, 2 validation or precondition failure, 3 numeric
failure, 4 I/O or parse failure.  ``--seed`` falls back to the
HSFRAME_SEED environment variable, then 0; it must be an int >= 0.  ``analyze``
checks it like every command but draws nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import generators
from .core import check_int
from .errors import NumericError, ParseError, ValidationError
from .family import (
    DEFAULT_RANK_TOL,
    canonical_dual,
    classify,
    frame_bounds,
    frame_operator_hs_norm_bound,
    riesz_inequality_check,
    verify_alternate_dual,
)
from .perturbation import PerturbationConstants, check_condition, perturb_family
from .projection import SectionSchedule, convergence_sweep
from .serialization import (
    format_sig,
    load_family,
    save_family,
    utc_timestamp,
    write_convergence_csv,
    write_json_report,
)


def _resolve_seed(value):
    if value is None:
        env = os.environ.get("HSFRAME_SEED")
        if env is None:
            return 0
        try:
            value = int(env)
        except ValueError as exc:
            raise ValidationError(f"HSFRAME_SEED={env!r} is not an integer") from exc
    return check_int("seed", value, 0)


def _parse_vector(text):
    try:
        return np.array([complex(tok.strip()) for tok in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"bad vector {text!r}: {exc}") from exc


def cmd_generate(args) -> int:
    seed = _resolve_seed(args.seed)
    kind = args.kind
    if kind == "onb":  # --dim-h alone fixes it: dim_k 1, count dim_h, flat spectrum
        given = [k for k in ("dim_k", "count", "spectrum") if vars(args)[k] is not None]
        if given:
            raise ValidationError(f"--kind onb takes no {', '.join(given)}")
        family = generators.onb_family(args.dim_h)
    elif args.count is None:
        raise ValidationError(f"--count is required for --kind {kind}")
    else:
        shape = (args.dim_h, 1 if args.dim_k is None else args.dim_k, args.count)
        spectrum = "flat" if args.spectrum is None else args.spectrum
        spectrum = generators.SpectrumSpec.parse(spectrum)
        if kind == "random":
            family = generators.random_family(*shape, spectrum, seed)
        elif kind == "riesz":
            family = generators.riesz_family(*shape, spectrum, seed)
        elif spectrum.kind != "geometric":
            raise ValidationError(
                "--kind decaying takes its tail ratio from --spectrum geometric:RATIO"
            )
        else:
            family = generators.decaying_family(*shape, spectrum.ratio, seed)
    save_family(family, args.out)
    lo, hi = frame_bounds(family)
    print(
        f"wrote {args.out}: dim_h={family.dim_h} dim_k={family.dim_k} "
        f"count={family.count} bounds=({format_sig(lo)}, {format_sig(hi)})"
    )
    return 0


def cmd_analyze(args) -> int:
    family = load_family(args.input)
    _resolve_seed(args.seed)  # checked like every command's; analyze draws nothing
    report = classify(family, args.rank_tol)
    hs, hs_bound = frame_operator_hs_norm_bound(family)
    doc = {
        "experiment": f"analyze:{os.path.basename(args.input)}",
        "timestamp": utc_timestamp(),
        "input": args.input,
        "dim_h": family.dim_h,
        "dim_k": family.dim_k,
        "count": family.count,
        "frame_report": dataclasses.asdict(report),
        "riesz_ratio_check": {"min_ratio": riesz_inequality_check(family)},
        "frame_operator_hs_norm": {"value": hs, "bound": hs_bound},
    }
    if report.frame:
        dual = canonical_dual(family, args.rank_tol)
        dual_check = verify_alternate_dual(family, dual)
        doc["canonical_dual"] = {
            "bounds": list(frame_bounds(dual)),
            "dual_identity_ok": dual_check.ok,
            "max_residual": dual_check.max_residual,
        }
    else:
        doc["canonical_dual"] = None
    if args.out:
        write_json_report(args.out, doc)
    flags = "+".join(n for n in ("frame", "riesz") if getattr(report, n))
    print(
        f"{args.input}: {flags or 'not a frame'} bounds="
        f"({format_sig(report.lower_bound)}, {format_sig(report.upper_bound)})"
    )
    return 0


def cmd_invert(args) -> int:
    family = load_family(args.input)
    seed = _resolve_seed(args.seed)
    if args.vector is not None:
        f = _parse_vector(args.vector)
    else:
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(family.dim_h) + 1j * rng.standard_normal(family.dim_h)
        f /= np.linalg.norm(f)
    schedule = SectionSchedule.parse(args.schedule, family.count)
    records = convergence_sweep(
        family, schedule, f, lam=args.lam, rank_tol=args.rank_tol
    )
    write_convergence_csv(
        args.out,
        records,
        experiment=f"invert:{os.path.basename(args.input)}",
        seed=seed if args.vector is None else "vector",
    )
    last = records[-1]
    print(
        f"wrote {args.out}: {len(records)} rows, final err_plain="
        f"{format_sig(last.err_plain)} err_oversampled="
        f"{format_sig(last.err_oversampled)}"
    )
    return 0


def cmd_perturb(args) -> int:
    family = load_family(args.input)
    seed = _resolve_seed(args.seed)
    gamma, certified_constants = perturb_family(
        family, args.mode, args.magnitude, seed=seed
    )
    overrides = {
        "lambda1": args.lambda1,
        "lambda2": args.lambda2,
        "mu": args.mu,
    }
    if any(v is not None for v in overrides.values()):
        constants = PerturbationConstants(
            **{k: (v if v is not None else 0.0) for k, v in overrides.items()}
        )
    else:
        constants = certified_constants
    verdict = check_condition("analysis", family, gamma, constants)
    doc = {
        "experiment": f"perturb:{os.path.basename(args.input)}",
        "timestamp": utc_timestamp(),
        "input": args.input,
        "perturbation_mode": args.mode,
        "magnitude": args.magnitude,
        "seed": seed,
        "constants": dataclasses.asdict(constants),
        "condition_mode": verdict.mode,
        "certified": verdict.certified,
        "empirical_margin": verdict.empirical_margin,
        "original_bounds": list(frame_bounds(family)),
        "predicted_bounds": list(verdict.predicted_bounds),
        "actual_bounds": list(verdict.actual_bounds),
        "witness": [[z.real, z.imag] for z in verdict.witness]
        if verdict.witness is not None
        else None,
    }
    if args.out:
        write_json_report(args.out, doc)
    pa, pb = verdict.predicted_bounds
    aa, ab = verdict.actual_bounds
    print(
        f"{args.mode} magnitude={args.magnitude}: certified={verdict.certified} "
        f"predicted=({format_sig(pa)}, {format_sig(pb)}) "
        f"actual=({format_sig(aa)}, {format_sig(ab)})"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsframe",
        description="Operator-valued frame toolbox: generation, classification, "
        "sectional inversion, perturbation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a family file")
    p_gen.add_argument("--kind", required=True,
                       choices=("onb", "random", "riesz", "decaying"))
    p_gen.add_argument("--dim-h", type=int, required=True)
    p_gen.add_argument("--dim-k", type=int, help="default 1")
    p_gen.add_argument("--count", type=int)
    p_gen.add_argument("--spectrum", help="flat[:LEVEL] (default flat) | "
                       "geometric:RATIO | explicit:V1,V2,...")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_ana = sub.add_parser("analyze", help="classify a family and its duals")
    p_ana.add_argument("--input", required=True)
    p_ana.add_argument("--out")
    p_ana.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
    p_ana.add_argument("--seed", type=int)
    p_ana.set_defaults(func=cmd_analyze)

    p_inv = sub.add_parser("invert", help="sectional inverse convergence sweep")
    p_inv.add_argument("--input", required=True)
    p_inv.add_argument("--vector", help="comma-separated complex entries")
    p_inv.add_argument("--seed", type=int)
    p_inv.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p_inv.add_argument("--schedule", default="prefix:all")
    p_inv.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
    p_inv.add_argument("--out", required=True)
    p_inv.set_defaults(func=cmd_invert)

    p_per = sub.add_parser("perturb", help="perturb a family and check stability")
    p_per.add_argument("--input", required=True)
    p_per.add_argument("--mode", required=True,
                       choices=("additive-analysis", "scale", "blockwise"))
    p_per.add_argument("--magnitude", type=float, required=True)
    p_per.add_argument("--lambda1", type=float)
    p_per.add_argument("--lambda2", type=float)
    p_per.add_argument("--mu", type=float)
    p_per.add_argument("--seed", type=int)
    p_per.add_argument("--out")
    p_per.set_defaults(func=cmd_perturb)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building it costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
