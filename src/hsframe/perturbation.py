"""Stability of frame families under perturbation.

The conditions compare a deviation norm against a combination
lambda1 * (original term) + lambda2 * (perturbed term) + mu * (plain norm)
on four levels: per-vector analysis sums, synthesis of coefficient
sequences, the frame operators themselves, and synthesis differences used
as a surjectivity argument.  Admissible constants (small enough against
the lower bound) then force the perturbed family to be a frame, with
closed-form bounds on the analysis/synthesis levels.

Verification is two-tier: when at most one constant is nonzero the
condition is a norm comparison that factorizations decide exactly
("certified"); otherwise it is sampled on random vectors together with
every extremal singular/eigen direction of the operators involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ValidationError
from .family import (
    DEFAULT_RANK_TOL,
    HSFrameFamily,
    ThinSVD,
    classify,
    frame_bounds,
    frame_operator,
    numerical_rank,
)

__all__ = [
    "PerturbationConstants",
    "PerturbationVerdict",
    "CCLemmaReport",
    "RieszStabilityVerdict",
    "cc_lemma_check",
    "predicted_bounds",
    "predicted_bounds_simple",
    "analysis_deviation",
    "check_condition",
    "perturb_family",
    "riesz_stability_check",
]

MODES = ("analysis", "synthesis", "frame-operator", "synthesis-coefficient")

_CERT_RTOL = 1e-10
_MARGIN_TOL = 1e-12


@dataclass(frozen=True)
class PerturbationConstants:
    lambda1: float = 0.0
    lambda2: float = 0.0
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "mu", "nu"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0")


@dataclass(frozen=True)
class PerturbationVerdict:
    mode: str
    certified: bool
    empirical_margin: float
    witness: np.ndarray | None
    predicted_bounds: tuple[float, float] | None
    actual_bounds: tuple[float, float]
    admissible: bool


@dataclass(frozen=True)
class CCLemmaReport:
    certified: bool
    satisfied: bool
    condition_margin: float
    invertible: bool
    sigma_min: float
    sigma_max: float
    forward_bounds: tuple[float, float]
    inverse_bounds: tuple[float, float]
    sandwich_ok: bool
    witness: np.ndarray | None


@dataclass(frozen=True)
class RieszStabilityVerdict:
    status: str  # "confirmed" | "violated" | "inconclusive"
    riesz_preserved: bool | None
    predicted_bounds: tuple[float, float] | None
    actual_riesz_bounds: tuple[float, float] | None
    condition: PerturbationVerdict | None
    reason: str = ""


def check_admissible(
    constants: PerturbationConstants,
    lower: float,
    bessel_of_candidate: float | None = None,
    mode: str = "analysis",
) -> None:
    """Raise naming the violated inequality if the constants are too large."""
    if lower <= 0.0:
        raise ValidationError("admissibility needs a positive lower bound")
    l1, l2, mu, nu = constants.lambda1, constants.lambda2, constants.mu, constants.nu
    if mode == "frame-operator":
        if bessel_of_candidate is None:
            raise ValidationError(
                "frame-operator admissibility needs the candidate's Bessel bound"
            )
        left = l1 + mu / math.sqrt(lower) + nu * math.sqrt(bessel_of_candidate) / lower
        if left >= 1.0:
            raise ValidationError(
                f"inadmissible constants: lambda1 + mu/sqrt(A) + nu*sqrt(D)/A "
                f"= {left} >= 1"
            )
    else:
        if nu != 0.0:
            raise ValidationError("nu is only meaningful in frame-operator mode")
        left = l1 + mu / math.sqrt(lower)
        if left >= 1.0:
            raise ValidationError(
                f"inadmissible constants: lambda1 + mu/sqrt(A) = {left} >= 1"
            )
    if l2 >= 1.0:
        raise ValidationError(f"inadmissible constants: lambda2 = {l2} >= 1")


def predicted_bounds(
    lower: float,
    upper: float,
    lambda1: float = 0.0,
    lambda2: float = 0.0,
    mu: float = 0.0,
) -> tuple[float, float]:
    """Closed-form frame bounds of a perturbed family.

    Lower bound shrinks to A (1 - (l1+l2+mu/sqrt(A)) / (1+l2))^2, upper
    grows to B (1 + (l1+l2+mu/sqrt(B)) / (1-l2))^2.
    """
    constants = PerturbationConstants(lambda1, lambda2, mu)
    check_admissible(constants, lower)
    a = lower * (1.0 - (lambda1 + lambda2 + mu / math.sqrt(lower)) / (1.0 + lambda2)) ** 2
    b = upper * (1.0 + (lambda1 + lambda2 + mu / math.sqrt(upper)) / (1.0 - lambda2)) ** 2
    return a, b


def predicted_bounds_simple(lower: float, upper: float, m: float) -> tuple[float, float]:
    """Bounds when the summed analysis deviation is at most m < A."""
    if m < 0.0:
        raise ValidationError(f"deviation bound must be >= 0, got {m}")
    if m >= lower:
        raise ValidationError(f"deviation bound m = {m} must be < lower bound {lower}")
    return predicted_bounds(lower, upper, 0.0, 0.0, math.sqrt(m))


def analysis_deviation(family: HSFrameFamily, other: HSFrameFamily) -> float:
    """Smallest M with sum_j |(G_j - H_j) f|^2 <= M |f|^2 for all f."""
    _check_pair(family, other)
    delta = family.synthesis_matrix - other.synthesis_matrix
    return float(np.linalg.norm(delta, ord=2)) ** 2


def _check_pair(family: HSFrameFamily, other: HSFrameFamily) -> None:
    if (
        family.dim_h != other.dim_h
        or family.dim_k != other.dim_k
        or family.count != other.count
    ):
        raise ValidationError("families must share dim_h, dim_k and count")


def _unit_samples(rng, dim: int, trials: int) -> list[np.ndarray]:
    out = []
    for _ in range(trials):
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(x / np.linalg.norm(x))
    return out


def _extreme_columns(vecs: np.ndarray) -> list[np.ndarray]:
    """First and last column: the extreme singular or eigen directions."""
    return [vecs[:, 0], vecs[:, -1]]


def _extremal_right_singular(vh: np.ndarray) -> list[np.ndarray]:
    """Top and bottom right singular vectors from a thin SVD's ``vh``; for a
    wide matrix a kernel vector stands in for the bottom one."""
    if vh.shape[0] == vh.shape[1]:
        return [vh[0].conj(), vh[-1].conj()]
    # e_j minus its projection on the row space has norm^2 >= 1 - rows/cols
    j = int(np.argmin(np.linalg.norm(vh, axis=0)))
    kernel = -(vh.conj().T @ vh[:, j])
    kernel[j] += 1.0
    return [vh[0].conj(), kernel / np.linalg.norm(kernel)]


def _gen_eig_max(num: np.ndarray, den: np.ndarray) -> float | None:
    """Largest generalized eigenvalue of (num, den); None if den is not PD."""
    num = (num + num.conj().T) / 2.0
    den = (den + den.conj().T) / 2.0
    try:
        vals = sla.eigh(num, den, eigvals_only=True)
    except (sla.LinAlgError, ValueError):
        return None
    return float(vals[-1])


def cc_lemma_check(
    u,
    lambda1: float,
    lambda2: float,
    trials: int = 32,
    seed: int = 0,
) -> CCLemmaReport:
    """Check |Ux - x| <= l1 |x| + l2 |Ux| and the resulting norm sandwich.

    The exact sufficient certificate is sigma_max(I - U) <= l1 + l2 *
    sigma_min(U) (for l2 = 0 simply the operator norm test |I - U| <= l1);
    otherwise the condition is sampled.  When it holds, U is invertible and
    (1-l1)/(1+l2) <= |Ux|/|x| <= (1+l1)/(1-l2), with the reciprocal
    sandwich for the inverse; both are verified via singular values and on
    every sample.
    """
    if not (0.0 <= lambda1 < 1.0 and 0.0 <= lambda2 < 1.0):
        raise ValidationError("lambda1, lambda2 must lie in [0, 1)")
    um = np.asarray(u, dtype=np.complex128)
    if um.ndim != 2 or um.shape[0] != um.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {um.shape}")
    dim = um.shape[0]
    eye = np.eye(dim)
    dev = eye - um
    _, sig_u, vh_u = np.linalg.svd(um, full_matrices=False)
    _, sig_dev, vh_dev = np.linalg.svd(dev, full_matrices=False)
    sigma_min, sigma_max = float(sig_u[-1]), float(sig_u[0])
    dev_norm = float(sig_dev[0])

    envelope = lambda1 + lambda2 * sigma_min
    certified = dev_norm <= envelope * (1.0 + _CERT_RTOL) + 1e-15

    rng = np.random.default_rng(seed)
    samples = _unit_samples(rng, dim, trials)
    samples += _extremal_right_singular(vh_dev)
    samples += _extremal_right_singular(vh_u)
    margin = math.inf
    witness = None
    for x in samples:
        lhs = float(np.linalg.norm(um @ x - x))
        rhs = lambda1 * float(np.linalg.norm(x)) + lambda2 * float(
            np.linalg.norm(um @ x)
        )
        if rhs - lhs < margin:
            margin = rhs - lhs
            if margin < -_MARGIN_TOL:
                witness = x
    satisfied = certified or margin >= -_MARGIN_TOL

    fwd = ((1.0 - lambda1) / (1.0 + lambda2), (1.0 + lambda1) / (1.0 - lambda2))
    inv = ((1.0 - lambda2) / (1.0 + lambda1), (1.0 + lambda2) / (1.0 - lambda1))
    sandwich_ok = False
    invertible = sigma_min > 0.0
    if satisfied:
        rtol = 1e-10
        sandwich_ok = (
            sigma_min >= fwd[0] * (1.0 - rtol) - 1e-15
            and sigma_max <= fwd[1] * (1.0 + rtol) + 1e-15
            and invertible
            and 1.0 / sigma_max >= inv[0] * (1.0 - rtol) - 1e-15
            and 1.0 / sigma_min <= inv[1] * (1.0 + rtol) + 1e-15
        )
    return CCLemmaReport(
        certified=certified,
        satisfied=satisfied,
        condition_margin=margin,
        invertible=invertible,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        forward_bounds=fwd,
        inverse_bounds=inv,
        sandwich_ok=sandwich_ok,
        witness=witness,
    )


def _restricted_ratio_cert(delta: np.ndarray, base: ThinSVD, bound: float) -> bool:
    """Certify |delta c| <= bound * |base c| for every c, exactly.

    Needs ker(base) inside ker(delta), tested as |delta - delta V_r^H V_r|_2
    without a full V; on the complement the supremum of the ratio is a single
    operator norm after whitening by the singular values of ``base``.
    """
    smax = float(base.s[0])
    if smax == 0.0:
        return float(np.linalg.norm(delta, ord=2)) <= 1e-14
    rank = numerical_rank(base.s, 1e-14)
    v_r = base.vh[:rank]
    restricted = delta @ v_r.conj().T
    if rank < delta.shape[1]:
        if float(np.linalg.norm(delta - restricted @ v_r, ord=2)) > 1e-12 * smax:
            return False
    ratio = float(np.linalg.norm(restricted / base.s[:rank], ord=2))
    return ratio <= bound * (1.0 + _CERT_RTOL) + 1e-14


def _exact_certificate(
    mode: str,
    constants: PerturbationConstants,
    family: HSFrameFamily,
    candidate: HSFrameFamily,
    s_g: np.ndarray,
    s_c: np.ndarray,
) -> bool:
    """Try to decide the condition exactly; False means 'not certified'
    (the condition may still hold empirically)."""
    l1, l2, mu, nu = constants.lambda1, constants.lambda2, constants.mu, constants.nu
    active = [v for v in (l1, l2, mu, nu) if v > 0.0]
    if len(active) > 1:
        return False
    t_g = family.synthesis_matrix
    t_c = candidate.synthesis_matrix
    scale = max(float(family.svd.s[0]), 1.0)

    if mode == "analysis":
        delta = (t_g - t_c).conj().T  # acts on H
        if mu > 0.0:
            return float(np.linalg.norm(delta, ord=2)) <= mu * (1.0 + _CERT_RTOL) + 1e-14
        num = delta.conj().T @ delta
        if l1 > 0.0:
            top = _gen_eig_max(num, s_g)
        elif l2 > 0.0:
            top = _gen_eig_max(num, s_c)
        else:
            return float(np.linalg.norm(delta, ord=2)) <= 1e-13 * scale
        if top is None:
            return False
        bound = l1 if l1 > 0.0 else l2
        return top <= bound**2 * (1.0 + _CERT_RTOL) + 1e-14

    if mode in ("synthesis", "synthesis-coefficient"):
        delta = t_g - t_c  # acts on coefficient space
        if mu > 0.0:
            return float(np.linalg.norm(delta, ord=2)) <= mu * (1.0 + _CERT_RTOL) + 1e-14
        if l1 > 0.0:
            return _restricted_ratio_cert(delta, family.svd, l1)
        if l2 > 0.0:
            return _restricted_ratio_cert(delta, candidate.svd, l2)
        return float(np.linalg.norm(delta, ord=2)) <= 1e-13 * scale

    # frame-operator mode
    d_op = s_g - s_c
    num = d_op.conj().T @ d_op
    if mu > 0.0:
        top = _gen_eig_max(num, s_g)
        bound = mu
    elif nu > 0.0:
        top = _gen_eig_max(num, s_c)
        bound = nu
    elif l1 > 0.0:
        top = _gen_eig_max(num, s_g @ s_g)
        bound = l1
    elif l2 > 0.0:
        top = _gen_eig_max(num, s_c @ s_c)
        bound = l2
    else:
        return float(np.linalg.norm(d_op, ord=2)) <= 1e-13 * scale**2
    if top is None:
        return False
    return top <= bound**2 * (1.0 + _CERT_RTOL) + 1e-14


def check_condition(
    mode: str,
    family: HSFrameFamily,
    candidate: HSFrameFamily,
    constants: PerturbationConstants,
    trials: int = 64,
    seed: int = 0,
) -> PerturbationVerdict:
    """Evaluate one perturbation condition and compare predicted vs actual.

    ``certified`` is set only when an exact factorization decides the
    condition; the empirical margin (min of RHS - LHS over all samples) is
    always reported, along with the first violating sample if any.
    Predicted bounds are filled for the analysis/synthesis modes, which
    admit closed-form bounds; the frame-operator and synthesis-coefficient
    conditions guarantee frame-ness only.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected one of {MODES}")
    _check_pair(family, candidate)
    a_g, b_g = frame_bounds(family)
    actual = frame_bounds(candidate)
    if mode == "frame-operator":
        check_admissible(constants, a_g, bessel_of_candidate=actual[1], mode=mode)
    else:
        check_admissible(constants, a_g, mode=mode)

    t_g = family.synthesis_matrix
    t_c = candidate.synthesis_matrix
    s_g = frame_operator(family)
    s_c = frame_operator(candidate)
    certified = _exact_certificate(mode, constants, family, candidate, s_g, s_c)

    l1, l2, mu, nu = constants.lambda1, constants.lambda2, constants.mu, constants.nu
    rng = np.random.default_rng(seed)
    if mode in ("synthesis", "synthesis-coefficient"):
        delta = t_g - t_c
        samples = _unit_samples(rng, t_g.shape[1], trials)
        samples += _extremal_right_singular(np.linalg.svd(delta, full_matrices=False)[2])
        samples += _extremal_right_singular(family.svd.vh)
        samples += _extremal_right_singular(candidate.svd.vh)

        def lhs_rhs(c):
            lhs = float(np.linalg.norm(delta @ c))
            rhs = (
                l1 * float(np.linalg.norm(t_g @ c))
                + l2 * float(np.linalg.norm(t_c @ c))
                + mu * float(np.linalg.norm(c))
            )
            return lhs, rhs

    elif mode == "analysis":
        delta_h = (t_g - t_c).conj().T
        samples = _unit_samples(rng, family.dim_h, trials)
        samples += _extreme_columns(np.linalg.svd(t_g - t_c, full_matrices=False)[0])
        samples += _extreme_columns(family.svd.u)  # eigenvectors of S
        samples += _extreme_columns(candidate.svd.u)

        def lhs_rhs(f):
            lhs = float(np.linalg.norm(delta_h @ f))
            rhs = (
                l1 * float(np.linalg.norm(t_g.conj().T @ f))
                + l2 * float(np.linalg.norm(t_c.conj().T @ f))
                + mu * float(np.linalg.norm(f))
            )
            return lhs, rhs

    else:  # frame-operator
        d_op = s_g - s_c
        samples = _unit_samples(rng, family.dim_h, trials)
        samples += _extreme_columns(np.linalg.eigh(d_op)[1])
        samples += _extreme_columns(family.svd.u)
        samples += _extreme_columns(candidate.svd.u)

        def lhs_rhs(f):
            lhs = float(np.linalg.norm(d_op @ f))
            rhs = (
                l1 * float(np.linalg.norm(s_g @ f))
                + l2 * float(np.linalg.norm(s_c @ f))
                + mu * float(np.linalg.norm(t_g.conj().T @ f))
                + nu * float(np.linalg.norm(t_c.conj().T @ f))
            )
            return lhs, rhs

    margin = math.inf
    witness = None
    for x in samples:
        lhs, rhs = lhs_rhs(x)
        if rhs - lhs < margin:
            margin = rhs - lhs
            if margin < -_MARGIN_TOL and witness is None:
                witness = x

    if mode in ("analysis", "synthesis"):
        predicted = predicted_bounds(a_g, b_g, l1, l2, mu)
    else:
        predicted = None
    return PerturbationVerdict(
        mode=mode,
        certified=certified,
        empirical_margin=margin,
        witness=witness,
        predicted_bounds=predicted,
        actual_bounds=actual,
        admissible=True,
    )


def perturb_family(
    family: HSFrameFamily,
    mode: str,
    magnitude: float,
    seed: int = 0,
    indices=None,
) -> tuple[HSFrameFamily, PerturbationConstants]:
    """Construct a perturbed copy together with constants it certifies.

    * additive-analysis: adds a dense random synthesis perturbation scaled
      so the summed analysis deviation is exactly magnitude^2, certifying
      (0, 0, mu=magnitude).
    * scale: multiplies every map by (1 - magnitude), certifying
      (lambda1=magnitude, 0, 0).
    * blockwise: like additive-analysis but supported on a subset of
      indices (random nonempty subset unless given).
    """
    if not 0.0 <= magnitude < math.inf:
        raise ValidationError(f"magnitude must be finite and >= 0, got {magnitude}")
    t = family.synthesis_matrix
    rng = np.random.default_rng(seed)
    if mode == "scale":
        gamma = HSFrameFamily.from_synthesis_matrix(
            family.dim_h, family.dim_k, (1.0 - magnitude) * t
        )
        return gamma, PerturbationConstants(lambda1=magnitude)
    if mode not in ("additive-analysis", "blockwise"):
        raise ValidationError(
            f"unknown perturbation mode {mode!r}; "
            "expected additive-analysis, scale or blockwise"
        )
    delta = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
    if mode == "blockwise":
        blk = family.dim_k * family.dim_k
        if indices is None:
            size = int(rng.integers(1, family.count + 1))
            indices = rng.choice(family.count, size=size, replace=False)
        mask = np.zeros(t.shape[1], dtype=bool)
        for j in indices:
            if not 0 <= j < family.count:
                raise ValidationError(f"index {j} outside 0..{family.count - 1}")
            mask[j * blk : (j + 1) * blk] = True
        delta[:, ~mask] = 0.0
    norm = float(np.linalg.norm(delta, ord=2))
    if magnitude == 0.0 or norm == 0.0:
        delta = np.zeros_like(delta)
        magnitude = 0.0
    else:
        delta *= magnitude / norm
    gamma = HSFrameFamily.from_synthesis_matrix(family.dim_h, family.dim_k, t + delta)
    return gamma, PerturbationConstants(mu=magnitude)


def riesz_stability_check(
    family: HSFrameFamily,
    candidate: HSFrameFamily,
    constants: PerturbationConstants,
    trials: int = 64,
    seed: int = 0,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> RieszStabilityVerdict:
    """Riesz bases stay Riesz under the synthesis-level condition.

    Returns an inconclusive verdict (not an error) when the hypotheses are
    not verified: the base family must classify as Riesz and the synthesis
    condition must hold (certified or at least empirically).
    """
    base = classify(family, rank_tol)
    if not base.riesz:
        return RieszStabilityVerdict(
            status="inconclusive",
            riesz_preserved=None,
            predicted_bounds=None,
            actual_riesz_bounds=None,
            condition=None,
            reason="base family is not a Riesz basis",
        )
    verdict = check_condition("synthesis", family, candidate, constants, trials, seed)
    if not (verdict.certified or verdict.empirical_margin >= -_MARGIN_TOL):
        return RieszStabilityVerdict(
            status="inconclusive",
            riesz_preserved=None,
            predicted_bounds=verdict.predicted_bounds,
            actual_riesz_bounds=None,
            condition=verdict,
            reason="synthesis condition not verified for these constants",
        )
    rep = classify(candidate, rank_tol)
    a_pred, b_pred = verdict.predicted_bounds
    tol = 1e-9 * max(1.0, b_pred)
    ok = (
        rep.riesz
        and rep.riesz_lower >= a_pred - tol
        and rep.riesz_upper <= b_pred + tol
    )
    return RieszStabilityVerdict(
        status="confirmed" if ok else "violated",
        riesz_preserved=rep.riesz,
        predicted_bounds=(a_pred, b_pred),
        actual_riesz_bounds=(rep.riesz_lower, rep.riesz_upper)
        if rep.riesz
        else None,
        condition=verdict,
        reason="",
    )
