"""Stability of frame families under perturbation.

Every condition here has one form: |D x| <= sum_i c_i |A_i x| for all x,
where D is a deviation operator, each A_i an operator of the base family
(T, S) or of the perturbed one (T~, S~) or the identity, and the c_i are
the constants lambda1, lambda2, mu, nu.  The paper applies it on four
levels:

* analysis: D = (T - T~)^H on H, with lambda1 T^H, lambda2 T~^H, mu I;
* synthesis and synthesis-coefficient: D = T - T~ on coefficient
  sequences, with lambda1 T, lambda2 T~, mu I;
* frame-operator: D = S - S~ on H, with lambda1 S, lambda2 S~, mu T^H,
  nu T~^H.

The Casazza-Christensen lemma (``cc_lemma_check``) is the same form with
D = I - U, lambda1 I and lambda2 U.  Admissible constants (small enough
against the lower bound) force the perturbed family to be a frame, with
closed-form bounds on the analysis/synthesis levels.

D is factored once: a thin SVD, or ``eigh`` in frame-operator mode where D
is Hermitian.  The thin SVD of each A_i comes from the family's cached one
(T^H = V s U^H, S = U s^2 U^H).  When at most one constant is active the
condition is decided exactly ("certified"): sigma_max(D) <= c for the
identity, otherwise D whitened by the singular values of A must have norm
<= c, with ker A inside ker D (exactly, on H).  Every condition is also
sampled in one batch: random unit vectors, D's extreme directions and the
extreme right singular vectors of the lambda1/lambda2 operators.  The
empirical margin is the smallest slack over the samples, the witness the
worst violating sample.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def check_trials(trials) -> None:
    """Reject a sample count that is not an integer >= 0."""
    if (
        isinstance(trials, bool)
        or not isinstance(trials, numbers.Integral)
        or trials < 0
    ):
        raise ValidationError(f"trials must be an integer >= 0, got {trials!r}")


@dataclass(frozen=True)
class PerturbationConstants:
    lambda1: float = 0.0
    lambda2: float = 0.0
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "mu", "nu"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not 0.0 <= value < math.inf
            ):
                raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


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


class _Term(NamedTuple):
    """One summand c |A x| of a condition; ``op`` None stands for the identity.

    Otherwise ``s`` and ``vh`` are A's singular values and right singular
    vectors, and ``kernel_tol`` bounds |D x| on the numerical kernel of A.
    """

    c: float
    op: np.ndarray | None
    s: np.ndarray | None = None
    vh: np.ndarray | None = None
    kernel_tol: float = 0.0


def _svd_term(c: float, op: np.ndarray, svd: ThinSVD) -> _Term:
    """c |A x| where ``svd`` is A's own thin SVD, as for T on coefficient
    sequences: there ker T is structural, and D need only vanish on it up
    to 1e-12 |T|."""
    return _Term(c, op, svd.s, svd.vh, 1e-12 * float(svd.s[0]))


def _h_term(c: float, op: np.ndarray, svd: ThinSVD, power: int) -> _Term:
    """c |A x| on H for A = T^H (power 1) or S = T T^H (power 2), read from
    T = U s V^H: A = (V or U) s^power U^H.

    The numerical kernel is cut on A's own singular values, s^2 for S, the
    scale the dense D = S - S~ resolves.  D must vanish exactly on it: for
    the candidate's operator the condition fails there in exact arithmetic
    (D x is the base family's T^H x or S x, nonzero for a frame), and for
    the base family's operator those directions are below what D resolves.
    """
    return _Term(c, op, svd.s**power, svd.u.conj().T, 0.0)


def _condition(
    mode: str,
    family: HSFrameFamily,
    candidate: HSFrameFamily,
    constants: PerturbationConstants,
) -> tuple[np.ndarray, list[_Term]]:
    """D and the terms of |D x| <= sum_i c_i |A_i x| for one mode.

    The first term is always lambda1 with an operator of the base family.
    """
    l1, l2, mu, nu = constants.lambda1, constants.lambda2, constants.mu, constants.nu
    t_g, t_c = family.synthesis_matrix, candidate.synthesis_matrix
    svd_g, svd_c = family.svd, candidate.svd
    if mode == "analysis":
        return (t_g - t_c).conj().T, [
            _h_term(l1, t_g.conj().T, svd_g, 1),
            _h_term(l2, t_c.conj().T, svd_c, 1),
            _Term(mu, None),
        ]
    if mode in ("synthesis", "synthesis-coefficient"):
        return t_g - t_c, [
            _svd_term(l1, t_g, svd_g),
            _svd_term(l2, t_c, svd_c),
            _Term(mu, None),
        ]
    s_g, s_c = frame_operator(family), frame_operator(candidate)
    return s_g - s_c, [
        _h_term(l1, s_g, svd_g, 2),
        _h_term(l2, s_c, svd_c, 2),
        _h_term(mu, t_g.conj().T, svd_g, 1),
        _h_term(nu, t_c.conj().T, svd_c, 1),
    ]


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


def _factor_deviation(d: np.ndarray, hermitian: bool) -> tuple[float, list[np.ndarray]]:
    """sigma_max(D) and D's two extreme directions, from one factorization:
    the extreme eigenvectors when D is Hermitian, else the extreme right
    singular vectors."""
    if hermitian:
        w, vecs = np.linalg.eigh(d)
        return max(-float(w[0]), float(w[-1])), [vecs[:, 0], vecs[:, -1]]
    _, s, vh = np.linalg.svd(d, full_matrices=False)
    return float(s[0]), _extremal_right_singular(vh)


def _restricted_ratio_cert(delta: np.ndarray, term: _Term) -> bool:
    """Certify |delta x| <= c |A x| for every x, exactly, when A != 0.

    Needs ker A (singular values at most 1e-14 of the largest) inside ker
    delta, tested as |delta - delta V_r^H V_r|_2 <= ``kernel_tol`` without a
    full V; on the complement the supremum of the ratio is a single operator
    norm after whitening by A's singular values.
    """
    rank = numerical_rank(term.s, 1e-14)
    v_r = term.vh[:rank]
    restricted = delta @ v_r.conj().T
    if rank < delta.shape[1]:
        if float(np.linalg.norm(delta - restricted @ v_r, ord=2)) > term.kernel_tol:
            return False
    ratio = float(np.linalg.norm(restricted / term.s[:rank], ord=2))
    return ratio <= term.c * (1.0 + _CERT_RTOL) + 1e-14


def _vanishing_tol(terms: list[_Term]) -> float:
    """With no active constant the condition is D = 0; this is how small
    |D| must be, at the scale of the base family's operator."""
    return 1e-13 * max(float(terms[0].s[0]), 1.0)


def _certified(d: np.ndarray, d_norm: float, terms: list[_Term]) -> bool:
    """Decide the condition exactly when at most one constant is active;
    False means 'not certified' (the condition may still hold empirically)."""
    active = [t for t in terms if t.c > 0.0]
    if not active:
        return d_norm <= _vanishing_tol(terms)
    if len(active) > 1:
        return False
    (term,) = active
    if term.op is None:
        return d_norm <= term.c * (1.0 + _CERT_RTOL) + 1e-14
    if term.s[0] == 0.0:  # A = 0, so D must vanish
        return d_norm <= 1e-14
    return _restricted_ratio_cert(d, term)


def _sampled_margin(
    d: np.ndarray,
    d_dirs: list[np.ndarray],
    terms: list[_Term],
    trials: int,
    seed: int,
    witness_tol: float,
) -> tuple[float, np.ndarray | None]:
    """Smallest sum_i c_i |A_i x| - |D x| over the samples, and the worst
    sample when it violates the condition by more than ``witness_tol``.

    The samples are the columns of one array: ``trials`` random unit
    vectors, D's extreme directions ``d_dirs`` and the extreme right
    singular vectors of the lambda1 and lambda2 operators.
    """
    z = np.random.default_rng(seed).standard_normal((trials, 2, d.shape[1]))
    x = z[:, 0] + 1j * z[:, 1]
    dirs = list(d_dirs)
    for t in terms[:2]:
        if t.vh is not None:
            dirs += _extremal_right_singular(t.vh)
    x = np.hstack(
        [(x / np.linalg.norm(x, axis=1, keepdims=True)).T, np.column_stack(dirs)]
    )
    rhs = np.zeros(x.shape[1])
    for t in terms:
        if t.c > 0.0:
            rhs += t.c * np.linalg.norm(x if t.op is None else t.op @ x, axis=0)
    gap = rhs - np.linalg.norm(d @ x, axis=0)
    worst = int(np.argmin(gap))
    margin = float(gap[worst])
    return margin, (x[:, worst] if margin < -witness_tol else None)


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
    check_trials(trials)
    um = np.asarray(u, dtype=np.complex128)
    if um.ndim != 2 or um.shape[0] != um.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {um.shape}")
    dev = np.eye(um.shape[0]) - um
    svd_u = ThinSVD(*np.linalg.svd(um, full_matrices=False))
    sigma_min, sigma_max = float(svd_u.s[-1]), float(svd_u.s[0])
    dev_norm, dev_dirs = _factor_deviation(dev, hermitian=False)

    envelope = lambda1 + lambda2 * sigma_min
    certified = dev_norm <= envelope * (1.0 + _CERT_RTOL) + 1e-15
    terms = [_Term(lambda1, None), _svd_term(lambda2, um, svd_u)]
    margin, witness = _sampled_margin(dev, dev_dirs, terms, trials, seed, _MARGIN_TOL)
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
    always reported, along with the worst violating sample if any.
    Predicted bounds are filled for the analysis/synthesis modes, which
    admit closed-form bounds; the frame-operator and synthesis-coefficient
    conditions guarantee frame-ness only.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected one of {MODES}")
    _check_pair(family, candidate)
    check_trials(trials)
    a_g, b_g = frame_bounds(family)
    actual = frame_bounds(candidate)
    check_admissible(constants, a_g, bessel_of_candidate=actual[1], mode=mode)

    d, terms = _condition(mode, family, candidate, constants)
    d_norm, d_dirs = _factor_deviation(d, hermitian=mode == "frame-operator")
    # with no constant active a witness must beat the certificate's own slack
    active = any(t.c > 0.0 for t in terms)
    witness_tol = _MARGIN_TOL if active else _vanishing_tol(terms)
    margin, witness = _sampled_margin(d, d_dirs, terms, trials, seed, witness_tol)
    if mode in ("analysis", "synthesis"):
        predicted = predicted_bounds(
            a_g, b_g, constants.lambda1, constants.lambda2, constants.mu
        )
    else:
        predicted = None
    return PerturbationVerdict(
        mode=mode,
        certified=_certified(d, d_norm, terms),
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
