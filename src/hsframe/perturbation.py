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

D is factored at most once, into its singular values and right singular
vectors alone, the directions x in D's domain.  A tall D, as analysis
mode's (T - T~)^H usually is, and every tall whitened matrix go through
their square R factor (``core._right_svd``), so their tall U is never
formed.  A family drawn by ``perturb_family``'s additive modes, T~ = T +
Delta, carries the factors of its Delta: checked in analysis mode against
the family it was drawn from, D is -Delta^H up to rounding, and its
factorization is replaced by Delta's right singular vectors and the Weyl
bound sigma_max(D) <= sigma_max(Delta) + |D + Delta^H|_F.  D is factored
after all only when that bound does not settle a sigma_max rule.
Each A_i is held only as its thin SVD, read from the family's cached one
(T^H = V s U^H, S = U s^2 U^H): |A_i x| is |diag(s_i) W_i^H x|, W_i its
right singular vectors, and no dense T^H is copied for it.  On H (T^H and
S) W_i^H is U^H, so the analysis and frame-operator conditions read U and
s alone; only T's own terms, on coefficient sequences, read the family's
V^H, which is formed on that first read.  One decision
(``_decide``) finds that the condition holds ("certified"), that it fails
at a witness x checked with D applied directly and the same SVDs, or
neither within a fixed budget; the empirical margin is the smallest slack
over the directions it probed.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    _norm,
    _right_svd,
    _spectral_norm,
    as_matrix,
    as_tuple,
    check_instance,
    check_int,
    check_real,
)
from .errors import ValidationError
from .family import (
    DEFAULT_RANK_TOL,
    HSFrameFamily,
    ThinSVD,
    _check_pair,
    _positive_bounds,
    _require_rank,
    _squared,
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
# whitening tests one decision with several active constants may spend
_BOX_BUDGET = 512


@dataclass(frozen=True)
class PerturbationConstants:
    lambda1: float = 0.0
    lambda2: float = 0.0
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "mu", "nu"):
            check_real(name, getattr(self, name), 0.0, math.inf, closed=(True, False))


@dataclass(frozen=True)
class PerturbationVerdict:
    mode: str
    certified: bool
    empirical_margin: float
    witness: np.ndarray | None
    predicted_bounds: tuple[float, float] | None
    actual_bounds: tuple[float, float]


@dataclass(frozen=True)
class CCLemmaReport:
    certified: bool
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
    riesz_preserved: bool | None = None
    predicted_bounds: tuple[float, float] | None = None
    actual_riesz_bounds: tuple[float, float] | None = None
    condition: PerturbationVerdict | None = None
    reason: str = ""


def check_admissible(
    constants: PerturbationConstants,
    lower: float,
    bessel_of_candidate: float | None = None,
    mode: str = "analysis",
) -> None:
    """Raise naming the violated inequality if the constants are too large."""
    check_instance("constants", constants, PerturbationConstants)
    check_real("lower", lower, 0.0, math.inf)
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
    check_real("upper", upper, lower, math.inf, closed=(True, False))
    a = lower * (1.0 - (lambda1 + lambda2 + mu / math.sqrt(lower)) / (1.0 + lambda2)) ** 2
    b = upper * (1.0 + (lambda1 + lambda2 + mu / math.sqrt(upper)) / (1.0 - lambda2)) ** 2
    return a, b


def predicted_bounds_simple(lower: float, upper: float, m: float) -> tuple[float, float]:
    """Bounds when the summed analysis deviation is at most m < A."""
    lower = check_real("lower", lower, 0.0, math.inf)
    check_real("m", m, 0.0, lower, closed=(True, False))
    return predicted_bounds(lower, upper, 0.0, 0.0, math.sqrt(m))


def analysis_deviation(family: HSFrameFamily, other: HSFrameFamily) -> float:
    """Smallest M with sum_j |(G_j - H_j) f|^2 <= M |f|^2 for all f."""
    _check_pair(family, other, "other")
    delta = family.synthesis_matrix - other.synthesis_matrix
    return _squared(_spectral_norm(delta))


class _Term(NamedTuple):
    """One summand c |A x| of a condition; ``s`` None stands for the identity.

    Otherwise ``s`` and ``vh`` are A's singular values and right singular
    vectors, so |A x| = |diag(s) V^H x|, and ``kernel_tol`` bounds |D x| on
    the numerical kernel of A.
    """

    c: float
    s: np.ndarray | None = None
    vh: np.ndarray | None = None
    kernel_tol: float = 0.0


def _svd_term(c: float, s: np.ndarray, vh: np.ndarray) -> _Term:
    """c |A x| from A's own singular values ``s`` and right singular vectors
    ``vh``, as for T on coefficient sequences: there ker T is structural,
    and D need only vanish on it up to 1e-12 |T|."""
    return _Term(c, s, vh, 1e-12 * float(s[0]))


def _h_term(c: float, svd: ThinSVD, power: int) -> _Term:
    """c |A x| on H for A = T^H (power 1) or S = T T^H (power 2), read from
    T = U s V^H: A = (V or U) s^power U^H.

    The numerical kernel is cut on A's own singular values, s^2 for S, the
    scale the dense D = S - S~ resolves.  D must vanish exactly on it: for
    the candidate's operator the condition fails there in exact arithmetic
    (D x is the base family's T^H x or S x, nonzero for a frame), and for
    the base family's operator those directions are below what D resolves.
    """
    return _Term(c, svd.s**power, svd.u.conj().T, 0.0)


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
            _h_term(l1, svd_g, 1), _h_term(l2, svd_c, 1), _Term(mu)
        ]
    if mode in ("synthesis", "synthesis-coefficient"):
        return t_g - t_c, [
            _svd_term(l1, svd_g.s, svd_g.vh), _svd_term(l2, svd_c.s, svd_c.vh), _Term(mu)
        ]
    return frame_operator(family) - frame_operator(candidate), [
        _h_term(l1, svd_g, 2),
        _h_term(l2, svd_c, 2),
        _h_term(mu, svd_g, 1),
        _h_term(nu, svd_c, 1),
    ]


def _gaps(
    d: np.ndarray, terms: list[_Term], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_i c_i |A_i x| - |D x| for every unit column x of ``x``, with D
    applied directly and |A_i x| = |diag(s_i) V_i^H x| read from the SVD the
    certificate used, and whether each violates the condition beyond the
    slack the whitening test allows (_CERT_RTOL of the right side, plus
    1e-14)."""
    rhs = np.zeros(x.shape[1])
    for t in terms:
        if t.c > 0.0:
            ax = x if t.s is None else t.s[:, None] * (t.vh @ x)
            rhs += t.c * np.linalg.norm(ax, axis=0)
    gaps = rhs - np.linalg.norm(d @ x, axis=0)
    return gaps, gaps < -(_CERT_RTOL * rhs + 1e-14)


def _limit(c: float) -> float:
    """The largest value a bound sigma <= c is certified at: c with the
    whitening test's slack, _CERT_RTOL of c plus 1e-14."""
    return c * (1.0 + _CERT_RTOL) + 1e-14


def _whiten(
    d: np.ndarray, s: np.ndarray, vh: np.ndarray, c: float, kernel_tol: float
) -> tuple[bool, np.ndarray]:
    """Test |D x| <= c |A x| for every x, exactly, from A's singular values
    ``s`` (s[0] > 0) and right singular vectors ``vh``.

    Needs ker A (singular values at most 1e-14 of the largest) inside ker
    D, tested as |D - D V_r^H V_r|_2 <= ``kernel_tol`` without a full V; on
    the complement the supremum of the ratio is the norm of D whitened by
    s.  Also returns the top direction of whichever test decided.
    """
    rank = numerical_rank(s, 1e-14)
    v_r = vh[:rank]
    restricted = d @ v_r.conj().T
    if rank < d.shape[1]:
        off_kernel = d - restricted @ v_r
        if _spectral_norm(off_kernel) > kernel_tol:
            return False, _right_svd(off_kernel)[1][0].conj()
    w, w_vh = _right_svd(restricted / s[:rank])
    x = v_r.conj().T @ (w_vh[0].conj() / s[:rank])
    return float(w[0]) <= _limit(c), x / np.linalg.norm(x)


class _Spectrum(NamedTuple):
    """sigma_max(D), or an upper bound on it when carried from
    ``perturb_family``, and right singular vectors whose first and last rows
    are D's extreme directions."""

    top: float
    vh: np.ndarray


def _spectrum(d: np.ndarray) -> _Spectrum:
    """D's own spectrum, from one factorization."""
    s, vh = _right_svd(d)
    return _Spectrum(float(s[0]), vh)


class _Decision(NamedTuple):
    """Holds (``certified``), violated (``witness``) or undecided (neither)."""

    certified: bool
    witness: np.ndarray | None
    margin: float


def _decide(
    d: np.ndarray, terms: list[_Term], carried: _Spectrum | None = None
) -> _Decision:
    """Decide |D x| <= sum_i c_i |A_i x| for all x, factoring D at most once.

    The active constants pick one rule, which gives whether it holds and
    the directions it tested.  None: D must vanish.  One: sigma_max(D) <=
    c |A| for A = I or 0, else the whitening test on the cached SVD.
    Several: ``_decide_boxes``.  The probes are D's and the lambda1/lambda2
    operators' extreme directions plus every tested one; if the condition
    does not hold, the worst probe is the witness when it violates it
    beyond the whitening test's slack.  A ``carried`` spectrum stands in
    for D's factorization; when it bounds sigma_max(D) above a sigma_max
    rule's limit, D is factored after all.
    """
    spectrum = _spectrum(d) if carried is None else carried
    active = [t for t in terms if t.c > 0.0]
    if len(active) > 1:
        holds, tested = _decide_boxes(d, terms, active)
    elif active and active[0].s is not None and active[0].s[0] > 0.0:
        (t,) = active
        holds, x = _whiten(d, t.s, t.vh, t.c, t.kernel_tol)
        tested = [x]
    else:
        if not active:
            scale = 1.0 if terms[0].s is None else float(terms[0].s[0])
            limit = 1e-13 * max(scale, 1.0)
        else:  # |I| = 1, |0| = 0
            c = active[0].c if active[0].s is None else 0.0
            limit = _limit(c)
        if carried is not None and spectrum.top > limit:
            spectrum = _spectrum(d)
        holds, tested = spectrum.top <= limit, []
    probes = [spectrum.vh[0].conj(), spectrum.vh[-1].conj()]
    for t in terms[:2]:
        if t.vh is not None:
            probes += [t.vh[0].conj(), t.vh[-1].conj()]
    x = np.column_stack(probes + tested)
    gaps, violated = _gaps(d, terms, x)
    worst = int(np.argmin(np.where(violated, gaps, np.inf)))
    witness = x[:, worst] if violated.any() and not holds else None
    return _Decision(holds, witness, float(gaps.min()))


def _decide_boxes(
    d: np.ndarray, terms: list[_Term], active: list[_Term]
) -> tuple[bool, list[np.ndarray]]:
    """Whether the condition holds with several active constants (False also
    when open after _BOX_BUDGET tests), and the directions tested.

    As (sum_i c_i a_i)^2 = min over the simplex of sum_i c_i^2 a_i^2 / t_i,
    it holds iff D^H D <= M_t = sum_i (c_i^2 / t_i) A_i^H A_i for every t.
    One whitening test at each t_i's largest value in a box certifies the
    box.  On failure along x it is repeated at the t tight for x (t_i ~
    c_i |A_i x|), where failing directions violate the condition; one that
    does so directly, beyond the whitening test's slack, ends the search,
    else the box is bisected.
    """
    # |D x| and every |A_i x| depend only on x's part in the span of their
    # row spaces: test inside (an orthonormal basis of) that span
    spans = [d.conj().T] + [t.vh.conj().T for t in active if t.s is not None]
    basis = np.linalg.qr(np.hstack(spans))[0]
    d_in = d @ basis
    # each A_i up to a unitary on the left, diag(s_i) V_i^H, on that span
    blocks = [
        np.eye(basis.shape[1]) if t.s is None else t.s[:, None] * (t.vh @ basis)
        for t in active
    ]
    c = np.array([t.c for t in active])

    def whiten_at(weights: np.ndarray) -> tuple[bool, np.ndarray]:
        w = np.vstack([(ci / math.sqrt(ti)) * b for ci, ti, b in zip(c, weights, blocks)])
        s, vh = _right_svd(w)
        return _whiten(d_in, s, vh, 1.0, max(t.kernel_tol for t in active))

    boxes, tested = deque([(np.zeros(len(active)), np.ones(len(active)))]), []
    while boxes and len(tested) < _BOX_BUDGET:
        lo, hi = boxes.popleft()
        if not lo.sum() < 1.0 < hi.sum():  # misses the open simplex
            continue
        # the smallest box holding this box's part of the simplex
        lo, hi = np.maximum(lo, 1 - hi.sum() + hi), np.minimum(hi, 1 - lo.sum() + lo)
        holds, z = whiten_at(hi)
        tested.append(basis @ z)
        if holds:
            continue
        a = c * np.array([np.linalg.norm(b @ z) for b in blocks])
        if a.max() > 0.0:  # retest at the t tight for z
            tight = np.maximum(a, 1e-16 * a.max())
            tested.append(basis @ whiten_at(tight / tight.sum())[1])
        if _gaps(d, terms, np.column_stack(tested[-2:]))[1].any():
            return False, tested
        # bisect where the box is widest relative to its largest t_i
        cut = np.arange(len(lo)) == np.argmax((hi - lo) / hi)
        mid = 0.5 * (lo + hi)
        boxes += [(lo, np.where(cut, mid, hi)), (np.where(cut, mid, lo), hi)]
    return not boxes, tested


def cc_lemma_check(u, lambda1: float, lambda2: float) -> CCLemmaReport:
    """Check |Ux - x| <= l1 |x| + l2 |Ux| and the resulting norm sandwich.

    The condition is decided like every perturbation condition, with D =
    I - U, l1 I and l2 U.  When it holds, U is invertible and (1-l1)/(1+l2)
    <= |Ux|/|x| <= (1+l1)/(1-l2), with the reciprocal sandwich for the
    inverse; both are verified via singular values.
    """
    lambda1 = check_real("lambda1", lambda1, 0.0, 1.0, closed=(True, False))
    lambda2 = check_real("lambda2", lambda2, 0.0, 1.0, closed=(True, False))
    um = as_matrix("u", u)
    s, vh = _right_svd(um)
    sigma_min, sigma_max = float(s[-1]), float(s[0])
    decision = _decide(np.eye(um.shape[0]) - um, [_Term(lambda1), _svd_term(lambda2, s, vh)])

    fwd = ((1.0 - lambda1) / (1.0 + lambda2), (1.0 + lambda1) / (1.0 - lambda2))
    inv = ((1.0 - lambda2) / (1.0 + lambda1), (1.0 + lambda2) / (1.0 - lambda1))
    invertible = sigma_min > 0.0
    rtol = _CERT_RTOL
    sandwich_ok = decision.certified and (
        sigma_min >= fwd[0] * (1.0 - rtol) - 1e-15
        and sigma_max <= fwd[1] * (1.0 + rtol) + 1e-15
        and invertible
        and 1.0 / sigma_max >= inv[0] * (1.0 - rtol) - 1e-15
        and 1.0 / sigma_min <= inv[1] * (1.0 + rtol) + 1e-15
    )
    return CCLemmaReport(
        certified=decision.certified,
        condition_margin=decision.margin,
        invertible=invertible,
        sigma_min=sigma_min,
        sigma_max=sigma_max,
        forward_bounds=fwd,
        inverse_bounds=inv,
        sandwich_ok=sandwich_ok,
        witness=decision.witness,
    )


def _carried(
    mode: str, family: HSFrameFamily, candidate: HSFrameFamily
) -> _Spectrum | None:
    """The bound on D that ``perturb_family`` left on ``candidate``, in
    analysis mode and against the very object it perturbed alone."""
    base, spectrum = getattr(candidate, "_deviation", (None, None))
    if mode == "analysis" and base is not None and base() is family:
        return spectrum
    return None


def check_condition(
    mode: str,
    family: HSFrameFamily,
    candidate: HSFrameFamily,
    constants: PerturbationConstants,
) -> PerturbationVerdict:
    """Decide one perturbation condition and compare predicted vs actual.

    ``certified`` means the condition holds; ``witness`` is set only when
    it is violated, and neither when the decision ran out of budget.  The
    empirical margin is the smallest slack (RHS - LHS) over the decision's
    probes.  Predicted bounds are filled for the analysis/synthesis modes,
    which admit closed-form bounds; the frame-operator and
    synthesis-coefficient conditions guarantee frame-ness only.  A base
    family whose synthesis matrix has fewer than dim_h nonzero singular
    values raises ``NotAFrameError``, and one whose lower bound
    sigma_min^2 underflows to 0 ``NumericError``.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown mode {mode!r}, expected one of {MODES}")
    _check_pair(family, candidate, "candidate")
    _require_rank(family, numerical_rank(family.svd.s, 0.0))
    a_g, b_g = _positive_bounds(family)
    actual = frame_bounds(candidate)
    check_admissible(constants, a_g, bessel_of_candidate=actual[1], mode=mode)

    d, terms = _condition(mode, family, candidate, constants)
    decision = _decide(d, terms, _carried(mode, family, candidate))
    predicted = None
    if mode in ("analysis", "synthesis"):
        c = constants
        predicted = predicted_bounds(a_g, b_g, c.lambda1, c.lambda2, c.mu)
    return PerturbationVerdict(
        mode=mode,
        certified=decision.certified,
        empirical_margin=decision.margin,
        witness=decision.witness,
        predicted_bounds=predicted,
        actual_bounds=actual,
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
      so the summed analysis deviation is magnitude^2, certifying
      (0, 0, mu): mu = magnitude when the carried bound on sigma_max of
      the realized deviation (below) is within the mu rule's slack of
      magnitude, and that bound itself when the rounding of T + Delta
      pushes it past (large entries and a small magnitude).
    * scale: multiplies every map by (1 - magnitude), certifying
      (lambda1=magnitude, 0, 0).
    * blockwise: like additive-analysis but supported on a subset of
      indices (random nonempty subset unless given).

    The copy keeps the synthesis matrix it was built from, Fortran-ordered
    and read-only.  The additive modes take |delta|_2 from the SVD of
    delta^H (``core._right_svd``), and the copy carries its right singular
    vectors with the bound |Delta|_2 + |D + Delta^H|_F on sigma_max of D =
    (T - T~)^H, so ``check_condition`` in analysis mode against ``family``
    itself need not factor D.
    """
    check_instance("family", family, HSFrameFamily)
    magnitude = check_real("magnitude", magnitude, 0.0, math.inf, closed=(True, False))
    t = family.synthesis_matrix
    rng = np.random.default_rng(check_int("seed", seed, 0))
    if mode == "scale":
        gamma = HSFrameFamily._keeping(
            family.dim_h, family.dim_k, np.multiply(1.0 - magnitude, t, order="F")
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
        for j in as_tuple("indices", indices):
            j = check_int("indices", j, 0, family.count - 1)
            mask[j * blk : (j + 1) * blk] = True
        delta[:, ~mask] = 0.0
    s, vh = _right_svd(delta.conj().T)
    norm = float(s[0])
    if magnitude == 0.0 or norm == 0.0:
        delta = np.zeros_like(delta)
        magnitude = scale = 0.0
    else:
        scale = magnitude / norm
        delta *= scale
    t_tilde = np.add(t, delta, order="F")
    # D + Delta^H = (T - T~ + Delta)^H, the rounding of T + Delta
    rounding = t - t_tilde
    rounding += delta
    top = scale * norm + _norm(rounding)
    gamma = HSFrameFamily._keeping(family.dim_h, family.dim_k, t_tilde)
    gamma._deviation = (weakref.ref(family), _Spectrum(top, vh))
    return gamma, PerturbationConstants(mu=magnitude if top <= _limit(magnitude) else top)


def riesz_stability_check(
    family: HSFrameFamily,
    candidate: HSFrameFamily,
    constants: PerturbationConstants,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> RieszStabilityVerdict:
    """Riesz bases stay Riesz under the synthesis-level condition.

    Returns an inconclusive verdict (not an error) when the hypotheses are
    not verified: the base family must classify as Riesz and the synthesis
    condition must be certified.
    """
    _check_pair(family, candidate, "candidate")
    check_instance("constants", constants, PerturbationConstants)
    base = classify(family, rank_tol)
    if not base.riesz:
        return RieszStabilityVerdict(
            status="inconclusive", reason="base family is not a Riesz basis"
        )
    verdict = check_condition("synthesis", family, candidate, constants)
    if not verdict.certified:
        return RieszStabilityVerdict(
            status="inconclusive",
            predicted_bounds=verdict.predicted_bounds,
            condition=verdict,
            reason="synthesis condition not certified for these constants",
        )
    rep = classify(candidate, rank_tol)
    a_pred, b_pred = verdict.predicted_bounds
    tol = 1e-9 * max(1.0, b_pred)
    ok = (
        rep.riesz
        and rep.lower_bound >= a_pred - tol
        and rep.upper_bound <= b_pred + tol
    )
    return RieszStabilityVerdict(
        status="confirmed" if ok else "violated",
        riesz_preserved=rep.riesz,
        predicted_bounds=(a_pred, b_pred),
        actual_riesz_bounds=(rep.lower_bound, rep.upper_bound) if rep.riesz else None,
        condition=verdict,
    )
