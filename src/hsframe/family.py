"""Operator-valued frame families and the operators derived from them.

A family is an ordered list of linear maps G_j from H (dimension ``dim_h``)
into the space of d_k x d_k matrices, stored once as ``images[j, i]``, the
matrix G_j assigns to the i-th basis vector.  Stacking the row-major
vectorization of each map turns every derived object into dense matrix
algebra:

* synthesis matrix  T  (dim_h x count*dim_k^2): block j is the conjugate
  transpose of the vectorized matrix of G_j, so
  ``T[i, j*dim_k^2 + a*dim_k + b] = conj(images[j, i, a, b])``,
* analysis matrix   T* = T^H,
* frame operator    S = T T^H, Hermitian positive semidefinite.

Optimal frame bounds and rank decisions all come from one cached thin SVD
T = U diag(s) V^H per family (``HSFrameFamily.svd``); bounds are extreme s^2.
A wide T is factored through its short side, the square R of T^H = Q R, and
its (k, columns of T) V^H is formed only when read: bounds, ranks, S^-1 and
the canonical dual S^-1 T of a well-conditioned T need only U and s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .core import (
    _complex_array,
    _left_svd,
    _norm,
    _spectral_norm,
    as_array,
    as_tuple,
    as_vector,
    check_instance,
    check_int,
    check_real,
)
from .errors import (
    InternalConsistencyError,
    NotAFrameError,
    NumericError,
    ValidationError,
)

__all__ = [
    "HSMap",
    "HSFrameFamily",
    "CoefficientSequence",
    "FrameReport",
    "DualCheck",
    "analyze",
    "synthesize",
    "frame_operator",
    "frame_bounds",
    "classify",
    "riesz_inequality_check",
    "canonical_dual",
    "reconstruct",
    "verify_alternate_dual",
    "frame_operator_hs_norm_bound",
]

#: Relative cutoff (against the largest singular value) for rank decisions.
DEFAULT_RANK_TOL = 1e-10

#: Largest cond(T) = sigma_max / sigma_min at which ``canonical_dual`` forms
#: S^-1 T from S^-1 and T.  That product's rounding error grows with cond(T)
#: against U diag(1/s) V^H's; up to 4 the two are alike (on random complex
#: frames with dim_h <= 8, median |T T_dual^H - I| 1.3e-15 against 0.8e-15
#: at cond 2-4, but 1.7e-14 against 1.8e-15 at cond 8-16).
_DUAL_COND = 4.0


def check_rank_tol(rank_tol) -> None:
    """Reject a rank tolerance that is not a real number in (0, 1), NaN included."""
    check_real("rank_tol", rank_tol, 0.0, 1.0)


def numerical_rank(sigma: np.ndarray, rank_tol: float) -> int:
    """Number of singular values (sorted descending) above rank_tol * max."""
    return int(np.count_nonzero(sigma > rank_tol * sigma[0]))


def _squared(sigma) -> float:
    """sigma^2 as a float; NumericError when it is too large to represent."""
    try:
        return float(sigma) ** 2
    except OverflowError as exc:
        raise NumericError(f"squared singular value of {float(sigma)!r} overflows") from exc


def _check_images(arr: np.ndarray, ndim: int) -> None:
    """Reject images of one map (``ndim`` 3) or of a family (4) that are not
    nonempty, shaped ([count,] dim_h, d_k, d_k) and finite."""
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2] or min(arr.shape) < 1:
        axes = ", ".join(("count", "dim_h", "d_k", "d_k")[-ndim:])
        raise ValidationError(f"map images need a nonempty shape ({axes}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("map images must be finite (no NaN or inf entries)")


class HSMap:
    """One frame element: a linear map from H into d_k x d_k matrices.

    Stored through its images on the standard basis of H: ``images[i]`` is
    the matrix the i-th basis vector is sent to, so the action on ``f`` is
    ``sum_i f[i] * images[i]``.
    """

    def __init__(self, images):
        arr = _complex_array("images", images).copy()
        _check_images(arr, 3)
        arr.flags.writeable = False
        self.images = arr

    @classmethod
    def _view(cls, images: np.ndarray) -> "HSMap":
        """A map over checked, read-only images, without a copy."""
        m = cls.__new__(cls)
        m.images = images
        return m

    @property
    def dim_h(self) -> int:
        return self.images.shape[0]

    @property
    def dim_k(self) -> int:
        return self.images.shape[1]

    def __call__(self, f) -> np.ndarray:
        return np.tensordot(as_vector("f", f, self.dim_h), self.images, axes=1)

    def adjoint_apply(self, block) -> np.ndarray:
        """Apply the adjoint map to one d_k x d_k coefficient block."""
        b = as_array("block", block, (self.dim_k, self.dim_k))
        return self.images.reshape(self.dim_h, -1).conj() @ b.reshape(-1)

    def operator_norm(self) -> float:
        return _spectral_norm(self.images.reshape(self.dim_h, -1))


class HSFrameFamily:
    """Ordered finite family of maps with common dimensions, immutable.

    The one stored array is ``images`` (count, dim_h, dim_k, dim_k): C-contiguous,
    read-only and finite.  ``maps[j].images`` is a view of ``images[j]``.
    """

    def __init__(self, maps):
        arrays = [
            m.images if isinstance(m, HSMap) else _complex_array(f"maps[{j}]", m)
            for j, m in enumerate(as_tuple("maps", maps))
        ]
        for j, a in enumerate(arrays):
            if a.shape != arrays[0].shape:
                raise ValidationError(
                    f"maps[{j}] has shape {a.shape}, expected {arrays[0].shape}"
                )
        images = np.empty((len(arrays),) + arrays[0].shape, dtype=np.complex128)
        self._store(np.stack(arrays, out=images))

    @classmethod
    def _of_images(cls, images: np.ndarray) -> "HSFrameFamily":
        """The family that owns ``images``, a fresh C-contiguous complex128
        array of shape (count, dim_h, dim_k, dim_k)."""
        family = cls.__new__(cls)
        family._store(images)
        return family

    def _store(self, images: np.ndarray) -> None:
        _check_images(images, 4)
        images.flags.writeable = False
        self.images = images
        self.count, self.dim_h, self.dim_k = images.shape[:3]
        self.maps = tuple(HSMap._view(a) for a in images)

    def __len__(self) -> int:
        return len(self.maps)

    def __getitem__(self, j) -> HSMap:
        return self.maps[j]

    @cached_property
    def synthesis_matrix(self) -> np.ndarray:
        """Dense synthesis operator, shape (dim_h, count * dim_k^2), derived
        from ``images`` by one conjugating copy.  It is Fortran-ordered, as it
        always was: that layout fixes the last digits of BLAS products."""
        t_transposed = np.conjugate(self.images.transpose(0, 2, 3, 1), order="C")
        t = t_transposed.reshape(-1, self.dim_h).T
        t.flags.writeable = False
        return t

    @cached_property
    def svd(self) -> "ThinSVD":
        """Thin SVD of the synthesis matrix, computed once per family
        through its short side (``core._left_svd``); V^H is formed on its
        first read."""
        try:
            u, s, right = _left_svd(self.synthesis_matrix)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD of the synthesis matrix failed: {exc}") from exc
        return ThinSVD(np.ascontiguousarray(u), s, right)

    @classmethod
    def from_synthesis_matrix(cls, dim_h, dim_k, tmat) -> "HSFrameFamily":
        """Rebuild a family from a dense synthesis matrix."""
        dim_h, dim_k = check_int("dim_h", dim_h, 1), check_int("dim_k", dim_k, 1)
        t = _complex_array("tmat", tmat)
        if t.ndim != 2 or t.shape[0] != dim_h or t.shape[1] % (dim_k * dim_k) != 0:
            raise ValidationError(
                f"tmat has shape {t.shape}, not (dim_h, count * dim_k^2) for "
                f"dim_h={dim_h}, dim_k={dim_k}"
            )
        t_4d = t.reshape(dim_h, -1, dim_k, dim_k)  # a view, whatever t's layout
        return cls._of_images(np.conjugate(t_4d.transpose(1, 0, 2, 3), order="C"))

    @classmethod
    def _keeping(cls, dim_h: int, dim_k: int, t: np.ndarray) -> "HSFrameFamily":
        """``from_synthesis_matrix`` for a fresh Fortran-ordered complex128
        ``t``, which the family keeps, read-only, as its synthesis matrix:
        it is never derived again from ``images``."""
        family = cls.from_synthesis_matrix(dim_h, dim_k, t)
        t.flags.writeable = False
        family.synthesis_matrix = t
        return family

    def __repr__(self) -> str:
        return (
            f"<HSFrameFamily dim_h={self.dim_h} dim_k={self.dim_k} "
            f"count={self.count}>"
        )


class ThinSVD:
    """T = u @ diag(s) @ vh with s descending; the arrays are read-only.

    ``u`` is (dim_h, k) and ``s`` (k,), k = min(dim_h, columns of T).  The
    (k, columns of T) ``vh`` is formed by ``right()`` on its first read, so
    a caller of u and s alone never pays for it.
    """

    def __init__(self, u: np.ndarray, s: np.ndarray, right: Callable[[], np.ndarray]):
        u.flags.writeable = s.flags.writeable = False
        self.u, self.s, self._right = u, s, right

    @cached_property
    def vh(self) -> np.ndarray:
        vh = self._right()
        vh.flags.writeable = False
        return vh


class CoefficientSequence:
    """One d_k x d_k coefficient block per family index."""

    def __init__(self, blocks):
        arr = as_array("blocks", blocks, (None, None, None))
        if arr.shape[1] != arr.shape[2]:
            raise ValidationError(f"blocks must have shape (*, d_k, d_k), got {arr.shape}")
        self.blocks = arr.copy()
        self.blocks.flags.writeable = False

    @classmethod
    def _of_blocks(cls, blocks: np.ndarray) -> "CoefficientSequence":
        """The sequence that owns ``blocks``, a fresh complex128 array of shape
        (count, d_k, d_k), without a copy or a check."""
        seq = cls.__new__(cls)
        blocks.flags.writeable = False
        seq.blocks = blocks
        return seq

    @classmethod
    def from_stacked(cls, vec, dim_k) -> "CoefficientSequence":
        v = as_vector("vec", vec)
        blk = check_int("dim_k", dim_k, 1) ** 2
        if v.size % blk != 0:
            raise ValidationError(f"vec must have length divisible by {blk}, got {v.size}")
        return cls._of_blocks(v.reshape(-1, dim_k, dim_k).copy())

    @property
    def dim_k(self) -> int:
        return self.blocks.shape[1]

    def __len__(self) -> int:
        return self.blocks.shape[0]

    def __getitem__(self, j) -> np.ndarray:
        return self.blocks[j]

    def stacked(self) -> np.ndarray:
        """Concatenation of the vectorized blocks."""
        return self.blocks.reshape(-1)

    def norm(self) -> float:
        """Direct-sum norm: sqrt of the summed squared block norms."""
        return _norm(self.blocks)


@dataclass(frozen=True)
class FrameReport:
    """Classification of a family via its synthesis operator.

    Every finite family is Bessel and, in finite dimensions, complete means
    frame; a Riesz basis has a square invertible T, so its Riesz bounds are
    ``lower_bound`` and ``upper_bound``.
    """

    lower_bound: float
    upper_bound: float
    frame: bool
    riesz: bool
    synthesis_norm: float
    pseudo_inverse_norm: float


@dataclass(frozen=True)
class DualCheck:
    """``verify_alternate_dual``'s verdict: ``max_residual`` is |T V^H - I|_2,
    and ``ok`` says it lies within the rounding bound of forming it, so that
    the dual identity holds to working precision."""

    ok: bool
    max_residual: float


def _check_coefficients(family: HSFrameFamily, coeffs: CoefficientSequence):
    check_instance("family", family, HSFrameFamily)
    check_instance("coeffs", coeffs, CoefficientSequence)
    if len(coeffs) != family.count or coeffs.dim_k != family.dim_k:
        raise ValidationError(
            f"coefficient sequence ({len(coeffs)} blocks of dim {coeffs.dim_k}) "
            f"does not match family ({family.count} maps of dim {family.dim_k})"
        )


def _check_pair(family: HSFrameFamily, other: HSFrameFamily, name: str) -> None:
    """``family`` and ``other``, named ``name``, are families of one shape."""
    check_instance("family", family, HSFrameFamily)
    check_instance(name, other, HSFrameFamily)
    shapes = [(f.dim_h, f.dim_k, f.count) for f in (family, other)]
    if shapes[0] != shapes[1]:
        raise ValidationError(
            f"{name} must share (dim_h, dim_k, count) with family: got "
            f"{shapes[1]}, family has {shapes[0]}"
        )


def _product_rounding(family: HSFrameFamily) -> float:
    """8 (N + dim_h) eps |T|_F, N = count d_k^2 the columns of T: a bound on
    the rounding of a product with T, per unit norm of what T meets.
    ``verify_alternate_dual`` and ``kernel_consistency`` scale it into the
    bound each of their verdicts compares against.

    An entry of T X^H, or of T x, is a complex inner product of length N.
    Its real and imaginary parts are sums of 2N real products, so in any
    summation order, blocked or fused, it rounds by at most
    sqrt(2) gamma_2N <= 1.5 N eps times |t_i| |x_l| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 3.1, 3.5 and
    3.6), and Cauchy-Schwarz row by row gives
    |fl(T X^H) - T X^H|_2 <= 1.5 N eps |T|_F |X|_F.  The dim_h term counts
    what is formed from the family's SVD: products with U, s and V^H have
    inner dimension dim_h, and the SVD's backward error is a few eps |T|.
    On random frames and families with cond(T) up to 1e9, both checks'
    residuals stayed below 2.5 (N + dim_h) eps |T|_F times that norm, so
    the constant 8 passes every result formed to working precision with a
    margin of 3.  |T|_F is the norm of the cached s; a family not yet
    factored is factored here, once.
    """
    # T is dim_h x N, so its shape sums to N + dim_h
    return 8.0 * sum(family.synthesis_matrix.shape) * math.ulp(1.0) * _norm(family.svd.s)


def analyze(family: HSFrameFamily, f) -> CoefficientSequence:
    """Coefficient blocks {G_j f} of a vector."""
    check_instance("family", family, HSFrameFamily)
    coeffs = family.synthesis_matrix.conj().T @ as_vector("f", f, family.dim_h)
    return CoefficientSequence._of_blocks(coeffs.reshape(-1, family.dim_k, family.dim_k))


def synthesize(family: HSFrameFamily, coeffs: CoefficientSequence) -> np.ndarray:
    """Sum of adjoint images sum_j G_j*(A_j); order-independent finite sum."""
    _check_coefficients(family, coeffs)
    return family.synthesis_matrix @ coeffs.stacked()


def frame_operator(family: HSFrameFamily) -> np.ndarray:
    """Hermitian positive semidefinite operator S = T T^H on H."""
    check_instance("family", family, HSFrameFamily)
    t = family.synthesis_matrix
    s = t @ t.conj().T
    return (s + s.conj().T) / 2.0


def frame_bounds(family: HSFrameFamily) -> tuple[float, float]:
    """Optimal bounds (s_{dim_h}^2, s_max^2); lower 0.0 when T has < dim_h columns."""
    check_instance("family", family, HSFrameFamily)
    s = family.svd.s
    lower = _squared(s[-1]) if s.size == family.dim_h else 0.0
    return lower, _squared(s[0])


def classify(family: HSFrameFamily, rank_tol: float = DEFAULT_RANK_TOL) -> FrameReport:
    """Optimal bounds, frame / Riesz flags and operator norms.

    Frame means the synthesis matrix has full row rank; Riesz additionally
    requires a trivial kernel (so its column count cannot exceed
    ``dim_h``).  Rank decisions use ``rank_tol`` relative to the largest
    singular value.
    """
    lower, upper = frame_bounds(family)
    check_rank_tol(rank_tol)
    sigma = family.svd.s
    rank = numerical_rank(sigma, rank_tol)
    is_frame = rank == family.dim_h
    return FrameReport(
        lower_bound=lower,
        upper_bound=upper,
        frame=is_frame,
        riesz=is_frame and rank == family.synthesis_matrix.shape[1],
        synthesis_norm=float(sigma[0]),
        pseudo_inverse_norm=1.0 / float(sigma[rank - 1]) if rank else math.inf,
    )


def riesz_inequality_check(family: HSFrameFamily) -> float:
    """Exact minimum of |T c|^2 / |c|^2 over nonzero coefficient sequences c.

    It is s_min^2, exactly 0.0 when T is wide.  For a Riesz basis it is the
    lower frame bound; for a tall T (a Riesz sequence that is not complete)
    it is the lower Riesz bound, which ``classify`` does not report.
    """
    check_instance("family", family, HSFrameFamily)
    s = family.svd.s
    return _squared(s[-1]) if s.size == family.synthesis_matrix.shape[1] else 0.0


def _require_frame(family: HSFrameFamily, rank_tol: float) -> None:
    check_rank_tol(rank_tol)
    _require_rank(family, numerical_rank(family.svd.s, rank_tol))


def _require_rank(family: HSFrameFamily, rank: int) -> None:
    """NotAFrameError unless the synthesis rank ``rank`` is dim_h."""
    if rank != family.dim_h:
        raise NotAFrameError(
            f"family is not a frame: synthesis rank {rank} < dim_h {family.dim_h} "
            "(lower bound zero)"
        )


def _inverse_frame_apply(family: HSFrameFamily, f: np.ndarray) -> np.ndarray:
    """S^-1 f = U diag(1/s^2) U^H f, from the frame's cached thin SVD.

    For sigma_min below about 1.5e-162 s^2 underflows to 0.  A direction
    where it does and f has no component maps to 0, as S^-1 0 = 0; any
    other result that is not finite raises ``NumericError`` naming |f| and
    sigma_min, since |S^-1 f| can reach |f| / sigma_min^2.
    """
    u, s = family.svd.u, family.svd.s
    s2 = s**2
    uf = u.conj().T @ f
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = u @ np.where((s2 == 0.0) & (uf == 0.0), 0.0, uf / s2)
    if not np.isfinite(x).all():
        raise NumericError(
            f"S^-1 f overflows: |f| = {_norm(f)!r} against sigma_min = "
            f"{float(s[-1])!r}, and |S^-1 f| can reach |f| / sigma_min^2"
        )
    return x


def _positive_bounds(family: HSFrameFamily) -> tuple[float, float]:
    """The bounds (A, B) of a frame, whose sigma_min > 0; ``NumericError``
    naming sigma_min when A = sigma_min^2 underflows to 0."""
    bounds = frame_bounds(family)
    if bounds[0] == 0.0:
        raise NumericError(
            f"lower frame bound A = sigma_min^2 underflows to 0: sigma_min = "
            f"{float(family.svd.s[-1])!r}"
        )
    return bounds


def canonical_dual(
    family: HSFrameFamily, rank_tol: float = DEFAULT_RANK_TOL
) -> HSFrameFamily:
    """Dual family {G_j S^-1}; its bounds are the inverted original bounds.

    Its synthesis matrix is S^-1 T = U diag(1/s) V^H, so the dual carries
    that thin SVD (reversed to keep s descending, its V^H taken from the
    family's on first read) and is never factored again.  While
    sigma_max <= ``_DUAL_COND`` sigma_min it is formed as
    (U diag(1/s^2) U^H) T, which reads no V^H; beyond that, or where s^2
    leaves the normal range, as U diag(1/s) V^H, whose rounding error does
    not grow with cond(T).
    """
    check_instance("family", family, HSFrameFamily)
    _require_frame(family, rank_tol)
    svd, s = family.svd, family.svd.s
    if 2.0**-500 <= s[-1] and s[0] <= min(_DUAL_COND * s[-1], 2.0**500):
        left, right = (svd.u / s**2) @ svd.u.conj().T, family.synthesis_matrix
    else:
        left, right = svd.u / s, svd.vh
    t_dual = (right.T @ left.T).T  # Fortran-ordered, as synthesis_matrix is
    dual = HSFrameFamily._keeping(family.dim_h, family.dim_k, t_dual)
    dual.svd = ThinSVD(svd.u[:, ::-1], (1.0 / s)[::-1], lambda: svd.vh[::-1])
    return dual


def reconstruct(
    family: HSFrameFamily, f, rank_tol: float = DEFAULT_RANK_TOL
) -> np.ndarray:
    """Resynthesize f as sum_j S^-1 G_j* G_j f; equals f for frames.

    The sum is taken through the canonical dual's factors,
    U diag(1/s) (V^H (T^H f)), so no s^2 is formed: with sigma_min^2
    underflowing to 0 the result is still f.  ``NumericError`` when it is
    not finite, as when the coefficients G_j f overflow.
    """
    check_instance("family", family, HSFrameFamily)
    fv = as_vector("f", f, family.dim_h)
    _require_frame(family, rank_tol)
    svd = family.svd
    with np.errstate(over="ignore", invalid="ignore"):
        x = svd.u @ ((svd.vh @ analyze(family, fv).stacked()) / svd.s)
    if not np.isfinite(x).all():
        raise NumericError(
            f"reconstruction overflows: |f| = {_norm(fv)!r} against sigma_max = "
            f"{float(svd.s[0])!r}, and the coefficients G_j f can reach |f| sigma_max"
        )
    return x


def verify_alternate_dual(family: HSFrameFamily, candidate: HSFrameFamily) -> DualCheck:
    """Check the dual reconstruction identity to working precision, unsampled.

    A candidate {V_j} is a dual of {G_j} when f = sum_j G_j* V_j f for
    every f, i.e. P = T V^H equals I.  The other identity,
    f = sum_j V_j* G_j f, is its adjoint P^H = I and has the same residual,
    so the one spectral norm |P - I| decides both.  ``ok`` means
    |P - I| <= tau = 8 (N + dim_h) eps |T|_F |V|_F, N the columns of T
    (``_product_rounding``, derived there): forming P rounds by at most
    1.5 N eps |T|_F |V|_F, and subtracting I and the norm add relative
    errors of order dim_h eps.  A candidate formed from the family's SVD,
    as ``canonical_dual`` forms U diag(1/s) V^H, carries an exact residual
    of at most a few eps |T| |V|.  So every dual formed to working
    precision passes, and a candidate whose exact residual exceeds 1.2 tau
    fails.  tau takes |T|_F off the cached s and one norm pass over V, and
    a residual or a tau that is not finite fails, with no numpy warning.
    """
    _check_pair(family, candidate, "candidate")
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: inf below
        p = family.synthesis_matrix @ candidate.synthesis_matrix.conj().T - np.eye(family.dim_h)
    max_residual = _spectral_norm(p) if np.isfinite(p).all() else math.inf
    tau = _product_rounding(family) * _norm(candidate.synthesis_matrix)
    return DualCheck(ok=max_residual <= tau < math.inf, max_residual=max_residual)


def frame_operator_hs_norm_bound(family: HSFrameFamily) -> tuple[float, float]:
    """Frobenius norm of S against the Bessel estimate B * sqrt(dim_h).

    The estimate sums |S e| over an orthonormal basis of H, so the
    cardinality entering it is the dimension of H (equal for the identity,
    where the inequality is tight).
    """
    b = frame_bounds(family)[1]
    s = family.svd.s
    # |S|_F = |s^2|_2, scaled by B = s_max^2 so that no s^4 is formed
    hs = b * float(np.linalg.norm((s / s[0]) ** 2)) if b > 0.0 else 0.0
    bound = b * math.sqrt(family.dim_h)
    if hs > bound * (1.0 + 1e-12) + 1e-15:
        raise InternalConsistencyError(
            f"frame operator Frobenius norm {hs} exceeds bound {bound}"
        )
    return hs, bound
