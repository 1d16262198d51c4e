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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import _complex_array, as_array, as_tuple, as_vector, check_int, check_real
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
        return float(np.linalg.norm(self.images.reshape(self.dim_h, -1), ord=2))


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
        """Thin SVD of the synthesis matrix, computed once per family."""
        try:
            svd = ThinSVD(*np.linalg.svd(self.synthesis_matrix, full_matrices=False))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD of the synthesis matrix failed: {exc}") from exc
        for a in svd:
            a.flags.writeable = False
        return svd

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

    def __repr__(self) -> str:
        return (
            f"<HSFrameFamily dim_h={self.dim_h} dim_k={self.dim_k} "
            f"count={self.count}>"
        )


class ThinSVD(NamedTuple):
    """T = u @ diag(s) @ vh with s descending; the arrays are read-only."""

    u: np.ndarray  # (dim_h, k), k = min(dim_h, columns of T)
    s: np.ndarray  # (k,)
    vh: np.ndarray  # (k, columns of T)


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
        return float(np.linalg.norm(self.blocks))


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
    ok: bool
    max_residual: float
    identity_gap: float


def _check_coefficients(family: HSFrameFamily, coeffs: CoefficientSequence):
    if len(coeffs) != family.count or coeffs.dim_k != family.dim_k:
        raise ValidationError(
            f"coefficient sequence ({len(coeffs)} blocks of dim {coeffs.dim_k}) "
            f"does not match family ({family.count} maps of dim {family.dim_k})"
        )


def _check_pair(family: HSFrameFamily, other: HSFrameFamily) -> None:
    if (
        family.dim_h != other.dim_h
        or family.dim_k != other.dim_k
        or family.count != other.count
    ):
        raise ValidationError("families must share dim_h, dim_k and count")


def analyze(family: HSFrameFamily, f) -> CoefficientSequence:
    """Coefficient blocks {G_j f} of a vector."""
    coeffs = family.synthesis_matrix.conj().T @ as_vector("f", f, family.dim_h)
    return CoefficientSequence._of_blocks(coeffs.reshape(-1, family.dim_k, family.dim_k))


def synthesize(family: HSFrameFamily, coeffs: CoefficientSequence) -> np.ndarray:
    """Sum of adjoint images sum_j G_j*(A_j); order-independent finite sum."""
    _check_coefficients(family, coeffs)
    return family.synthesis_matrix @ coeffs.stacked()


def frame_operator(family: HSFrameFamily) -> np.ndarray:
    """Hermitian positive semidefinite operator S = T T^H on H."""
    t = family.synthesis_matrix
    s = t @ t.conj().T
    return (s + s.conj().T) / 2.0


def frame_bounds(family: HSFrameFamily) -> tuple[float, float]:
    """Optimal bounds (s_{dim_h}^2, s_max^2); lower 0.0 when T has < dim_h columns."""
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
    check_rank_tol(rank_tol)
    sigma = family.svd.s
    rank = numerical_rank(sigma, rank_tol)
    lower, upper = frame_bounds(family)
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
    s = family.svd.s
    return _squared(s[-1]) if s.size == family.synthesis_matrix.shape[1] else 0.0


def _require_frame(family: HSFrameFamily, rank_tol: float) -> None:
    check_rank_tol(rank_tol)
    rank = numerical_rank(family.svd.s, rank_tol)
    if rank != family.dim_h:
        raise NotAFrameError(
            f"family is not a frame: synthesis rank {rank} < dim_h {family.dim_h} "
            "(lower bound zero)"
        )


def canonical_dual(
    family: HSFrameFamily, rank_tol: float = DEFAULT_RANK_TOL
) -> HSFrameFamily:
    """Dual family {G_j S^-1}; its bounds are the inverted original bounds.

    Its synthesis matrix is U diag(1/s) V^H, so the dual carries that thin
    SVD (reversed to keep s descending) and is never factored again.
    """
    _require_frame(family, rank_tol)
    svd = family.svd
    dual = HSFrameFamily.from_synthesis_matrix(
        family.dim_h, family.dim_k, (svd.u / svd.s) @ svd.vh
    )
    inv_s = 1.0 / svd.s
    inv_s.flags.writeable = False
    dual.svd = ThinSVD(svd.u[:, ::-1], inv_s[::-1], svd.vh[::-1])
    return dual


def reconstruct(
    family: HSFrameFamily, f, rank_tol: float = DEFAULT_RANK_TOL
) -> np.ndarray:
    """Resynthesize f as sum_j S^-1 G_j* G_j f; equals f for frames."""
    fv = as_vector("f", f, family.dim_h)
    _require_frame(family, rank_tol)
    sf = synthesize(family, analyze(family, fv))
    u, s = family.svd.u, family.svd.s
    return u @ ((u.conj().T @ sf) / s**2)


def verify_alternate_dual(
    family: HSFrameFamily, candidate: HSFrameFamily, tol: float = 1e-9
) -> DualCheck:
    """Check both dual reconstruction identities exactly.

    A candidate {V_j} is a dual of {G_j} when f = sum_j G_j* V_j f and
    f = sum_j V_j* G_j f for every f, i.e. P = T V^H and P^H equal I.  The
    two identities are adjoint to each other, so both residuals are
    |P - I| (spectral norm); their mutual gap |P - P^H| is reported as a
    diagnostic.
    """
    check_real("tol", tol, 0.0, math.inf, closed=(True, False))
    _check_pair(family, candidate)
    p = family.synthesis_matrix @ candidate.synthesis_matrix.conj().T
    max_residual = float(np.linalg.norm(p - np.eye(family.dim_h), ord=2))
    return DualCheck(
        ok=bool(max_residual <= tol),
        max_residual=max_residual,
        identity_gap=float(np.linalg.norm(p - p.conj().T, ord=2)),
    )


def frame_operator_hs_norm_bound(family: HSFrameFamily) -> tuple[float, float]:
    """Frobenius norm of S against the Bessel estimate B * sqrt(dim_h).

    The estimate sums |S e| over an orthonormal basis of H, so the
    cardinality entering it is the dimension of H (equal for the identity,
    where the inequality is tight).
    """
    s = family.svd.s
    b = frame_bounds(family)[1]
    # |S|_F = |s^2|_2, scaled by B = s_max^2 so that no s^4 is formed
    hs = b * float(np.linalg.norm((s / s[0]) ** 2)) if b > 0.0 else 0.0
    bound = b * math.sqrt(family.dim_h)
    if hs > bound * (1.0 + 1e-12) + 1e-15:
        raise InternalConsistencyError(
            f"frame operator Frobenius norm {hs} exceeds bound {bound}"
        )
    return hs, bound
