"""Finite-section approximation of the inverse frame operator.

For a nested run of prefixes J_n = {first n indices}, the section space H_n
is the span of the adjoint ranges of the first n maps.  The sectional frame
operator S_n is inverted only on H_n (it is singular on the complement), by
compressing with an orthonormal basis Q_n of H_n obtained from a
rank-revealing SVD.

Two inverse approximations are computed against the dense ground truth
S^-1 f of the full family:

* plain:        S_n^-1 P_n f
* oversampled:  (P_n S_{n+m(n)})^-1 P_n f, where m(n) is the smallest
  oversampling amount that pushes the smallest eigenvalue of the compressed
  operator above A/lambda.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .core import as_vector
from .errors import (
    InternalConsistencyError,
    SectionSingularError,
    ValidationError,
)
from .family import (
    DEFAULT_RANK_TOL,
    CoefficientSequence,
    HSFrameFamily,
    _check_vector,
    _require_frame,
    frame_bounds,
    frame_operator,
    numerical_rank,
)

__all__ = [
    "SectionSchedule",
    "SubspaceBasis",
    "ConvergenceRecord",
    "UniformBoundProfile",
    "KernelConsistencyReport",
    "subspace_basis",
    "sectional_operator",
    "project",
    "projection_formula",
    "plain_inverse_apply",
    "find_oversampling",
    "oversampled_inverse_apply",
    "convergence_sweep",
    "uniform_bound_scan",
    "kernel_consistency",
]


@dataclass(frozen=True)
class SectionSchedule:
    """Strictly increasing prefix lengths."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths:
            raise ValidationError("schedule must contain at least one length")
        prev = 0
        for n in self.lengths:
            if not isinstance(n, numbers.Integral) or n <= prev:
                raise ValidationError(
                    f"schedule must be strictly increasing positive ints, got {self.lengths}"
                )
            prev = n
        object.__setattr__(self, "lengths", tuple(int(n) for n in self.lengths))

    @classmethod
    def full(cls, count: int) -> "SectionSchedule":
        return cls(tuple(range(1, count + 1)))

    @classmethod
    def parse(cls, text: str, count: int) -> "SectionSchedule":
        """CLI syntax: a comma list like ``1,2,4`` or ``prefix:all``."""
        text = text.strip().lower()
        if text == "prefix:all":
            return cls.full(count)
        try:
            lengths = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad schedule {text!r}: {exc}") from exc
        return cls(lengths)

    def validate_for(self, family: HSFrameFamily) -> None:
        if self.lengths[-1] > family.count:
            raise ValidationError(
                f"schedule reaches {self.lengths[-1]} but the family has only "
                f"{family.count} maps"
            )

    def __iter__(self):
        return iter(self.lengths)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a section space H_n."""

    q: np.ndarray  # (dim_h, rank), orthonormal columns
    rank: int
    n: int
    rank_tol: float


@dataclass(frozen=True)
class ConvergenceRecord:
    n: int
    m_n: int
    r_n: int
    err_plain: float
    err_oversampled: float
    crit2: float
    crit3: float
    strong_residual: float
    flagged: bool = False


@dataclass(frozen=True)
class UniformBoundProfile:
    index: int
    c_max: float
    ns: tuple[int, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class KernelConsistencyReport:
    """Both limit statements of the kernel/range splitting, per prefix."""

    ns: tuple[int, ...]
    residual_full: tuple[float, ...]  # statement (1): |x_n - g|
    residual_kernel: tuple[float, ...]  # statement (2): |y_n|
    projection_gap: tuple[float, ...]  # |P_n g - g|, mediating the two
    kernel_norm: float
    co_vanish: bool


def _prefix_columns(family: HSFrameFamily, n: int) -> np.ndarray:
    blk = family.dim_k * family.dim_k
    return family.synthesis_matrix[:, : n * blk]


def subspace_basis(
    family: HSFrameFamily, n: int, rank_tol: float = DEFAULT_RANK_TOL
) -> SubspaceBasis:
    """Orthonormal basis of span{adjoint ranges of the first n maps}."""
    if not 1 <= n <= family.count:
        raise ValidationError(f"prefix length {n} outside 1..{family.count}")
    if n == family.count:  # the whole family: reuse its factorization
        u, s = family.svd.u, family.svd.s
    else:
        u, s, _ = np.linalg.svd(_prefix_columns(family, n), full_matrices=False)
    rank = numerical_rank(s, rank_tol)
    q = u[:, :rank].copy()
    q.flags.writeable = False
    return SubspaceBasis(q=q, rank=rank, n=n, rank_tol=rank_tol)


def sectional_operator(
    family: HSFrameFamily, n: int, basis: SubspaceBasis
) -> np.ndarray:
    """Compression Q_n^H S_n Q_n of the sectional frame operator to H_n.

    Positive definite there by construction; a numerically vanishing
    eigenvalue means the rank tolerance used for the basis was too loose.
    """
    w = basis.q.conj().T @ _prefix_columns(family, n)
    sec = w @ w.conj().T
    sec = (sec + sec.conj().T) / 2.0
    if basis.rank > 0:
        lam = np.linalg.eigvalsh(sec)
        floor = 16.0 * basis.rank * np.finfo(float).eps * float(lam[-1])
        if float(lam[0]) <= floor:
            raise SectionSingularError(
                f"sectional operator at n={n} is numerically singular "
                f"(eigenvalue {lam[0]:.3e} vs top {lam[-1]:.3e}); "
                "rank_tol is too loose for this family"
            )
    return sec


def project(basis: SubspaceBasis, f) -> np.ndarray:
    """Orthogonal projection Q_n Q_n^H f onto the section space."""
    fv = as_vector(f)
    if fv.size != basis.q.shape[0]:
        raise ValidationError(f"vector length {fv.size} != dim_h {basis.q.shape[0]}")
    return basis.q @ (basis.q.conj().T @ fv)


class _Section:
    """Factored sectional solve y -> Q (Q^H S_n Q)^-1 Q^H y, reused per n."""

    def __init__(self, family: HSFrameFamily, n: int, rank_tol: float):
        self.family = family
        self.n = n
        self.basis = subspace_basis(family, n, rank_tol)
        if self.basis.rank > 0:
            sec = sectional_operator(family, n, self.basis)
            try:
                self._cho = cho_factor(sec)
            except LinAlgError as exc:
                raise SectionSingularError(
                    f"sectional operator at n={n} is not positive definite"
                ) from exc
        else:
            self._cho = None

    def inv_apply(self, vec: np.ndarray) -> np.ndarray:
        if self._cho is None:
            return np.zeros_like(vec)
        q = self.basis.q
        return q @ cho_solve(self._cho, q.conj().T @ vec)


def projection_formula(
    family: HSFrameFamily, n: int, basis: SubspaceBasis, f
) -> np.ndarray:
    """P_n f computed the long way: sum over j <= n of S_n^-1 G_j* G_j f."""
    fv = _check_vector(family, f)
    if basis.rank == 0:
        return np.zeros_like(fv)
    acc = np.zeros(family.dim_h, dtype=np.complex128)
    for j in range(n):
        acc += family.maps[j].adjoint_apply(family.maps[j](fv))
    sec = sectional_operator(family, n, basis)
    return basis.q @ np.linalg.solve(sec, basis.q.conj().T @ acc)


def plain_inverse_apply(
    family: HSFrameFamily, n: int, f, rank_tol: float = DEFAULT_RANK_TOL
) -> np.ndarray:
    """S_n^-1 P_n f with the sectional inverse taken on H_n only."""
    fv = _check_vector(family, f)
    return _Section(family, n, rank_tol).inv_apply(fv)


def _compressed_prefix_operator(
    family: HSFrameFamily, basis: SubspaceBasis, length: int
) -> np.ndarray:
    w = basis.q.conj().T @ _prefix_columns(family, length)
    sec = w @ w.conj().T
    return (sec + sec.conj().T) / 2.0


def find_oversampling(
    family: HSFrameFamily,
    n: int,
    lam: float,
    rank_tol: float = DEFAULT_RANK_TOL,
    basis: SubspaceBasis | None = None,
) -> int:
    """Smallest m >= 0 with lambda_min(Q_n^H S_{n+m} Q_n) >= A/lam.

    Always terminates: at m = count - n the compressed operator is the
    restriction of the full frame operator, whose smallest eigenvalue is at
    least the optimal lower bound A.
    """
    if not lam > 1.0:
        raise ValidationError(f"lambda must be > 1, got {lam}")
    _require_frame(family, rank_tol)
    if basis is None:
        basis = subspace_basis(family, n, rank_tol)
    if basis.rank == 0:
        return 0
    target = frame_bounds(family)[0] / lam
    for m in range(family.count - n + 1):
        sec = _compressed_prefix_operator(family, basis, n + m)
        if float(np.linalg.eigvalsh(sec)[0]) >= target:
            return m
    return family.count - n


def oversampled_inverse_apply(
    family: HSFrameFamily,
    n: int,
    lam: float,
    f,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> np.ndarray:
    """(P_n S_{n+m(n)})^-1 P_n f with certified section conditioning.

    After choosing m(n), the compressed operator must satisfy
    lambda_max <= B and lambda_min >= A/lambda; both are asserted and a
    failure raises, since it would indicate a bug rather than bad data.
    """
    fv = _check_vector(family, f)
    _require_frame(family, rank_tol)
    a, b = frame_bounds(family)
    basis = subspace_basis(family, n, rank_tol)
    if basis.rank == 0:
        return np.zeros_like(fv)
    m = find_oversampling(family, n, lam, rank_tol=rank_tol, basis=basis)
    sec = _compressed_prefix_operator(family, basis, n + m)
    evals = np.linalg.eigvalsh(sec)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    slack = 1e-12 * max(1.0, b)
    if lam_max > b + slack:
        raise InternalConsistencyError(
            f"compressed operator norm {lam_max} exceeds upper bound {b}"
        )
    if lam_min < a / lam - slack:
        raise InternalConsistencyError(
            f"compressed operator smallest eigenvalue {lam_min} below "
            f"certified level {a / lam}"
        )
    y = np.linalg.solve(sec, basis.q.conj().T @ fv)
    return basis.q @ y


def _nan_record(n: int) -> ConvergenceRecord:
    nan = math.nan
    return ConvergenceRecord(
        n=n, m_n=-1, r_n=0, err_plain=nan, err_oversampled=nan,
        crit2=nan, crit3=nan, strong_residual=nan, flagged=True,
    )


def convergence_sweep(
    family: HSFrameFamily,
    schedule: SectionSchedule,
    f,
    lam: float = 2.0,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> list[ConvergenceRecord]:
    """All convergence diagnostics per prefix, against the dense S^-1 f.

    Per prefix n the record carries the plain and oversampled inverse
    errors, the two equivalent vanishing criteria (operator deficiency
    crit2 and tail energy crit3), and the coefficient-level residual of
    the strong method.  A singular section flags its record and the sweep
    continues.
    """
    fv = _check_vector(family, f)
    if not lam > 1.0:
        raise ValidationError(f"lambda must be > 1, got {lam}")
    schedule.validate_for(family)
    _require_frame(family, rank_tol)
    s = frame_operator(family)
    s_cho = cho_factor(s)
    ground = cho_solve(s_cho, fv)
    t = family.synthesis_matrix
    blk = family.dim_k * family.dim_k

    records = []
    for n in schedule:
        try:
            section = _Section(family, n, rank_tol)
            plain = section.inv_apply(fv)
            err_plain = float(np.linalg.norm(plain - ground))

            m_n = find_oversampling(
                family, n, lam, rank_tol=rank_tol, basis=section.basis
            )
            over = oversampled_inverse_apply(family, n, lam, fv, rank_tol=rank_tol)
            err_over = float(np.linalg.norm(over - ground))

            prefix = t[:, : n * blk]
            s_n_plain = prefix @ (prefix.conj().T @ plain)
            crit2 = float(np.linalg.norm(s @ plain - s_n_plain))
            tail = t[:, n * blk :]
            crit3 = float(np.linalg.norm(tail.conj().T @ plain) ** 2)

            strong = 0.0
            for j in range(n):
                block = t[:, j * blk : (j + 1) * blk]
                w_j = block @ (block.conj().T @ fv)
                diff = section.inv_apply(w_j) - cho_solve(s_cho, w_j)
                strong += abs(np.vdot(diff, fv)) ** 2
            records.append(
                ConvergenceRecord(
                    n=n,
                    m_n=m_n,
                    r_n=section.basis.rank,
                    err_plain=err_plain,
                    err_oversampled=err_over,
                    crit2=crit2,
                    crit3=crit3,
                    strong_residual=float(strong),
                )
            )
        except SectionSingularError:
            records.append(_nan_record(n))
    return records


def uniform_bound_scan(
    family: HSFrameFamily,
    index: int,
    f,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> UniformBoundProfile:
    """Profile of |S_n^-1 P_n G_j* G_j f| over all prefixes containing j.

    ``index`` is 0-based; the profile starts at n = index + 1.  The maximum
    over the profile is the uniform constant for this index and vector.
    """
    fv = _check_vector(family, f)
    if not 0 <= index < family.count:
        raise ValidationError(f"index {index} outside 0..{family.count - 1}")
    _require_frame(family, rank_tol)
    w = family.maps[index].adjoint_apply(family.maps[index](fv))
    ns, values = [], []
    for n in range(index + 1, family.count + 1):
        ns.append(n)
        try:
            values.append(
                float(np.linalg.norm(_Section(family, n, rank_tol).inv_apply(w)))
            )
        except SectionSingularError:
            values.append(math.nan)
    finite = [v for v in values if not math.isnan(v)]
    return UniformBoundProfile(
        index=index,
        c_max=max(finite) if finite else math.nan,
        ns=tuple(ns),
        values=tuple(values),
    )


def kernel_consistency(
    family: HSFrameFamily,
    coeffs: CoefficientSequence,
    schedule: SectionSchedule,
    rank_tol: float = DEFAULT_RANK_TOL,
    tol: float = 1e-8,
) -> KernelConsistencyReport:
    """Evaluate both sectional limit statements along the schedule.

    The coefficient sequence is split orthogonally into an analysis part
    (coming from some vector g) and a kernel part of the synthesis
    operator.  Statement (1) tracks the sectional inverse applied to the
    prefix synthesis of the full sequence against g; statement (2) tracks
    the same for the kernel part against zero.  The two residuals differ
    by at most |P_n g - g|, so they vanish or persist together.
    """
    if len(coeffs) != family.count or coeffs.dim_k != family.dim_k:
        raise ValidationError("coefficient sequence does not match the family")
    schedule.validate_for(family)
    t = family.synthesis_matrix
    blk = family.dim_k * family.dim_k
    c_vec = coeffs.stacked()
    g, *_ = np.linalg.lstsq(t.conj().T, c_vec, rcond=None)
    kernel_vec = c_vec - t.conj().T @ g
    kernel_norm = float(np.linalg.norm(kernel_vec))

    ns, r_full, r_kernel, gaps = [], [], [], []
    for n in schedule:
        ns.append(n)
        try:
            section = _Section(family, n, rank_tol)
            prefix = t[:, : n * blk]
            x_n = section.inv_apply(prefix @ c_vec[: n * blk])
            y_n = section.inv_apply(prefix @ kernel_vec[: n * blk])
            r_full.append(float(np.linalg.norm(x_n - g)))
            r_kernel.append(float(np.linalg.norm(y_n)))
            gaps.append(float(np.linalg.norm(project(section.basis, g) - g)))
        except SectionSingularError:
            r_full.append(math.nan)
            r_kernel.append(math.nan)
            gaps.append(math.nan)
    scale = tol * (1.0 + float(np.linalg.norm(c_vec)))
    co_vanish = (
        not math.isnan(r_full[-1])
        and (r_full[-1] <= scale) == (r_kernel[-1] <= scale)
    )
    return KernelConsistencyReport(
        ns=tuple(ns),
        residual_full=tuple(r_full),
        residual_kernel=tuple(r_kernel),
        projection_gap=tuple(gaps),
        kernel_norm=kernel_norm,
        co_vanish=co_vanish,
    )
