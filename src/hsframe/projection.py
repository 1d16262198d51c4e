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

A sweep is one pass over the schedule with one running factorization: prefix
n's thin SVD U s V^H is taken of [U' diag(s'), T_{n'+1..n}] (n' the previous
prefix), which has T_n's Gram matrix.  Only U and s are read, so when that
block is at least twice as wide as tall (a jump over many maps) it is
factored through the R factor of its conjugate transpose, whose right
singular vectors are U, and its V^H is never formed; a nearer-square block
takes the plain thin SVD.  With Q_n = U[:, :r_n] the plain
section Q_n^H S_n Q_n is diag(s_r^2), and each compression at k > n adds the
Gram matrix of blocks n+1..k of Q_n^H T.  By Cauchy interlacing (H_n in
H_{n+1}, S_k <= S_{k+1}), lambda_min of the compression is non-increasing in
n and non-decreasing in k, so k(n) = n + m(n) never decreases and each search
starts at the previous k.  The skip is guarded: when the compression at
k - 1 already reaches A/lambda, the search rescans from k = n, so m(n) is
always the one-step-at-a-time scan's answer.  That happens through roundoff,
or when a rank decision breaks the nesting: a direction kept in H_n can fall
below rank_tol * sigma_max, and out of H_{n+1}, once a large map arrives.

Once H_n is all of H, Q_n is unitary, so Q_n^H S_k Q_n is unitarily similar
to S_k and neither its spectrum nor the oversampled solution depends on n:
k(n) = max(n, k_H), where k_H is the k found by the last search on a
full-rank section.  The sweep keeps that search's pair (k_H, S_k^-1 f), and
a later full-rank prefix with n <= k_H takes it with no search or solve.

Every entry point reads one ``_Section`` per prefix, the one place that
knows a prefix's edge cases: the empty section (rank 0) and a plain section
the SVD cannot resolve.  The latter's oversampled compression is still
bounded below by A/lambda, so a sweep keeps that half of a flagged row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    _left_svd,
    _norm,
    as_tuple,
    as_vector,
    check_instance,
    check_int,
    check_real,
)
from .errors import (
    InternalConsistencyError,
    NumericError,
    SectionSingularError,
    ValidationError,
)
from .family import (
    DEFAULT_RANK_TOL,
    CoefficientSequence,
    HSFrameFamily,
    _check_coefficients,
    _inverse_frame_apply,
    _positive_bounds,
    _require_frame,
    check_rank_tol,
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
        lengths = as_tuple("lengths", self.lengths)
        prev = 0  # strictly increasing from 1
        for n in lengths:
            prev = check_int("lengths", n, prev + 1)
        object.__setattr__(self, "lengths", tuple(int(n) for n in lengths))

    @classmethod
    def full(cls, count: int) -> "SectionSchedule":
        return cls(tuple(range(1, check_int("count", count, 1) + 1)))

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
    """Orthonormal basis of a section space H_n and its singular values."""

    q: np.ndarray  # (dim_h, rank), orthonormal columns
    rank: int
    n: int
    sigma: np.ndarray  # (rank,), descending: Q^H S_n Q = diag(sigma^2)


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
    flagged: bool = False  # plain section singular: err_plain..strong_residual nan


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


def subspace_basis(
    family: HSFrameFamily, n: int, rank_tol: float = DEFAULT_RANK_TOL
) -> SubspaceBasis:
    """Orthonormal basis of span{adjoint ranges of the first n maps}."""
    check_instance("family", family, HSFrameFamily)
    check_int("n", n, 1, family.count)
    check_rank_tol(rank_tol)
    return next(_prefix_bases(family, (n,), rank_tol))


def _prefix_bases(family: HSFrameFamily, ns, rank_tol: float):
    """Basis of each prefix in the increasing ``ns``, from one running SVD.

    [U' diag(s'), T[:, n' blk : n blk]] has T_n's Gram matrix, so its U and s
    are T_n's.  Every column of U' s' is kept, so rank drops stay exact; the
    whole family reads its cached SVD.
    """
    t = family.synthesis_matrix
    blk = family.dim_k * family.dim_k
    us, prev = t[:, :0], 0
    for n in ns:
        if n == family.count:
            u, s = family.svd.u, family.svd.s
        else:
            u, s, _ = _left_svd(np.hstack([us, t[:, prev * blk : n * blk]]))
        us, prev = u * s, n
        rank = numerical_rank(s, rank_tol)
        q, sigma = u[:, :rank].copy(), s[:rank].copy()
        q.flags.writeable = sigma.flags.writeable = False
        yield SubspaceBasis(q=q, rank=rank, n=n, sigma=sigma)


def _check_floor(basis: SubspaceBasis) -> None:
    """Reject a section its SVD cannot resolve: sigma_r <= 16 r eps sigma_max.

    The plain section is diag(sigma_r^2) read off that SVD, so its accuracy
    follows sigma_max / sigma_r, and the floor is on sigma, in the units of
    the rank rule.  With rank_tol above 16 r eps it never fires, and the
    empty section has nothing to resolve.
    """
    sigma = basis.sigma
    if sigma.size and sigma[-1] <= 16.0 * sigma.size * np.finfo(float).eps * sigma[0]:
        raise SectionSingularError(
            f"sectional operator at n={basis.n} is numerically singular "
            f"(singular value {sigma[-1]:.3e} vs top {sigma[0]:.3e}); "
            "rank_tol is too loose for this family"
        )


def _check_schedule(schedule: SectionSchedule, family: HSFrameFamily) -> None:
    """``schedule`` is a ``SectionSchedule`` that stays within the family."""
    check_instance("schedule", schedule, SectionSchedule)
    schedule.validate_for(family)


def _check_lambda(lam) -> None:
    check_real("lambda", lam, 1.0, math.inf)


def sectional_operator(basis: SubspaceBasis) -> np.ndarray:
    """Compression Q_n^H S_n Q_n = diag(sigma^2) of S_n to H_n, n = basis.n.

    Positive definite there by construction (0 x 0 for the empty section); a
    singular value the SVD cannot resolve (``_check_floor``) means the rank
    tolerance used for the basis was too loose, and raises
    ``SectionSingularError``.
    """
    check_instance("basis", basis, SubspaceBasis)
    _check_floor(basis)
    return np.diag(basis.sigma**2)


def project(basis: SubspaceBasis, f) -> np.ndarray:
    """Orthogonal projection Q_n Q_n^H f onto the section space."""
    check_instance("basis", basis, SubspaceBasis)
    fv = as_vector("f", f, basis.q.shape[0])
    return basis.q @ (basis.q.conj().T @ fv)


class _Section:
    """One prefix n: Q_n, s_r and the tail of Q_n^H T; Q_n^H S_n Q_n = diag(s_r^2).

    Each compression at k > n adds the Gram matrix of blocks n+1..k of
    Q_n^H T; its eigenvalues are computed at most once per k, and the last
    one built is kept for the solve.  The edge cases live here: the floor
    check guards the plain inverse alone, and the empty section (rank 0)
    needs no oversampling and inverts to 0.
    """

    def __init__(self, family: HSFrameFamily, basis: SubspaceBasis):
        self.n = basis.n
        self.basis = basis
        self._family = family
        self._blk = family.dim_k * family.dim_k
        self._sig2 = basis.sigma**2
        self._evals: dict[int, np.ndarray] = {self.n: self._sig2[::-1]}
        self._built = (None, None)  # the last compression built, (k, matrix)

    @cached_property
    def _tail(self) -> np.ndarray:
        """Blocks n+1..count of Q_n^H T."""
        t = self._family.synthesis_matrix
        return self.basis.q.conj().T @ t[:, self.n * self._blk :]

    def compressed(self, k: int) -> np.ndarray:
        """Q_n^H S_k Q_n."""
        if self._built[0] != k:
            w = self._tail[:, : (k - self.n) * self._blk]
            gram = w @ w.conj().T
            self._built = k, np.diag(self._sig2) + (gram + gram.conj().T) / 2.0
        return self._built[1]

    def evals(self, k: int) -> np.ndarray:
        if k not in self._evals:
            self._evals[k] = np.linalg.eigvalsh(self.compressed(k))
        return self._evals[k]

    def inv_apply(self, y: np.ndarray) -> np.ndarray:
        """Q (Q^H S_n Q)^-1 Q^H y = Q (Q^H y / s_r^2) for a vector y."""
        _check_floor(self.basis)
        q = self.basis.q
        return q @ ((q.conj().T @ y) / self._sig2)

    def oversampling(self, target: float, start: int) -> int:
        """Smallest k >= n with lambda_min(Q_n^H S_k Q_n) >= target, at most count.

        The scan starts at ``start``.  A sweep passes the previous prefix's
        k: by interlacing, every smaller k falls short for this prefix too.
        The skip is trusted only when k = start - 1 does fall short;
        otherwise roundoff or a rank decision broke the nesting and the scan
        restarts at k = n.  The empty section needs none: it returns n.
        """
        if self.basis.rank == 0:
            return self.n
        k = start
        if k > self.n and self.evals(k - 1)[0] >= target:
            k = self.n
        while k < self._family.count and self.evals(k)[0] < target:
            k += 1
        return k

    def oversampled_apply(
        self, k: int, bounds: tuple[float, float], lam: float, y: np.ndarray
    ) -> np.ndarray:
        """(Q^H S_k Q)^-1 Q^H y mapped back to H, after asserting that the
        compression's spectrum lies in [A/lam, B]; 0 on the empty section."""
        if self.basis.rank == 0:
            return np.zeros_like(y)
        a, b = bounds
        evals = self.evals(k)
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
        q = self.basis.q
        return q @ np.linalg.solve(self.compressed(k), q.conj().T @ y)


def projection_formula(family: HSFrameFamily, basis: SubspaceBasis, f) -> np.ndarray:
    """P_n f computed the long way: S_n^-1 of sum over j <= n of G_j* G_j f,
    with n = basis.n.  A basis that cannot be one of ``family``'s, one on
    another H or of a longer prefix than the family has, raises
    ``ValidationError``; one of another family of the same shape cannot be
    told apart."""
    check_instance("family", family, HSFrameFamily)
    check_instance("basis", basis, SubspaceBasis)
    if basis.q.shape[0] != family.dim_h or basis.n > family.count:
        raise ValidationError(
            f"basis must be a basis of this family's H_n: it has dim_h "
            f"{basis.q.shape[0]} and n = {basis.n}, the family dim_h "
            f"{family.dim_h} and count {family.count}"
        )
    fv = as_vector("f", f, family.dim_h)
    prefix = family.synthesis_matrix[:, : basis.n * family.dim_k**2]
    return _Section(family, basis).inv_apply(prefix @ (prefix.conj().T @ fv))


def plain_inverse_apply(
    family: HSFrameFamily, n: int, f, rank_tol: float = DEFAULT_RANK_TOL
) -> np.ndarray:
    """S_n^-1 P_n f with the sectional inverse taken on H_n only."""
    check_instance("family", family, HSFrameFamily)
    fv = as_vector("f", f, family.dim_h)
    return _Section(family, subspace_basis(family, n, rank_tol)).inv_apply(fv)


def find_oversampling(
    family: HSFrameFamily,
    n: int,
    lam: float,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> int:
    """Smallest m >= 0 with lambda_min(Q_n^H S_{n+m} Q_n) >= A/lam.

    Always terminates: at m = count - n the compressed operator is the
    restriction of the full frame operator, whose smallest eigenvalue is at
    least the optimal lower bound A.  The empty section needs none (m = 0).
    An A that underflows to 0 raises ``NumericError``.
    """
    check_instance("family", family, HSFrameFamily)
    _check_lambda(lam)
    _require_frame(family, rank_tol)
    a = _positive_bounds(family)[0]
    section = _Section(family, subspace_basis(family, n, rank_tol))
    return section.oversampling(a / lam, n) - n


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
    The empty section gives 0.  An A that underflows to 0 (sigma_min below
    about 1.5e-162) raises ``NumericError`` naming sigma_min.
    """
    check_instance("family", family, HSFrameFamily)
    fv = as_vector("f", f, family.dim_h)
    _check_lambda(lam)
    _require_frame(family, rank_tol)
    bounds = _positive_bounds(family)
    section = _Section(family, subspace_basis(family, n, rank_tol))
    k = section.oversampling(bounds[0] / lam, n)
    return section.oversampled_apply(k, bounds, lam, fv)


@np.errstate(over="ignore", invalid="ignore")  # overflow is raised below
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
    the strong method.  The oversampled half (m_n and err_oversampled) is
    computed first and on its own; a section whose plain inverse is
    singular flags its record, which keeps n, m_n, r_n and err_oversampled
    and has nan in the four columns that need that inverse, and the sweep
    continues.  One pass: each prefix gets its basis from one running
    factorization and one ``_Section``, and its oversampling search starts
    at the previous prefix's k.  Every search on a full-rank section sets
    the pair (k, S_k^-1 f); a later full-rank prefix with n <= that k takes
    the pair, m_n = k - n, with no search or solve.  A ground truth or a
    reported value that is not finite (f too large to represent them)
    raises ``NumericError``, as does an A that underflows to 0, checked
    after the ground truth.  Errors are taken without squaring entries, so
    they do not underflow to 0 near 1e-300.
    """
    check_instance("family", family, HSFrameFamily)
    fv = as_vector("f", f, family.dim_h)
    _check_lambda(lam)
    _check_schedule(schedule, family)
    _require_frame(family, rank_tol)
    ground = _inverse_frame_apply(family, fv)
    bounds = _positive_bounds(family)
    t = family.synthesis_matrix
    t_h = t.conj().T
    blk = family.dim_k * family.dim_k
    coeffs = (t_h @ fv).reshape(family.count, blk)  # row j is G_j f
    ground_coeffs = t_h @ ground

    records = []
    k, spanning = 0, None  # the last k found; (k, S_k^-1 f) once H_n = H
    for basis in _prefix_bases(family, schedule, rank_tol):
        n = basis.n
        section = _Section(family, basis)
        full = basis.rank == family.dim_h
        if full and spanning is not None and n <= spanning[0]:
            k, over = spanning
        else:
            k = section.oversampling(bounds[0] / lam, max(n, k))
            over = section.oversampled_apply(k, bounds, lam, fv)
            if full:
                spanning = k, over
        err_over = _norm(over - ground)
        err_plain = crit2 = crit3 = strong = math.nan  # stay nan on a flagged row
        try:
            plain = section.inv_apply(fv)
        except SectionSingularError:
            flagged = True
        else:
            flagged = False
            y = t_h @ plain  # G_j x_n for every j
            cut = n * blk
            err_plain = _norm(plain - ground)
            crit2 = _norm(t[:, cut:] @ y[cut:])  # |(S - S_n) x_n|
            crit3 = float(np.linalg.norm(y[cut:]) ** 2)
            # S_n^-1 P_n and S^-1 are self-adjoint, so the strong residual's
            # <(S_n^-1 P_n - S^-1) G_j* G_j f, f> is <G_j f, G_j (x_n - S^-1 f)>
            err_coeffs = (y - ground_coeffs)[:cut].reshape(n, blk)
            inner = np.sum(coeffs[:n].conj() * err_coeffs, axis=1)
            strong = float(np.sum(np.abs(inner) ** 2))
        values = (err_over,) if flagged else (err_over, err_plain, crit2, crit3, strong)
        if not all(map(math.isfinite, values)):
            raise NumericError(f"row n={n} overflows: the vector is too large")
        records.append(ConvergenceRecord(
            n=n,
            m_n=k - n,
            r_n=basis.rank,
            err_plain=err_plain,
            err_oversampled=err_over,
            crit2=crit2,
            crit3=crit3,
            strong_residual=strong,
            flagged=flagged,
        ))
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
    check_instance("family", family, HSFrameFamily)
    fv = as_vector("f", f, family.dim_h)
    check_int("index", index, 0, family.count - 1)
    _require_frame(family, rank_tol)
    g_j = family.maps[index]  # G_j* G_j f; not adjoint_apply, which checks G_j f
    w = g_j.images.reshape(family.dim_h, -1).conj() @ g_j(fv).reshape(-1)
    ns, values = tuple(range(index + 1, family.count + 1)), []
    for basis in _prefix_bases(family, ns, rank_tol):
        try:
            values.append(_norm(_Section(family, basis).inv_apply(w)))
        except SectionSingularError:
            values.append(math.nan)
    finite = [v for v in values if not math.isnan(v)]
    return UniformBoundProfile(
        index=index,
        c_max=max(finite) if finite else math.nan,
        ns=ns,
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
    _check_coefficients(family, coeffs)
    _check_schedule(schedule, family)
    check_rank_tol(rank_tol)
    check_real("tol", tol, 0.0, math.inf, closed=(True, False))
    t = family.synthesis_matrix
    blk = family.dim_k * family.dim_k
    c_vec = coeffs.stacked()
    svd = family.svd
    rank = numerical_rank(svd.s, rank_tol)
    # g = (T^H)^+ c from T = U s V^H: the analysis part of c is T^H g
    g = svd.u[:, :rank] @ ((svd.vh[:rank] @ c_vec) / svd.s[:rank])
    kernel_vec = c_vec - t.conj().T @ g
    kernel_norm = _norm(kernel_vec)

    r_full, r_kernel, gaps = [], [], []
    for basis in _prefix_bases(family, schedule, rank_tol):
        section, cut = _Section(family, basis), basis.n * blk
        q = basis.q  # P_n g needs Q_n only; g is computed, so not project()
        gaps.append(_norm(q @ (q.conj().T @ g) - g))
        try:
            x_n = section.inv_apply(t[:, :cut] @ c_vec[:cut])
            y_n = section.inv_apply(t[:, :cut] @ kernel_vec[:cut])
            r_full.append(_norm(x_n - g))
            r_kernel.append(_norm(y_n))
        except SectionSingularError:
            r_full.append(math.nan)
            r_kernel.append(math.nan)
    scale = tol * (1.0 + _norm(c_vec))
    co_vanish = (
        not math.isnan(r_full[-1])
        and (r_full[-1] <= scale) == (r_kernel[-1] <= scale)
    )
    return KernelConsistencyReport(
        ns=schedule.lengths,
        residual_full=tuple(r_full),
        residual_kernel=tuple(r_kernel),
        projection_gap=tuple(gaps),
        kernel_norm=kernel_norm,
        co_vanish=co_vanish,
    )
