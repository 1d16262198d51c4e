"""Finite-section approximation of the inverse frame operator.

For a nested run of prefixes J_n = {first n indices}, the section space H_n
is the span of the adjoint ranges of the first n maps.  The sectional frame
operator S_n is inverted only on H_n (it is singular on the complement), by
compressing with an orthonormal basis Q_n of H_n obtained from a
rank-revealing SVD, or Q_n = I once H_n is all of H.

Two inverse approximations are computed against the dense ground truth
S^-1 f of the full family:

* plain:        S_n^-1 P_n f
* oversampled:  (P_n S_{n+m(n)})^-1 P_n f, where m(n) is the smallest
  oversampling amount that pushes the smallest eigenvalue of the compressed
  operator above A/lambda.

Both are one operator, Q_n (Q_n^H S_k Q_n)^-1 Q_n^H f, taken at k = n and at
k = n + m(n), and both go through one solve.

A sweep is one pass over the schedule with one running factor, kept as
F^H, where F F^H = S_n' for the previous prefix n'.  Every row but n =
count, which reads the family's cached SVD, is factored from one stack
[F^H; block^H], block = T[:, n' blk : n blk], whose Gram matrix is T_n's,
and has Q_n^H S_n Q_n = L^H L.  A stack less than twice as tall as dim_h,
while F is not yet square (dim_h columns), takes its own thin SVD: U s
V^H of its conjugate transpose gives Q_n = U[:, :r_n] and L = diag(s_r),
and the next F^H is (U s)^H.  Every other stack takes its QR, R^H R =
S_n.  When F was square and the rank is dim_h, H_n = H and R is the
section: Q_n = I, L = R and the next F^H is R itself, so the prefixes
after the first that spans H take no singular vectors.  Otherwise R's
right singular vectors give U (Chan's R-SVD), and V^H is never formed:
a jump over many maps and a rank drop take the same lines.  The rank of
an R after a square F is read off one values-only SVD of R, which the
rank rule and the floor check use, until one such row certifies full
rank for the rest of the sweep (S_n0 <= S_n <= S bounds every later s;
see ``_sections``).  A certified row takes its QR and no SVD, and reads s
off R only if its search asks for it.  These R sections share one
read-only identity as Q_n.  R sections agree with an SVD of T_n to
rounding, so the reported errors can move in their last digits, while
r_n and m_n do not.  The plain solve at k = n is a division by s_r^2, or
two triangular solves with R, and a row whose search returns k = n takes
it once for both inverses.  Each compression at k > n adds the Gram
matrix of blocks n+1..k of Q_n^H T to L^H L, and only there is a dense
matrix built and solved, the same way for both kinds of section: a
product with the identity Q_n is exact.  A section keeps the one it
built last, so the search's tests at its k and the solve share one
build.

By Cauchy interlacing (H_n in H_{n+1}, S_k <= S_{k+1}), lambda_min of the
compression is non-increasing in n and non-decreasing in k, so k(n) = n +
m(n) never decreases and each search starts at the previous k.  A step
asks only whether C_k - (A/lambda) I is positive definite, C_k the
compression at k, and a Cholesky test answers that: the search factors
C_k - (A/lambda -+ delta) I, delta a bound on the rounding of the tests
and of eigvalsh, and calls eigvalsh only when lambda_min lies within delta
of A/lambda, so every decision is eigvalsh's verdict bit for bit (see
``SubspaceBasis._at_least``).  The search asserts that the spectrum of
the compression it returns lies in [A/lambda, B].  The skip is guarded:
when the compression at k - 1 already reaches A/lambda, the search rescans
from k = n, so m(n) is always the one-step-at-a-time scan's answer.  That
happens through roundoff, or when a rank decision breaks the nesting: a
direction kept in H_n can fall below rank_tol * sigma_max, and out of
H_{n+1}, once a large map arrives.

Once H_n is all of H, Q_n is unitary, so Q_n^H S_k Q_n is unitarily similar
to S_k and neither its spectrum nor the oversampled solution depends on n:
k(n) = max(n, k_H), where k_H is the k found by the last search on a
full-rank section.  The sweep keeps that search's pair (k_H, S_k^-1 f), and
a later full-rank prefix with n <= k_H takes it, and the error it gave,
with no search or solve.

A section is one object, ``SubspaceBasis``: Q_n, s_r and L together with
the family, its projection, its solve, its search and its floor check.
Every entry point gets its sections from one factory, ``_sections``, which
yields one per prefix of a schedule from the running factorization
(``subspace_basis`` is its one-prefix case), and takes every sectional
inverse from that section's one solve, of a vector or of a block of them;
the two single-prefix searches share one helper, and
``projection_formula`` solves on the basis its caller passes.
``SubspaceBasis`` is the one place that knows a prefix's edge cases: the
empty section (rank 0), whose search returns k = n and whose solve,
through a zero-width Q_n, is 0, and a plain section the SVD cannot
resolve, which the section decides once.  The latter's oversampled
compression is still bounded below by A/lambda, so a sweep keeps that
half of a flagged row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    _norm,
    _tall,
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
    _product_rounding,
    _require_frame,
    _squared,
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
        lengths = tuple(check_int("lengths", n, 1) for n in lengths)
        for prev, n in zip(lengths, lengths[1:]):
            if n <= prev:
                raise ValidationError(
                    "lengths must be strictly increasing integers >= 1, "
                    f"got {prev} then {n}"
                )
        object.__setattr__(self, "lengths", lengths)

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
    """Orthonormal basis of span{adjoint ranges of the first n maps}: the
    section of prefix n, after checking ``family``, ``n`` and ``rank_tol``."""
    check_instance("family", family, HSFrameFamily)
    check_int("n", n, 1, family.count)
    check_rank_tol(rank_tol)
    return next(_sections(family, (n,), rank_tol))


def _sections(family: HSFrameFamily, ns, rank_tol: float):
    """The ``SubspaceBasis`` of each prefix in the increasing ``ns``, from one running factor.

    The running factor is kept as F^H, F F^H = S_n' for the previous
    prefix n', so the stack [F^H; T[:, n' blk : n blk]^H] has T_n's Gram
    matrix.  A stack less than twice as tall as dim_h, while F has fewer
    than dim_h columns, takes the thin SVD of its conjugate transpose,
    which gives T_n's U and s, and F is U s, every column of it kept, so
    rank drops stay exact.  Every other stack takes its R factor, R^H R =
    S_n.  After a square F, a values-only SVD of R gives s; while the rank
    is dim_h the section is R itself (Q_n = I) and F^H is R.  Any other R,
    after a rank drop or a jump from a narrower F, gives U by its right
    singular vectors (Chan's R-SVD).  The whole family reads its cached
    SVD.

    Full rank is certified once, so later R rows take their QR and no SVD.
    A full-rank R row passes the rank rule and the floor check (both
    ``numerical_rank`` and ``SubspaceBasis._singular`` on its own s)
    exactly when s_min > tau s_max, tau = max(rank_tol, 16 dim_h eps).  For
    every later prefix n, S_n0 <= S_n <= S, so sigma_min(T_n) >=
    sigma_min(T_n0) and sigma_max(T_n) <= sigma_max(T).  The computed s of
    a row carries the rounding of at most count running QRs and one SVD,
    each about dim_h eps sigma_max(T): within rho = (count + 1) dim_h eps
    sigma_max(T) of T_n's exact values.  So, with s0 the computed s of an R
    row n0,

        s_min(R_n) >= s0_min - 2 rho,   s_max(R_n) <= sigma_max(T) + rho,

    and every later row passes both rules when s0_min > tau sigma_max(T)
    + (2 + tau) rho.  As tau < 1, an R row certifies the rest once

        s0_min > tau sigma_max(T) + 3 rho.

    After that row a section knows its rank is dim_h without s, passes the
    floor check without reading it, and takes s from the same values-only
    SVD of its R on first read.  ``family.svd`` is read only at the first
    full-rank R row, so a one-prefix schedule, which has no R row, factors
    nothing new.
    """
    t = family.synthesis_matrix
    dim_h, blk = family.dim_h, family.dim_k * family.dim_k
    eye = np.eye(dim_h, dtype=t.dtype)  # Q_n of every R section
    eye.flags.writeable = False
    top, prev = t[:, :0].conj().T, 0  # F^H
    floor, certified = None, False  # the s0_min that certifies; once cleared
    for n in ns:
        square = top.shape[0] == dim_h  # F is square
        if n < family.count:  # [F^H; block^H], column-major as LAPACK reads it
            stack = np.hstack([top.T, t[:, prev * blk : n * blk].conj()]).T
        prev = n
        if n == family.count:
            u, s = family.svd.u, family.svd.s
        elif not square and not _tall(stack.shape):
            u, s, _ = np.linalg.svd(stack.conj().T, full_matrices=False)
        else:
            r = np.linalg.qr(stack, mode="r")
            s = np.linalg.svd(r, compute_uv=False) if square and not certified else None
            if certified or s is not None and numerical_rank(s, rank_tol) == dim_h:
                if not certified:
                    if floor is None:
                        eps, smax = np.finfo(float).eps, family.svd.s[0]
                        rho = (family.count + 1) * dim_h * eps * smax
                        floor = max(rank_tol, 16.0 * dim_h * eps) * smax + 3.0 * rho
                    certified = s[-1] > floor
                    s = _frozen(s)
                top = r
                yield SubspaceBasis(family, n, eye, s, r)
                continue
            _, s, wh = np.linalg.svd(r, full_matrices=False)
            u = wh.conj().T
        top = (u * s).conj().T
        rank = numerical_rank(s, rank_tol)
        yield SubspaceBasis(family, n, _frozen(u[:, :rank]), _frozen(s[:rank]))


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``."""
    a = a.copy()
    a.flags.writeable = False
    return a


def _check_schedule(schedule: SectionSchedule, family: HSFrameFamily) -> None:
    """``schedule`` is a ``SectionSchedule`` that stays within the family."""
    check_instance("schedule", schedule, SectionSchedule)
    schedule.validate_for(family)


def _check_lambda(lam) -> None:
    check_real("lambda", lam, 1.0, math.inf)


def sectional_operator(basis: SubspaceBasis) -> np.ndarray:
    """Compression Q_n^H S_n Q_n = L^H L of S_n to H_n, n = basis.n:
    diag(sigma^2) in an SVD basis, R^H R once Q_n = I.

    Positive definite there by construction (0 x 0 for the empty section); a
    singular value the SVD cannot resolve (``SubspaceBasis._singular``)
    means the rank tolerance used for the basis was too loose, and raises
    ``SectionSingularError``.
    """
    check_instance("basis", basis, SubspaceBasis)
    if basis._singular:
        raise SectionSingularError(basis._singular)
    return basis._plain.copy()


def project(basis: SubspaceBasis, f) -> np.ndarray:
    """Orthogonal projection Q_n Q_n^H f onto the section space."""
    check_instance("basis", basis, SubspaceBasis)
    return basis.project(as_vector("f", f, basis.q.shape[0]))


class SubspaceBasis:
    """One section, prefix n: an orthonormal basis Q_n of H_n, the singular
    values s_r of T_n and every sectional inverse.  Q_n^H S_n Q_n = L^H L,
    where L is diag(s_r) for a section read off an SVD (Q_n = U[:, :r_n]),
    and L is the square R factor of T_n^H, with Q_n = I, for a section that
    ``_sections`` takes from its running R once H_n = H.  Only the plain
    section and its solve at k = n tell the two kinds apart.  The section
    owns its floor check: ``_singular`` is decided once, on first read.

    ``q`` and ``sigma`` are read-only, and ``rank`` is the number of Q_n's
    columns, ``sigma.size``; the R sections of a sweep share one identity
    as ``q``.  A section after the row where ``_sections`` certified full
    rank is made without s_r: it passes the floor check unread, and
    ``sigma`` is the values-only SVD of its R, taken on first read.  Made
    by ``_sections``, the one factory, from the running factorization.
    Every sectional inverse is one ``solve(k, y)``, of a vector y or of a
    (dim_h, p) block of them: the plain one at k = n, which divides by
    s_r^2 or takes two triangular solves with R, and the oversampled one
    at the k the search returns, Q_n C_k^-1 Q_n^H y.  Each
    compression C_k = Q_n^H S_k Q_n at k > n adds the Gram matrix of blocks
    n+1..k of Q_n^H T to L^H L; the section keeps the latest one built,
    which the search's tests and the solve at its k share.  The search
    decides each step by ``_at_least``, Cholesky tests with eigenvalues
    computed at most once per k and only where the tests cannot decide; at
    k = n the eigenvalues are s_r^2.  The floor check guards the plain
    inverse alone, and the empty section (rank 0) needs no oversampling
    and solves to 0.
    """

    def __init__(
        self,
        family: HSFrameFamily,
        n: int,
        q: np.ndarray,
        sigma: np.ndarray | None,
        r: np.ndarray | None = None,
    ):
        self.n = n
        self.q = q  # (dim_h, rank), orthonormal columns
        if sigma is not None:
            self.sigma = sigma  # (rank,), descending
        self._certified = sigma is None  # full rank, certified by the sweep
        self._family = family
        self._blk = family.dim_k * family.dim_k
        self._r = r  # R with R^H R = S_n when q is I
        self._evals: dict[int, np.ndarray] = {}
        self._latest: tuple[int, np.ndarray] | None = None  # (k, C_k) built last

    @cached_property
    def sigma(self) -> np.ndarray:
        """s_r of a certified section, off one values-only SVD of its R."""
        sigma = np.linalg.svd(self._r, compute_uv=False)
        sigma.flags.writeable = False
        return sigma

    @cached_property
    def _singular(self) -> str | None:
        """The floor check: why the plain section is singular, or None.

        It rejects a section its SVD cannot resolve, sigma_r <= 16 r eps
        sigma_max.  The plain section is diag(sigma_r^2) read off that SVD,
        so its accuracy follows sigma_max / sigma_r, and the floor is on
        sigma, in the units of the rank rule.  With rank_tol above 16 r eps
        it never fires, and the empty section has nothing to resolve, nor
        has a section whose sweep certified its full rank (``_sections``),
        which passes without reading sigma.
        """
        if self._certified:
            return None
        s = self.sigma
        if s.size and s[-1] <= 16.0 * s.size * np.finfo(float).eps * s[0]:
            return (
                f"sectional operator at n={self.n} is numerically singular "
                f"(singular value {s[-1]:.3e} vs top {s[0]:.3e}); "
                "rank_tol is too loose for this family"
            )
        return None

    @cached_property
    def _sig2(self) -> np.ndarray:
        return self.sigma**2

    @property
    def rank(self) -> int:
        return self.q.shape[1]

    @cached_property
    def _plain(self) -> np.ndarray:
        """The plain section Q_n^H S_n Q_n = L^H L."""
        if self._r is None:
            return np.diag(self._sig2)
        gram = self._r.conj().T @ self._r
        return (gram + gram.conj().T) / 2.0

    @cached_property
    def _tail(self) -> np.ndarray:
        """Blocks n+1..count of Q_n^H T."""
        return self.q.conj().T @ self._family.synthesis_matrix[:, self.n * self._blk :]

    def compressed(self, k: int) -> np.ndarray:
        """C_k = Q_n^H S_k Q_n for k > n, read-only."""
        if self._latest is None or self._latest[0] != k:
            w = self._tail[:, : (k - self.n) * self._blk]
            gram = w @ w.conj().T
            c = self._plain + (gram + gram.conj().T) / 2.0
            c.flags.writeable = False
            self._latest = k, c
        return self._latest[1]

    def evals(self, k: int) -> np.ndarray:
        if k not in self._evals:
            self._evals[k] = (
                self._sig2[::-1] if k == self.n else np.linalg.eigvalsh(self.compressed(k))
            )
        return self._evals[k]

    @cached_property
    def _margin(self) -> float:
        """delta = 8 (m + 1)^2 eps B of ``_at_least``, m the rank."""
        b = _squared(self._family.svd.s[0])
        return 8.0 * (self.rank + 1) ** 2 * np.finfo(float).eps * b

    def _at_least(self, k: int, level: float) -> bool:
        """The verdict of eigvalsh(C_k)[0] >= level, C_k = Q_n^H S_k Q_n,
        from Cholesky tests where they decide it.

        At k = n that is s_r^2 read off sigma.  Beyond, C_k - (level -
        delta) I is tested first: if Cholesky fails, False; then C_k -
        (level + delta) I: if it succeeds, True.  Only a level within delta
        of lambda_min falls through to the cached ``evals``, and the margin
        makes the tests agree with them, so every decision, and with it
        m(n), is the eigen-scan's.

        Let M be a shifted compression of order m = rank, gamma_j = j eps /
        (1 - j eps) and c_m = m gamma_{m+1} / (1 - m gamma_{m+1}).  Forming
        M rounds only its diagonal, each entry by at most eps |m_ii|.  A
        Cholesky that succeeds factors M + E with |E|_2 <= c_m |M|_2, by
        its backward error (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., Thm 10.3), so lambda_min(M) >= -c_m |M|_2.  One
        that fails had lambda_min(M) <= c_m max m_ii, by Demmel's scaled
        condition (Thm 10.7).  eigvalsh's computed values lie within
        p(m) eps |C_k|_2 of the exact ones, with |C_k|_2 <= B, B the
        family's upper frame bound, for a modest p(m).  A test can only
        contradict the computed eigenvalue where its shift lies within
        these errors of the spectrum, where |M|_2 and max m_ii are at most
        2B + delta, so the verdicts agree once

            delta > c_m (2B + delta) + 2 eps B + p(m) eps B.

        As c_m is about m (m + 1) eps, delta = 8 (m + 1)^2 eps B leaves
        about 6 (m + 1)^2 eps B for eigvalsh's error.
        """
        if k > self.n:
            c, delta = self.compressed(k), self._margin
            if not _definite(c, level - delta, 1):
                return False
            if _definite(c, level + delta, 1):
                return True
        return bool(self.evals(k)[0] >= level)

    def _at_most(self, k: int, level: float) -> bool:
        """The verdict of eigvalsh(C_k)[-1] <= level, by the mirror image of
        ``_at_least``'s second test: True if Cholesky factors (level -
        delta) I - C_k, else the cached ``evals`` decide.  Its one caller
        raises on False, which reads the eigenvalues anyway, so the test
        that can only refute is not made."""
        if k > self.n and _definite(self.compressed(k), level - self._margin, -1):
            return True
        return bool(self.evals(k)[-1] <= level)

    def project(self, y: np.ndarray) -> np.ndarray:
        """P_n y = Q_n Q_n^H y, which is y itself when Q_n = I."""
        return self.q @ (self.q.conj().T @ y)

    def solve(self, k: int, y: np.ndarray) -> np.ndarray:
        """Q (Q^H S_k Q)^-1 Q^H y for a vector y, or for each column of a
        (dim_h, p) block y in one call.  At k = n that is Q (Q^H y / s_r^2),
        or R^-1 R^-H y when Q = I.  A compression that LAPACK finds exactly
        singular, which the search's certificate leaves possible only where
        B/A is beyond about 1/eps, raises ``NumericError`` naming n and k."""
        q = self.q
        if k == self.n:
            if self._r is not None:
                return np.linalg.solve(self._r, np.linalg.solve(self._r.conj().T, y))
            return q @ ((q.conj().T @ y).T / self._sig2).T  # row i over s_i^2
        try:
            z = np.linalg.solve(self.compressed(k), q.conj().T @ y)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"compressed operator Q_n^H S_k Q_n at n={self.n}, k={k} is "
                f"singular to working precision ({exc})"
            ) from exc
        return q @ z

    def inv_apply(self, y: np.ndarray) -> np.ndarray:
        """S_n^-1 P_n y, after the floor check."""
        if self._singular:
            raise SectionSingularError(self._singular)
        return self.solve(self.n, y)

    def oversampling(self, bounds: tuple[float, float], lam: float, start: int) -> int:
        """Smallest k >= n with lambda_min(Q_n^H S_k Q_n) >= A/lam, at most count.

        The scan starts at ``start``.  A sweep passes the previous prefix's
        k: by interlacing, every smaller k falls short for this prefix too.
        The skip is trusted only when k = start - 1 does fall short;
        otherwise roundoff or a rank decision broke the nesting and the scan
        restarts at k = n.  The k returned is certified: its compression's
        spectrum lies in [A/lam, B], asserted because a failure would be a
        bug, not bad data.  Every step, the guard and both ends of the
        assertion are ``_at_least``'s (or its mirror's) verdicts, which are
        those of eigvalsh.  The empty section needs none: it returns n.
        """
        if self.rank == 0:
            return self.n
        a, b = bounds
        target = a / lam
        k = start
        if k > self.n and self._at_least(k - 1, target):
            k = self.n
        while k < self._family.count and not self._at_least(k, target):
            k += 1
        slack = 1e-12 * max(1.0, b)
        if not self._at_most(k, b + slack):
            raise InternalConsistencyError(
                f"compressed operator norm {float(self.evals(k)[-1])} exceeds "
                f"upper bound {b}"
            )
        # a climb that stopped below count did so on ev[0] >= target
        if k == self._family.count and not self._at_least(k, target - slack):
            raise InternalConsistencyError(
                f"compressed operator smallest eigenvalue {float(self.evals(k)[0])} "
                f"below certified level {target}"
            )
        return k


def _definite(c: np.ndarray, shift: float, sign: int) -> bool:
    """Does Cholesky factor sign (C - shift I)?  Its LinAlgError means no."""
    m = sign * c
    m.flat[:: m.shape[0] + 1] -= sign * shift
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


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
    return basis.inv_apply(prefix @ (prefix.conj().T @ fv))


def plain_inverse_apply(
    family: HSFrameFamily, n: int, f, rank_tol: float = DEFAULT_RANK_TOL
) -> np.ndarray:
    """S_n^-1 P_n f with the sectional inverse taken on H_n only."""
    check_instance("family", family, HSFrameFamily)
    fv = as_vector("f", f, family.dim_h)
    return subspace_basis(family, n, rank_tol).inv_apply(fv)


def _search(family: HSFrameFamily, n: int, lam: float, rank_tol: float):
    """(section, k): the section of prefix n and the k = n + m(n) its
    oversampling search certifies, after checking lambda, that the family
    is a frame with A > 0, and n."""
    _check_lambda(lam)
    _require_frame(family, rank_tol)
    bounds = _positive_bounds(family)
    section = subspace_basis(family, n, rank_tol)
    return section, section.oversampling(bounds, lam, n)


def find_oversampling(
    family: HSFrameFamily,
    n: int,
    lam: float,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> int:
    """Smallest m >= 0 with lambda_min(Q_n^H S_{n+m} Q_n) >= A/lam.

    Always terminates: at m = count - n the compressed operator is the
    restriction of the full frame operator, whose smallest eigenvalue is at
    least the optimal lower bound A.  The search asserts that the chosen
    compression's spectrum lies in [A/lam, B]; a failure raises
    ``InternalConsistencyError``, since it would indicate a bug rather than
    bad data.  The empty section needs none (m = 0).  An A that underflows
    to 0 raises ``NumericError``.
    """
    check_instance("family", family, HSFrameFamily)
    return _search(family, n, lam, rank_tol)[1] - n


def oversampled_inverse_apply(
    family: HSFrameFamily,
    n: int,
    lam: float,
    f,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> np.ndarray:
    """(P_n S_{n+m(n)})^-1 P_n f with certified section conditioning.

    The search that chooses m(n) asserts lambda_max <= B and lambda_min >=
    A/lambda for the compressed operator, as ``find_oversampling`` does.
    At m(n) = 0 this is the plain inverse, bit for bit and with no LAPACK
    call: both are the k = n solve, a division by s_r^2.  The empty section
    gives 0.  An A that underflows to 0 (sigma_min below
    about 1.5e-162) raises ``NumericError`` naming sigma_min.
    """
    check_instance("family", family, HSFrameFamily)
    fv = as_vector("f", f, family.dim_h)
    section, k = _search(family, n, lam, rank_tol)
    return section.solve(k, fv)


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
    continues.  One pass: each prefix gets its ``SubspaceBasis`` from one
    running factorization, and its oversampling search starts at the
    previous prefix's k.  Every search on a full-rank section sets
    the pair (k, S_k^-1 f); a later full-rank prefix with n <= that k takes
    the pair, m_n = k - n, and its err_oversampled, with no search or
    solve.  A row with k = n takes one solve for both inverses.  A ground
    truth or a reported value that is not finite (f too large to represent
    them) raises ``NumericError``, as does an A that underflows to 0,
    checked after the ground truth, and a compression that LAPACK finds
    exactly singular (B/A beyond about 1/eps), naming n and k.  Errors are
    taken without squaring entries, so they do not underflow to 0 near
    1e-300.
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
    k, spanning = 0, None  # the last k found; (k, S_k^-1 f, its error) once H_n = H
    for section in _sections(family, schedule, rank_tol):
        n, rank = section.n, section.rank
        full = rank == family.dim_h
        if full and spanning is not None and n <= spanning[0]:
            k, over, err_over = spanning
        else:
            k = section.oversampling(bounds, lam, max(n, k))
            over = section.solve(k, fv)
            err_over = _norm(over - ground)
            if full:
                spanning = k, over, err_over
        err_plain = crit2 = crit3 = strong = math.nan  # stay nan on a flagged row
        flagged = section._singular is not None
        if not flagged:
            plain = over if k == n else section.solve(n, fv)  # one k = n solve
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
            r_n=rank,
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
    ns = tuple(range(index + 1, family.count + 1))
    values = [
        math.nan if section._singular else _norm(section.solve(section.n, w))
        for section in _sections(family, ns, rank_tol)
    ]
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
) -> KernelConsistencyReport:
    """Evaluate both sectional limit statements along the schedule.

    The coefficient sequence is split orthogonally into an analysis part
    (coming from some vector g) and a kernel part of the synthesis
    operator.  Statement (1) tracks the sectional inverse applied to the
    prefix synthesis of the full sequence against g; statement (2) tracks
    the same for the kernel part against zero.  The two residuals differ
    by at most |P_n g - g|, so they vanish or persist together.

    ``co_vanish`` says that both last residuals lie within, or both
    beyond, the rounding of the n = count solve, where both are 0 in exact
    arithmetic: b = 8 (N + dim_h) eps |T|_F |c| / sigma_r^2, with N the
    columns of T and sigma_r the least singular value kept
    (``_product_rounding``; b = 0 for T = 0).  That solve is
    S^-1 fl(T c) through the cached U and s, and fl(T c) rounds by at most
    1.5 N eps |T|_F |c|, which S^-1 (norm 1/sigma_r^2) maps to x_n.  The
    kernel part c - T^H g rounds with T^H g, a product of inner dimension
    dim_h, by 1.5 dim_h eps |T|_F |g| with |g| <= |c| / sigma_r, which
    reaches y_n through S^-1 T (norm 1/sigma_r).  The SVD's backward error,
    a few eps |T|, reaches both the same way, since g and S^-1 are taken
    through the same factors.  A flagged or infinite residual, or an
    infinite b, gives False.
    """
    _check_coefficients(family, coeffs)
    _check_schedule(schedule, family)
    check_rank_tol(rank_tol)
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
    for section in _sections(family, schedule, rank_tol):
        cut = section.n * blk
        gaps.append(_norm(section.project(g) - g))  # 0 once Q_n = I
        if section._singular:
            r_full.append(math.nan)
            r_kernel.append(math.nan)
        else:  # both statements in one solve, each right side by its own gemv
            rhs = np.column_stack([t[:, :cut] @ v[:cut] for v in (c_vec, kernel_vec)])
            x_n, y_n = section.solve(section.n, rhs).T
            r_full.append(_norm(x_n - g))
            r_kernel.append(_norm(y_n))
    sigma_r = float(svd.s[rank - 1]) if rank else math.inf  # rank 0: T = 0, b = 0
    bound = _product_rounding(family) * _norm(c_vec) / sigma_r / sigma_r
    co_vanish = all(map(math.isfinite, (r_full[-1], r_kernel[-1], bound))) and (
        (r_full[-1] <= bound) == (r_kernel[-1] <= bound)
    )
    return KernelConsistencyReport(
        ns=schedule.lengths,
        residual_full=tuple(r_full),
        residual_kernel=tuple(r_kernel),
        projection_gap=tuple(gaps),
        kernel_norm=kernel_norm,
        co_vanish=co_vanish,
    )
