"""Matrix-space substrate: trace inner product, rank-one algebra, embeddings.

Operator-valued frame elements take values in the space of d_k x d_k complex
matrices carrying the Frobenius (trace) inner product.  Everything downstream
reduces to ordinary dense linear algebra through the row-major vectorization
implemented here, which identifies that matrix space with C^(d_k^2)
isometrically.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ValidationError

__all__ = [
    "frob_inner",
    "hs_norm",
    "rank_one",
    "embed_vector",
    "vectorize",
    "devectorize",
    "as_matrix",
    "as_vector",
]

#: Default relative tolerance for algebraic identities.
DEFAULT_TOL = 1e-9


def check_real(name: str, value, low, high, closed=(False, False)) -> float:
    """``value`` as a float: a real number, not a bool, inside the interval
    from ``low`` to ``high``, which holds an end when ``closed`` says so.
    NaN and a number too large for a float never pass."""
    v = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:
            pass
    if (low < v or closed[0] and v == low) and (v < high or closed[1] and v == high):
        return v
    ends = ("[" if closed[0] else "(", "]" if closed[1] else ")")
    interval = f"{ends[0]}{float(low)}, {float(high)}{ends[1]}"
    raise ValidationError(f"{name} must be a finite real in {interval}, got {value!r}")


def check_int(name: str, value, low, high=math.inf) -> int:
    """``value`` as an int: an integer, not a bool, with low <= value <= high."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if low <= value <= high:
            return int(value)
    where = f">= {low}" if high == math.inf else f"in {low}..{high}"
    raise ValidationError(f"{name} must be {where} and an integer, got {value!r}")


def check_instance(name: str, value, cls: type) -> None:
    """``ValidationError`` unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ValidationError(
            f"{name} must be {cls.__name__}, got {type(value).__name__}"
        )


def _complex_array(name: str, value) -> np.ndarray:
    """``value`` as a complex128 array, not copied if it is one, a None entry as
    NaN; ``ValidationError`` naming ``name`` if numpy cannot convert it."""
    try:
        return np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric array: {exc}") from exc


def as_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a complex128 array of ``shape``, which has an int for each
    fixed axis and None for each free one, with every entry finite."""
    arr = _complex_array(name, value)
    if arr.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, arr.shape)):
        want = str(tuple(shape)).replace("None", "*")
        raise ValidationError(f"{name} must have shape {want}, got {arr.shape}")
    return _finite(name, arr)


def _finite(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr``, after checking that every entry is finite."""
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite, got a NaN or inf entry")
    return arr


def as_vector(name: str, x, n: int | None = None) -> np.ndarray:
    """A finite complex128 vector, of length ``n`` when it is given."""
    return as_array(name, x, (n,))


def as_matrix(name: str, a) -> np.ndarray:
    """A finite, square complex128 matrix."""
    m = as_array(name, a, (None, None))
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def as_tuple(name: str, value) -> tuple:
    """The items of ``value``, which must be a nonempty iterable."""
    try:
        items = tuple(value)
    except TypeError:
        items = ()
    if not items:
        raise ValidationError(f"{name} must be a nonempty sequence, got {value!r}")
    return items


def frob_inner(a, b) -> complex:
    """Trace inner product trace(B* A) of two square matrices.

    Linear in ``a``, conjugate-linear in ``b``.
    """
    am = as_matrix("a", a)
    # trace(B* A) = sum_ab conj(B_ab) A_ab
    return complex(np.vdot(as_array("b", b, am.shape), am))


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of all of ``x``'s entries, whose squares need not be
    representable.

    Outside a norm of 2**-400 to 2**400 the entries are scaled by the power
    of two nearest their largest magnitude, which is exact, so norms near
    1e-300 or 1e300 neither underflow to 0 nor overflow to inf.  Inside it
    the result is ``np.linalg.norm``'s, unscaled: no square there overflows,
    and squares that underflow sum to less than half an ulp of the total,
    so scaling would give the same bits.  A norm past the largest float is
    inf, with no numpy warning.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
        if 2.0**-400 < norm < 2.0**400:
            return norm
        peak = float(np.max(np.abs(x), initial=0.0))
        if not 0.0 < peak < math.inf:
            return peak  # 0, inf or nan
        e = min(max(math.frexp(peak)[1], -1000), 1000)  # 2**-e stays finite
        return float(np.ldexp(np.linalg.norm(x * math.ldexp(1.0, -e)), e))


#: A matrix with at least this many times as many rows as columns is tall:
#: ``_right_svd`` and ``_spectral_norm`` factor it through its square R
#: factor.  gesdd takes its own QR step from 17/9 up, so above the cut-off
#: the route keeps its bits.
_TALL = 2


def _tall(shape: tuple[int, int]) -> bool:
    """Whether a matrix of ``shape`` (rows, columns) is at least ``_TALL``
    times taller than wide, with a column."""
    rows, cols = shape
    return cols >= 1 and rows >= _TALL * cols


def _right_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors (s, V^H) of ``a``'s thin
    SVD, without forming U.

    A tall ``a`` = Q R is factored through R (Chan's R-SVD): R is square
    with a's s and V^H, and its SVD skips the rows x columns U.  LAPACK's
    gesdd takes the same QR step first for such shapes, so s and V^H come
    out as the thin SVD gives them (bit for bit with OpenBLAS 0.3.31).
    """
    if _tall(a.shape):
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return s, vh


def _left_svd(a: np.ndarray):
    """Left singular vectors and singular values (U, s) of ``a``'s thin SVD,
    and a function that forms its V^H when called.

    A wide ``a`` (at least ``_TALL`` times as many columns as rows) is
    factored through the square R of a^H = Q R, as ``_right_svd`` does:
    R = U_R diag(s) W^H gives a = W diag(s) (Q U_R)^H, so a's U is W, and
    its V^H = (Q U_R)^H is formed only when called, from a second, reduced
    QR of a^H (whose R numpy returns bit for bit as ``mode="r"`` does).
    Any other shape takes the plain thin SVD.
    """
    if _tall(a.shape[::-1]):
        r = np.linalg.qr(a.conj().T, mode="r")
        u_r, s, wh = np.linalg.svd(r, full_matrices=False)

        def right() -> np.ndarray:
            q = np.linalg.qr(a.conj().T)[0]
            return np.conjugate((q @ u_r).T, order="C")

        return wh.conj().T, s, right
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, lambda: vh


def _spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of the matrix ``a``, read off its short side.

    A tall ``a`` = Q R, or a wide one through a^H, has the singular values
    of its square R factor, so only R is factored (Chan's R-SVD): LAPACK
    would otherwise take a wide ``a`` through its slower LQ path.  A
    near-square ``a`` is factored as it is, bit for bit
    ``np.linalg.norm(a, 2)``; through R the last bits may move.  The norm
    is a values-only ``np.linalg.svd`` call, the one ``norm`` makes
    internally, so a count of ``np.linalg.svd`` calls sees it.
    """
    if _tall(a.shape):
        a = np.linalg.qr(a, mode="r")
    elif _tall(a.shape[::-1]):
        a = np.linalg.qr(a.conj().T, mode="r")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def hs_norm(a) -> float:
    """Frobenius norm, i.e. sqrt of the sum of squared entry moduli."""
    return _norm(_finite("a", _complex_array("a", a)))


def rank_one(x, y) -> np.ndarray:
    """Rank-one operator z -> <z, y> x as a matrix with entries x_a conj(y_b)."""
    xv = as_vector("x", x)
    return np.outer(xv, as_vector("y", y, xv.size).conj())


def _unit_vector(y0, n: int, tol=DEFAULT_TOL) -> np.ndarray:
    """``y0`` as a vector of length ``n`` whose norm is within ``tol`` of 1."""
    y0v = as_vector("y0", y0, n)
    norm = _norm(y0v)
    if abs(norm - 1.0) > check_real("tol", tol, 0.0, math.inf, closed=(True, False)):
        raise ValidationError(f"y0 must be a unit vector, got norm {norm!r}")
    return y0v


def embed_vector(x, y0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Isometric embedding x -> x (tensor) y0 of vectors into matrix space.

    ``y0`` must be a unit vector of ``x``'s length; then the Frobenius norm
    of the result equals the Euclidean norm of ``x``.
    """
    xv = as_vector("x", x)
    return np.outer(xv, _unit_vector(y0, xv.size, tol).conj())


def vectorize(a) -> np.ndarray:
    """Row-major flattening of a square matrix.

    Preserves inner products: the Euclidean inner product of two vectorized
    matrices equals their trace inner product.
    """
    return as_matrix("a", a).reshape(-1)


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`; the length must be a perfect square."""
    vv = as_vector("v", v)
    d = math.isqrt(vv.size)
    if d * d != vv.size:
        raise ValidationError(f"v must have a perfect-square length, got {vv.size}")
    return vv.reshape(d, d)
