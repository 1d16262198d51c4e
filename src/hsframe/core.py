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


def hs_norm(a) -> float:
    """Frobenius norm, i.e. sqrt of the sum of squared entry moduli."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128)))


def rank_one(x, y) -> np.ndarray:
    """Rank-one operator z -> <z, y> x as a matrix with entries x_a conj(y_b)."""
    xv = as_vector("x", x)
    return np.outer(xv, as_vector("y", y, xv.size).conj())


def _unit_vector(y0, n: int, tol=DEFAULT_TOL) -> np.ndarray:
    """``y0`` as a vector of length ``n`` whose norm is within ``tol`` of 1."""
    y0v = as_vector("y0", y0, n)
    norm = np.linalg.norm(y0v)
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
