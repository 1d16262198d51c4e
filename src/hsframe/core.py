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


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-d complex128 array."""
    v = np.asarray(x, dtype=np.complex128)
    if v.ndim != 1:
        raise ValidationError(f"expected a vector, got shape {v.shape}")
    return v


def as_matrix(a) -> np.ndarray:
    """Coerce to a square 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def frob_inner(a, b) -> complex:
    """Trace inner product trace(B* A) of two square matrices.

    Linear in ``a``, conjugate-linear in ``b``.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise ValidationError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    # trace(B* A) = sum_ab conj(B_ab) A_ab
    return complex(np.vdot(bm, am))


def hs_norm(a) -> float:
    """Frobenius norm, i.e. sqrt of the sum of squared entry moduli."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128)))


def rank_one(x, y) -> np.ndarray:
    """Rank-one operator z -> <z, y> x as a matrix with entries x_a conj(y_b)."""
    xv = as_vector(x)
    yv = as_vector(y)
    if xv.shape != yv.shape:
        raise ValidationError(f"dimension mismatch: {xv.shape} vs {yv.shape}")
    return np.outer(xv, yv.conj())


def embed_vector(x, y0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Isometric embedding x -> x (tensor) y0 of vectors into matrix space.

    ``y0`` must be a unit vector; then the Frobenius norm of the result
    equals the Euclidean norm of ``x``.
    """
    y0v = as_vector(y0)
    n0 = np.linalg.norm(y0v)
    if abs(n0 - 1.0) > tol:
        raise ValidationError(f"embedding direction must be a unit vector, norm={n0!r}")
    return rank_one(x, y0v)


def vectorize(a) -> np.ndarray:
    """Row-major flattening of a square matrix.

    Preserves inner products: the Euclidean inner product of two vectorized
    matrices equals their trace inner product.
    """
    return as_matrix(a).reshape(-1)


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`vectorize`; the length must be a perfect square."""
    vv = as_vector(v)
    d = math.isqrt(vv.size)
    if d * d != vv.size:
        raise ValidationError(f"length {vv.size} is not a perfect square")
    return vv.reshape(d, d)
