"""Constructors for test families with known structure.

All random constructions draw complex Gaussian entries and then shape the
spectrum exactly (no rejection sampling), so the advertised bounds hold by
construction and every seed reproduces the family bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _unit_vector,
    as_array,
    as_tuple,
    check_instance,
    check_int,
    check_real,
)
from .errors import ValidationError
from .family import HSFrameFamily

__all__ = [
    "GFrameSpec",
    "SpectrumSpec",
    "from_scalar_frame",
    "onb_family",
    "from_g_frame",
    "random_family",
    "riesz_family",
    "decaying_family",
]


@dataclass(frozen=True)
class SpectrumSpec:
    """Prescription for a positive spectrum: flat, geometric, or explicit."""

    kind: str
    level: float = 1.0
    ratio: float = 0.5
    values: tuple[float, ...] = ()

    @classmethod
    def flat(cls, level: float = 1.0) -> "SpectrumSpec":
        return cls(kind="flat", level=level)

    @classmethod
    def geometric(cls, ratio: float) -> "SpectrumSpec":
        return cls(kind="geometric", ratio=ratio)

    @classmethod
    def explicit(cls, values) -> "SpectrumSpec":
        values = as_tuple("values", values)
        return cls(
            kind="explicit",
            values=tuple(check_real("values", v, 0.0, math.inf) for v in values),
        )

    @classmethod
    def parse(cls, text: str) -> "SpectrumSpec":
        """Parse CLI syntax: ``flat``, ``flat:2.0``, ``geometric:0.5``,
        ``explicit:2,1,0.5``."""
        kind, _, arg = text.partition(":")
        kind = kind.strip().lower()
        try:
            if kind == "flat":
                return cls.flat(float(arg) if arg else 1.0)
            if kind == "geometric":
                return cls.geometric(float(arg))
            if kind == "explicit":
                return cls.explicit(float(v) for v in arg.split(","))
        except ValueError as exc:
            raise ValidationError(f"bad spectrum argument {text!r}: {exc}") from exc
        raise ValidationError(f"unknown spectrum kind {kind!r}")

    def resolve(self, n: int) -> np.ndarray:
        """Concrete positive, finite values of length ``n``."""
        if self.kind == "flat":
            vals = np.full(n, check_real("level", self.level, 0.0, math.inf))
        elif self.kind == "geometric":
            ratio = check_real("ratio", self.ratio, 0.0, math.inf)
            with np.errstate(over="ignore"):  # an overflow is rejected below
                vals = ratio ** np.arange(n, dtype=float)
        elif self.kind == "explicit":
            if len(self.values) != n:
                raise ValidationError(
                    f"explicit spectrum has {len(self.values)} values, need {n}"
                )
            vals = np.array(self.values, dtype=float)
        else:
            raise ValidationError(f"unknown spectrum kind {self.kind!r}")
        if not np.all((0.0 < vals) & (vals < math.inf)):
            raise ValidationError("spectrum values must be positive and finite")
        return vals


class GFrameSpec:
    """A family of blocks L_j (shape d_kj x dim_h), one per index."""

    def __init__(self, blocks):
        blocks = as_tuple("blocks", blocks)
        dim_h = as_array("blocks[0]", blocks[0], (None, None)).shape[1]
        self.blocks = tuple(
            as_array(f"blocks[{j}]", b, (None, dim_h)) for j, b in enumerate(blocks)
        )
        if min(self.block_dims) < 1:
            raise ValidationError(f"blocks must each have a row, got {self.block_dims}")
        self.dim_h = dim_h

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)


def from_scalar_frame(vectors) -> HSFrameFamily:
    """Classical frame of vectors, realized with 1x1 coefficient blocks.

    ``vectors`` holds one vector v_j per row.  Each map sends f to the
    single coefficient <f, v_j>, so the frame operator is the usual sum of
    outer products sum_j v_j v_j*.
    """
    vecs = as_array("vectors", vectors, (None, None))
    return HSFrameFamily._of_images(np.conjugate(vecs, order="C")[..., None, None])


def onb_family(dim_h: int) -> HSFrameFamily:
    """Scalar family built on the standard basis; its frame operator is I."""
    n = check_int("dim_h", dim_h, 1)
    return HSFrameFamily.from_synthesis_matrix(n, 1, np.eye(n))


def from_g_frame(spec: GFrameSpec, y0=None, dim_k: int | None = None) -> HSFrameFamily:
    """Embed a block family into matrix-valued maps without changing bounds.

    The blocks are stacked into one space of dimension sum d_kj, which sits
    inside the d_k x d_k matrices through the rank-one embedding against the
    unit vector ``y0``.  Since that embedding is isometric, the embedded
    family has exactly the bounds of the block family.
    """
    check_instance("spec", spec, GFrameSpec)
    total = spec.total_dim  # the blocks need dim_k >= total
    dim_k = total if dim_k is None else check_int("dim_k", dim_k, total)
    if y0 is None:
        y0v = np.zeros(dim_k, dtype=np.complex128)
        y0v[0] = 1.0
    else:
        y0v = _unit_vector(y0, dim_k)
    maps = []
    offset = 0
    for block in spec.blocks:
        emb = np.zeros((dim_k, spec.dim_h), dtype=np.complex128)
        emb[offset : offset + block.shape[0], :] = block
        # images[i] = (embedded column i) tensor y0
        maps.append(np.einsum("ki,l->ikl", emb, y0v.conj()))
        offset += block.shape[0]
    return HSFrameFamily(maps)


def _complex_gaussian(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _check_shape(dim_h, dim_k, count) -> tuple[int, int, int]:
    """The dimensions of a generated family, each an integer >= 1."""
    shape = {"dim_h": dim_h, "dim_k": dim_k, "count": count}
    return tuple(check_int(name, value, 1) for name, value in shape.items())


def random_family(
    dim_h: int, dim_k: int, count: int, spectrum: SpectrumSpec, seed: int = 0
) -> HSFrameFamily:
    """Random frame family whose frame operator has the prescribed spectrum."""
    dim_h, dim_k, count = _check_shape(dim_h, dim_k, count)
    ncols = count * dim_k * dim_k
    if ncols < dim_h:
        raise ValidationError(
            f"cannot build a frame: count*dim_k^2 = {ncols} < dim_h = {dim_h}"
        )
    values = spectrum.resolve(dim_h)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    q, _ = np.linalg.qr(_complex_gaussian(rng, ncols, dim_h))
    v, _ = np.linalg.qr(_complex_gaussian(rng, dim_h, dim_h))
    t = (v * np.sqrt(values)) @ q.conj().T
    return HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, t)


def riesz_family(
    dim_h: int, dim_k: int, count: int, spectrum: SpectrumSpec, seed: int = 0
) -> HSFrameFamily:
    """Family whose synthesis matrix has full column rank with prescribed
    squared singular values.

    Needs count*dim_k^2 <= dim_h; the family is a Riesz basis exactly when
    equality holds (otherwise it is injective but spans a proper subspace).
    """
    dim_h, dim_k, count = _check_shape(dim_h, dim_k, count)
    ncols = count * dim_k * dim_k
    if ncols > dim_h:
        raise ValidationError(
            f"cannot build an independent family: count*dim_k^2 = {ncols} "
            f"> dim_h = {dim_h}"
        )
    values = spectrum.resolve(ncols)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    u, _ = np.linalg.qr(_complex_gaussian(rng, dim_h, ncols))
    w, _ = np.linalg.qr(_complex_gaussian(rng, ncols, ncols))
    t = (u * np.sqrt(values)) @ w.conj().T
    return HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, t)


def decaying_family(
    dim_h: int, dim_k: int, count: int, tail_ratio: float, seed: int = 0
) -> HSFrameFamily:
    """Frame with geometrically decaying per-index norms after a solid head.

    The head is a tight cover of the space (so the lower bound stays >= 1
    no matter the tail); map j of the tail then gets operator norm
    tail_ratio^j.  Prefix convergence is gradual and measurable.
    """
    tail_ratio = check_real("tail_ratio", tail_ratio, 0.0, 1.0)
    dim_h, dim_k, count = _check_shape(dim_h, dim_k, count)
    blk = dim_k * dim_k
    head = math.ceil(dim_h / blk)
    if count < head:
        raise ValidationError(
            f"count={count} too small to cover dim_h={dim_h} with d_k={dim_k} "
            f"(need at least {head})"
        )
    rng = np.random.default_rng(check_int("seed", seed, 0))
    t = np.zeros((dim_h, count * blk), dtype=np.complex128)
    t[:, :dim_h] = np.eye(dim_h)
    # each tail block is drawn straight into t, real part then imaginary,
    # the stream order seeded families are fixed by; one draw of the whole
    # tail would leave a temporary as large as the tail, which raised the
    # process's peak RSS.  The blocks' spectral norms are taken in one pass
    tail = t[:, head * blk :].reshape(dim_h, count - head, blk).transpose(1, 0, 2)
    for block in tail:
        block.real = rng.standard_normal((dim_h, blk))
        block.imag = rng.standard_normal((dim_h, blk))
    scales = [tail_ratio**j for j in range(1, count - head + 1)]
    tail *= (scales / np.linalg.svd(tail, compute_uv=False)[:, 0])[:, None, None]
    return HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, t)
