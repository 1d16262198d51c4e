"""Constructors for test families with known structure.

All random constructions draw complex Gaussian entries and then shape the
spectrum exactly (no rejection sampling), so the advertised bounds hold by
construction and every seed reproduces the family bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_vector
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
        return cls(kind="explicit", values=tuple(float(v) for v in values))

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
        if n < 1:
            raise ValidationError(f"spectrum length must be >= 1, got {n}")
        if self.kind == "flat":
            vals = np.full(n, float(self.level))
        elif self.kind == "geometric":
            if not 0.0 < self.ratio:
                raise ValidationError(f"geometric ratio must be > 0, got {self.ratio}")
            with np.errstate(over="ignore"):  # an overflow is rejected below
                vals = self.ratio ** np.arange(n, dtype=float)
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
        blocks = tuple(np.asarray(b, dtype=np.complex128) for b in blocks)
        if not blocks:
            raise ValidationError("need at least one block")
        dim_h = blocks[0].shape[1] if blocks[0].ndim == 2 else -1
        for j, b in enumerate(blocks):
            if b.ndim != 2 or b.shape[1] != dim_h or b.shape[0] < 1:
                raise ValidationError(
                    f"block {j} has shape {b.shape}, expected (d_kj, {dim_h})"
                )
        self.blocks = blocks
        self.dim_h = dim_h

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)


def from_scalar_frame(vectors) -> HSFrameFamily:
    """Classical frame of vectors, realized with 1x1 coefficient blocks.

    Each map sends f to the single coefficient <f, v_j>, so the frame
    operator is the usual sum of outer products sum_j v_j v_j*.
    """
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        raise ValidationError("need at least one vector")
    dim_h = vecs[0].size
    for j, v in enumerate(vecs):
        if v.size != dim_h:
            raise ValidationError(f"vector {j} has length {v.size}, expected {dim_h}")
    return HSFrameFamily([v.conj().reshape(dim_h, 1, 1) for v in vecs])


def onb_family(dim_h: int) -> HSFrameFamily:
    """Scalar family built on the standard basis; its frame operator is I."""
    if dim_h < 1:
        raise ValidationError(f"dim_h must be >= 1, got {dim_h}")
    return from_scalar_frame(np.eye(dim_h))


def from_g_frame(spec: GFrameSpec, y0=None, dim_k: int | None = None) -> HSFrameFamily:
    """Embed a block family into matrix-valued maps without changing bounds.

    The blocks are stacked into one space of dimension sum d_kj, which sits
    inside the d_k x d_k matrices through the rank-one embedding against the
    unit vector ``y0``.  Since that embedding is isometric, the embedded
    family has exactly the bounds of the block family.
    """
    total = spec.total_dim
    if dim_k is None:
        dim_k = total
    if dim_k < total:
        raise ValidationError(
            f"dim_k={dim_k} too small: blocks need at least {total}"
        )
    if y0 is None:
        y0v = np.zeros(dim_k, dtype=np.complex128)
        y0v[0] = 1.0
    else:
        y0v = as_vector(y0)
        if y0v.size != dim_k:
            raise ValidationError(f"y0 has length {y0v.size}, expected {dim_k}")
        if abs(np.linalg.norm(y0v) - 1.0) > 1e-9:
            raise ValidationError("y0 must be a unit vector")
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


def random_family(
    dim_h: int, dim_k: int, count: int, spectrum: SpectrumSpec, seed: int = 0
) -> HSFrameFamily:
    """Random frame family whose frame operator has the prescribed spectrum."""
    ncols = count * dim_k * dim_k
    if ncols < dim_h:
        raise ValidationError(
            f"cannot build a frame: count*dim_k^2 = {ncols} < dim_h = {dim_h}"
        )
    values = spectrum.resolve(dim_h)
    rng = np.random.default_rng(seed)
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
    ncols = count * dim_k * dim_k
    if ncols > dim_h:
        raise ValidationError(
            f"cannot build an independent family: count*dim_k^2 = {ncols} "
            f"> dim_h = {dim_h}"
        )
    values = spectrum.resolve(ncols)
    rng = np.random.default_rng(seed)
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
    if not 0.0 < tail_ratio < 1.0:
        raise ValidationError(f"tail_ratio must be in (0, 1), got {tail_ratio}")
    if dim_h < 1 or dim_k < 1:
        raise ValidationError(
            f"dim_h and dim_k must be >= 1, got dim_h={dim_h}, dim_k={dim_k}"
        )
    blk = dim_k * dim_k
    head = math.ceil(dim_h / blk)
    if count < head:
        raise ValidationError(
            f"count={count} too small to cover dim_h={dim_h} with d_k={dim_k} "
            f"(need at least {head})"
        )
    rng = np.random.default_rng(seed)
    t = np.zeros((dim_h, count * blk), dtype=np.complex128)
    t[:, :dim_h] = np.eye(dim_h)
    for j in range(head, count):
        block = _complex_gaussian(rng, dim_h, blk)
        block *= tail_ratio ** (j - head + 1) / np.linalg.norm(block, ord=2)
        t[:, j * blk : (j + 1) * blk] = block
    return HSFrameFamily.from_synthesis_matrix(dim_h, dim_k, t)
