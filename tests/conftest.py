import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hsframe import HSFrameFamily, SpectrumSpec, random_family, riesz_family


def complex_unit(rng, n):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)


def mixed_dims(rng):
    """Random (dim_h, dim_k, count) with count*dim_k^2 >= dim_h."""
    dim_h = int(rng.integers(2, 17))
    dim_k = int(rng.integers(1, 4))
    least = -(-dim_h // (dim_k * dim_k))
    count = int(rng.integers(least, 41))
    return dim_h, dim_k, count


def random_spectrum(rng, n):
    """Log-uniform positive values; condition number capped around 1e2."""
    return SpectrumSpec.explicit(np.exp(rng.uniform(-2.3, 2.3, size=n)))


def seeded_family(seed, riesz_fraction=0.2) -> HSFrameFamily:
    """Mixed-dimension random family; a fraction are square (Riesz) ones."""
    rng = np.random.default_rng(seed)
    dim_h, dim_k, count = mixed_dims(rng)
    if rng.random() < riesz_fraction:
        blk = dim_k * dim_k
        count = max(dim_h // blk, 1)
        dim_h = count * blk
        return riesz_family(dim_h, dim_k, count, random_spectrum(rng, dim_h), seed)
    return random_family(dim_h, dim_k, count, random_spectrum(rng, dim_h), seed)


@pytest.fixture
def rng():
    return np.random.default_rng(20250101)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Every call the test makes to numpy.linalg's factorizations and
    solvers, in order, as (name, copy of the input, QR mode or None).
    numpy's own internal calls, such as the SVD inside ``norm(ord=2)``, are
    not seen.  The test's reference values are recorded too: clear the list
    before the code measured and read it before computing them."""
    calls = []
    for name in ("svd", "qr", "eigh", "eigvalsh", "solve", "cholesky", "lstsq"):
        def recorded(a, *args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            mode = None
            if _name == "qr":
                mode = kwargs.get("mode", args[0] if args else "reduced")
            calls.append((_name, np.array(a), mode))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def named(calls, *names):
    """The recorded calls to the given numpy.linalg functions."""
    return [call for call in calls if call[0] in names]


def shapes(calls):
    """(name, input shape, QR mode) of each recorded call."""
    return [(name, a.shape, mode) for name, a, mode in calls]
