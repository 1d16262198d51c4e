"""``hsframe._shortest.reprs`` against ``float.__repr__``, byte for byte."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hsframe import _shortest


def assert_reprs(x):
    """reprs(x) equals repr of each float in x; a mismatch names the first
    float it is found at."""
    got = _shortest.reprs(x)
    values = x.tolist()
    # one C-level repr of the list is much faster than a repr per float
    if b"[" + b", ".join(got) + b"]" != repr(values).encode():
        bad = next(v for v, g in zip(values, got) if g != repr(v).encode())
        raise AssertionError(f"reprs gives {got[values.index(bad)]!r} for {bad!r}")
    assert len(got) == len(values)


def structured():
    """Every power of two and of ten with both neighbours, integers near
    2**53, 1e15 and 1e16, zeros, the smallest normal, the largest subnormal
    and the largest float, each with both signs."""
    values = [0.0, 2.2250738585072014e-308, 2.225073858507201e-308,
              1.7976931348623157e308]
    for power in [2.0**e for e in range(-1074, 1024)] + [
            float(f"1e{e}") for e in range(-323, 309)]:
        values += [power, np.nextafter(power, 0), np.nextafter(power, np.inf)]
    for base in (2**53, 10**15, 10**16):
        values += [float(base + d) for d in range(-64, 65)]
    x = np.array(values)
    x = x[np.isfinite(x)]
    return np.concatenate([x, -x])


def test_structured_values():
    assert_reprs(structured())


def test_random_bit_patterns():
    """10**6 random 64-bit patterns less the non-finite ones: every
    exponent, several blocks and a ragged last one."""
    bits = np.random.default_rng(20261022).integers(0, 2**64, 10**6, dtype=np.uint64,
                                                     endpoint=False)
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    assert len(x) >= 999_000 and len(x) % _shortest.BLOCK
    assert_reprs(x)


def test_subnormals_among_normals():
    """Subnormals, formatted through repr one at a time, land in their
    places among normals of the same block."""
    rng = np.random.default_rng(7)
    subnormal = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
    extremes = np.array([5e-324, 1e-323, 2.225073858507201e-308])
    x = np.concatenate([subnormal, extremes, rng.standard_normal(500)])
    x *= rng.choice([-1.0, 1.0], len(x))
    assert_reprs(rng.permutation(x))


def test_tables_are_read_only():
    assert not any(table.flags.writeable for table in _shortest._tables())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                max_size=40))
def test_any_finite_floats(values):
    assert_reprs(np.array(values, dtype=np.float64))
