"""Machine-speed probe: a fixed numpy + json kernel timed between operations.

The benchmark runs on shared machines whose speed drifts with the load of
their other tenants: on a 2-vCPU Intel Xeon the same hsframe command took
anywhere from 1x to 1.6x its fastest time, in phases that last from seconds
to minutes.  A run-to-run spread of that size would hide any regression
smaller than it.  The probe runs the kind of work hsframe does, small
LAPACK eigen-solves and SVDs plus a JSON round trip, just before every timed
command, outside the timed region.  Each command's time is then scaled by
``REF_S / (probe time just before it)``: the measured time converted to a
machine where the probe takes REF_S.  Scaling each command by its own probe
follows speed changes that happen within a run, which scaling a whole run
by one factor does not.  The unscaled times stay in the results file.

The kernel and REF_S are fixed: changing either changes every end-to-end
number, so it is a change of the benchmark.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: Median probe time on the 2-vCPU Intel Xeon (OpenBLAS 0.3.31, one thread)
#: where the benchmark was defined.
REF_S = 0.017


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._herm = a + a.conj().T
        self._wide = rng.standard_normal((32, 256)) + 1j * rng.standard_normal((32, 256))
        self._doc = rng.standard_normal((16, 8, 2, 2, 2)).tolist()
        # bound now, so a traced run's wrappers never see the probe
        self._eigvalsh, self._svd = np.linalg.eigvalsh, np.linalg.svd

    def time(self) -> float:
        """Seconds the probe kernel takes right now."""
        start = time.perf_counter()
        for _ in range(10):
            self._eigvalsh(self._herm)
        self._svd(self._wide)
        json.loads(json.dumps(self._doc, indent=1))
        return time.perf_counter() - start


def at_reference_speed(seconds: float, probe_s: float) -> float:
    return seconds * REF_S / probe_s
