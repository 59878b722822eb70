"""Host speed: fixed calibration kernels timed between timed sections.

The reference machine is a 2-core VM on a shared host.  Other tenants
slow every instruction it runs (user CPU time equals wall time and steal
stays under 1%), by up to 1.9x, and the slowdown moves within seconds
and drifts over minutes.  A wall-clock time therefore measures the
neighbours as much as `roictx`.

A run times a kernel before and after every set-up and every round and
divides each section's time by the mean of its two neighbours.  A
kernel is benchmark code that no change to `src/` touches, and shares
the bottleneck of the workloads it calibrates:

- `interp`: max-pooling and RoIAlign from `reference.py` of 20 boxes on a
  fixed 16x40x40 map, the interpreter work and small numpy calls of
  `train-align-d64` and `synth-train`;
- `memory`: 2 M scattered reads from a 48 MiB array, the scale of the
  51 MB range-max table that `ctxmine-pool-d256` queries.  The array
  lives only while the kernel runs, so it adds nothing to a run's peak
  resident set, and filling it is not timed.

A section that takes r kernel-times is reported as r * REF_S[kind]
seconds, its time on the reference machine at quiet speed.
"""

from __future__ import annotations

import time

import numpy as np

import reference as ref

# Fastest of 300 times of each kernel seen on the reference machine
# (2-core VM, Intel Xeon, numpy 2.4.6, Python 3.11), rounded.  A scale
# only: changing one scales every time and rate it calibrates alike.
REF_S = {"interp": 0.039, "memory": 0.036}

_F = np.random.default_rng(0x5eed).standard_normal((16, 40, 40)).astype(np.float32)
_BOXES = [(3.0 + 0.5 * k, 4.0 + 0.25 * k, 20.0 + 0.5 * k, 25.0 - 0.125 * k) for k in range(20)]
_WORDS = 12 * 2**20
_READS = 2 * 2**20


def _interp() -> float:
    t0 = time.perf_counter()
    for box in _BOXES:
        ref.max_pool(_F, box, 7, 7)
        ref.align(_F, box, 7, 7, 2)
    return time.perf_counter() - t0


def _memory() -> float:
    table = np.ones(_WORDS, dtype=np.float32)
    # A multiplicative hash spreads the reads over the whole array.
    idx = (np.arange(_READS, dtype=np.int64) * 2654435761) % _WORDS
    out = np.empty(_READS, dtype=np.float32)
    t0 = time.perf_counter()
    np.take(table, idx, out=out)
    out.max()
    return time.perf_counter() - t0


KERNELS = {"interp": _interp, "memory": _memory}


def sample(kind: str) -> float:
    """Seconds one run of kernel `kind` takes now."""
    return KERNELS[kind]()
