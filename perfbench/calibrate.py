"""Host-speed calibration for run.py.

The shared host's speed drifts by 10-20% over tens of seconds, which is
larger than any bound worth having.  Between timed child processes,
run.py times a few runs of a fixed numpy block in its own process and
scales each child's wall time by NOMINAL_BLOCK_S over the mean of the
median block times just before and just after it, i.e. reports it at
nominal host speed.  The block does no volfluct work, so a change to volfluct cannot
change it: it measures the host, not the program.

The block has the character of the simulation engines: Philox
uniforms, ndtri, and a 256-step Euler loop over 2048-row vectors.
"""

import time

import numpy as np
from scipy import special

ROWS, STEPS = 2048, 256
# median block time on the 2-core Xeon the baseline was taken on
NOMINAL_BLOCK_S = 0.037


def block():
    gen = np.random.Generator(np.random.Philox(key=7))
    dB = special.ndtri(gen.random((ROWS, STEPS)) + 2.0 ** -54) / 16.0
    cur = np.ones(ROWS)
    for i in range(STEPS):
        cur = cur + np.sin(cur) / STEPS + np.cos(cur) * dB[:, i]
    return float(np.sort(cur)[ROWS // 2])


def measure(blocks):
    """Wall time of each of ``blocks`` back-to-back runs of ``block``."""
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        block()
        times.append(time.perf_counter() - t0)
    return times
