"""A fixed reference job that measures how fast the machine runs right now.

run.py times this process next to every CLI run and scales that run's times
by REFERENCE_S / (this job's time).  The job never changes with the code
under test, and it does the same kinds of work as a CLI run: an interpreter
start, the numpy import, a pure-Python loop and numpy sorts, scatters and
gathers.  So a slower phase of a shared machine slows both alike, and the
scaled times follow the program rather than the machine.
"""

import numpy as np

rng = np.random.default_rng(12345)
total, table = 0, {}
for i in range(200_000):
    total += (i * i) % 7
    table[i & 1023] = total
a = rng.integers(0, 1 << 20, size=1 << 19)
for _ in range(6):
    order = np.argsort(a, kind="stable")
    counts = np.bincount(a & 4095)
    a = (a[order] * 3 + counts[a & 4095]) % (1 << 20)
