"""Fixed work that never touches indexsim, timed to track the machine's speed.

child.py runs ``load(CALL_ROUNDS)`` just before and just after each call it
times, without tracing.  The loop is of the same kind as a Monte Carlo trial (PCG64 seeding,
integer draws, ndtri, exp, mean), and its time changes only with the
machine and the environment, so run.py uses it to take the machine's drift
out of its time metrics.
"""

import time

import numpy as np
from scipy.special import ndtri

CALL_ROUNDS = 1500
# Times are reported at the machine speed where load(CALL_ROUNDS) takes
# this long, about its median on the machine the baseline was taken on.
CALL_REFERENCE_S = 0.085


def load(rounds: int) -> float:
    """Run the fixed loop; returns its wall seconds."""
    start = time.perf_counter()
    total = 0.0
    for i in range(rounds):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, i])))
        z = ndtri((rng.integers(0, 1 << 52, size=500) + 0.5) * 2.0 ** -52)
        total += float(np.mean(np.exp(0.2 * z)))
    if not 0.9 < total / rounds < 1.1:
        raise RuntimeError(f"reference load computed {total / rounds}")
    return time.perf_counter() - start
