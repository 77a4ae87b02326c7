"""Monte Carlo validation of expected sequence times.

For a fixed activation sequence the per-step success probability is fixed,
so each step's waiting time is geometric and a trial is just a sum of
geometric draws.  Sampling is vectorized across trials and fully
deterministic in rng_seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .network import (DP_MEMORY_BUDGET, DiffusionInstance, SizeGuardError,
                      _integer, sequence_time)

# simulate_sequence's tracemalloc peak per trial (its two float64 arrays: the
# totals and the draws), read at 10^5 and 10^6 trials
_TRIAL_BYTES = 16


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    std_error: float
    trials: int
    sample_min: float
    sample_max: float
    analytic_time: float

    def as_dict(self) -> dict:
        return asdict(self)


def simulate_sequence(instance: DiffusionInstance, sequence, trials: int,
                      rng_seed: int = 0) -> SimulationResult:
    """Sample the total activation time of a fixed sequence.

    Raises ValueError for an infeasible sequence (some step has probability
    zero) or nonpositive trials, and SizeGuardError, before any allocation,
    when the trials' arrays would pass DP_MEMORY_BUDGET.  Returns the
    sample mean, its standard error, and the analytic expectation for
    comparison.
    """
    import numpy as np
    if (trials := _integer(trials, "trials")) < 1:
        raise ValueError("trials must be positive")
    if (need := trials * _TRIAL_BYTES) > DP_MEMORY_BUDGET:
        raise SizeGuardError(
            f"trials {trials:,} need about {need / 2**20:,.0f} MiB of sample "
            f"arrays, over the {DP_MEMORY_BUDGET / 2**20:,.0f} MiB budget")
    analytic = sequence_time(instance, sequence)
    if not analytic.feasible:
        raise ValueError("sequence is infeasible; nothing to sample")

    probs = [1.0 / st for st in analytic.step_times[1:]]

    rng = np.random.default_rng(rng_seed)
    totals = np.zeros(trials)
    u = np.empty(trials)  # each step's draws, computed in place
    for p in probs:
        if p >= 1.0:
            totals += 1.0
            continue
        rng.random(out=u)
        # inverse-transform geometric with support starting at 1:
        # max(ceil(log1p(-u) / log1p(-p)), 1)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.divide(u, math.log1p(-p), out=u)
        np.ceil(u, out=u)
        totals += np.maximum(u, 1.0, out=u)
    del u
    mean = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return SimulationResult(mean=mean, std_error=se, trials=trials,
                            sample_min=float(totals.min()),
                            sample_max=float(totals.max()),
                            analytic_time=analytic.total_time)
