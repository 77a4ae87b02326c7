"""Monte Carlo validation of expected sequence times.

For a fixed activation sequence the per-step success probability is fixed,
so each step's waiting time is geometric and a trial is just a sum of
geometric draws.  Sampling is vectorized across trials and fully
deterministic in rng_seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .network import DiffusionInstance, check_instance, sequence_time


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

    Raises ValueError for an invalid instance, an infeasible sequence (some
    step has probability zero) or nonpositive trials.  Returns the sample
    mean, its standard error, and the analytic expectation for comparison.
    """
    check_instance(instance)
    if trials < 1:
        raise ValueError("trials must be positive")
    analytic = sequence_time(instance, sequence)
    if not analytic.feasible:
        raise ValueError("sequence is infeasible; nothing to sample")

    probs = [1.0 / st for st in analytic.step_times[1:]]

    rng = np.random.default_rng(rng_seed)
    totals = np.zeros(trials)
    for p in probs:
        if p >= 1.0:
            totals += 1.0
            continue
        u = rng.random(trials)
        # inverse-transform geometric with support starting at 1
        draws = np.ceil(np.log1p(-u) / math.log1p(-p))
        totals += np.maximum(draws, 1.0)
    mean = float(totals.mean())
    if trials > 1:
        se = float(totals.std(ddof=1) / math.sqrt(trials))
    else:
        se = 0.0
    return SimulationResult(mean=mean, std_error=se, trials=trials,
                            sample_min=float(totals.min()),
                            sample_max=float(totals.max()),
                            analytic_time=analytic.total_time)
