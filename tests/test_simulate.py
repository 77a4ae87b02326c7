import math
import tracemalloc

import numpy as np
import pytest

from stratdiff import (DiffusionInstance, InfluenceNetwork, SizeGuardError,
                       simulate_sequence)
from stratdiff import simulate
from helpers import full_instance, path_net, star_net


def test_certain_steps_have_zero_variance():
    net = star_net(5)
    inst = full_instance(net)
    seq = tuple(range(6))
    res = simulate_sequence(inst, seq, trials=500, rng_seed=1)
    # every leaf activates with probability 1, so every trial is exact
    assert res.mean == 5.0
    assert res.std_error == 0.0
    assert res.sample_min == 5.0 and res.sample_max == 5.0
    assert res.analytic_time == 5.0


def test_mean_tracks_analytic_time():
    inst = full_instance(path_net(4))
    seq = (0, 1, 2, 3)
    res = simulate_sequence(inst, seq, trials=20000, rng_seed=7)
    assert res.analytic_time == 5.0
    assert res.std_error > 0.0
    assert abs(res.mean - res.analytic_time) <= 4.0 * res.std_error
    assert res.sample_min >= 3.0
    assert res.trials == 20000


def test_partial_sequence_and_fractional_probability():
    net = InfluenceNetwork(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 3.0)])
    inst = DiffusionInstance(net, 0, 2)
    res = simulate_sequence(inst, (0, 1), trials=30000, rng_seed=3)
    # p = 1/4, expected waiting time 4
    assert res.analytic_time == 4.0
    assert abs(res.mean - 4.0) <= 4.0 * res.std_error


def test_deterministic_in_seed():
    inst = full_instance(path_net(5))
    seq = tuple(range(5))
    a = simulate_sequence(inst, seq, trials=2000, rng_seed=11)
    b = simulate_sequence(inst, seq, trials=2000, rng_seed=11)
    assert a == b
    c = simulate_sequence(inst, seq, trials=2000, rng_seed=12)
    assert c.mean != a.mean


def test_single_trial():
    res = simulate_sequence(full_instance(path_net(3)), (0, 1, 2),
                            trials=1, rng_seed=0)
    assert res.std_error == 0.0
    assert res.sample_min == res.sample_max == res.mean


def test_rejects_bad_input():
    inst = full_instance(path_net(3))
    with pytest.raises(ValueError):
        simulate_sequence(inst, (0, 1, 2), trials=0)
    # node 2 unreachable: zero-probability step
    net = InfluenceNetwork(3, [(0, 1, 1.0, 1.0), (1, 2, 0.0, 1.0)])
    bad = DiffusionInstance(net, 0, 3)
    with pytest.raises(ValueError):
        simulate_sequence(bad, (0, 1, 2), trials=10)


def test_trials_must_be_an_integer():
    inst = full_instance(path_net(3))
    with pytest.raises(ValueError, match=r"^trials 2\.5 is not an integer$"):
        simulate_sequence(inst, (0, 1, 2), trials=2.5)
    assert simulate_sequence(inst, (0, 1, 2), trials=np.int64(3)).trials == 3


def test_trials_past_the_memory_budget_are_refused_before_allocation():
    inst = full_instance(path_net(3))
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=r"^trials 100,000,000 need "
                           r"about 1,526 MiB of sample arrays, over the 1,024 "
                           r"MiB budget$"):
            simulate_sequence(inst, (0, 1, 2), trials=10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sample_arrays_peak_within_the_guards_bytes_per_trial():
    # the guard charges _TRIAL_BYTES a trial: the totals and one array the
    # draws are computed in
    inst = full_instance(path_net(4))
    simulate_sequence(inst, (0, 1, 2, 3), trials=10)  # numpy imported
    tracemalloc.start()
    try:
        simulate_sequence(inst, (0, 1, 2, 3), trials=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10**5 * simulate._TRIAL_BYTES * 1.05


@pytest.mark.parametrize("edges, external, problem", [
    ([(0, 1, math.inf, 1.0)], None, "non-finite weight inf"),
    ([(0, 1, 1.0, 1.0)], [0.0, math.nan], "non-finite external influence nan"),
])
def test_rejects_non_finite_instance(edges, external, problem):
    with pytest.raises(ValueError, match="invalid network: " + problem):
        InfluenceNetwork(2, edges, external)


def test_as_dict_round_trip():
    res = simulate_sequence(full_instance(path_net(3)), (0, 1, 2),
                            trials=50, rng_seed=2)
    d = res.as_dict()
    assert d["trials"] == 50
    assert d["mean"] == res.mean
    assert d["analytic_time"] == 3.0
    assert set(d) == {"mean", "std_error", "trials", "sample_min",
                      "sample_max", "analytic_time"}
