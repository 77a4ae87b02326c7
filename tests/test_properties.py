"""Property tests: the exact solvers agree, every result is its replay,
the two subset-DP kernels give identical results, and binarising integer
weights shifts the optimum by the rewritten weight.

Instances are small connected networks (2-8 nodes) whose weights include
zeros, so unreachable nodes and infeasible targets are generated too.
"""

import dataclasses
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from stratdiff import (DiffusionInstance, InfluenceNetwork,  # noqa: E402
                       binarize_weights, brute_force_optimal, dp_optimal,
                       greedy_sequence, majority_sequence, sequence_time,
                       solve_full_via_decomposition, tw_full_optimal,
                       tw_partial_optimal)
from stratdiff import exact  # noqa: E402
from helpers import dp_kernel_result  # noqa: E402

WEIGHT = st.one_of(st.just(0.0), st.just(1.0),
                   st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False))


@st.composite
def instances(draw):
    n = draw(st.integers(2, 8))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n)
              if (u, v) not in pairs]
    if others:
        pairs |= set(draw(st.lists(st.sampled_from(others), max_size=n)))
    edges = [(u, v, draw(WEIGHT), draw(WEIGHT)) for u, v in sorted(pairs)]
    net = InfluenceNetwork(n, edges)
    return DiffusionInstance(net, seed=draw(st.integers(0, n - 1)),
                             z=draw(st.integers(1, n)),
                             alpha=draw(st.sampled_from([0.5, 1.0])),
                             beta=draw(st.sampled_from([0.5, 1.0])))


def _close(a, b):
    if a == math.inf or b == math.inf:
        return a == b
    return abs(a - b) <= 1e-9 * max(1.0, abs(a))


def _results(inst):
    out = [dp_optimal(inst), brute_force_optimal(inst),
           tw_partial_optimal(inst), greedy_sequence(inst),
           majority_sequence(inst)]
    if inst.z == inst.network.node_count:
        out += [tw_full_optimal(inst),
                solve_full_via_decomposition(inst, dp_optimal)]
    return out


@given(instances())
def test_exact_solvers_agree(inst):
    results = _results(inst)
    exact = [r for r in results if r.solver not in ("greedy", "majority")]
    for r in exact:
        assert _close(r.total_time, exact[0].total_time), (r, exact[0])
    for r in results:
        assert r.total_time >= exact[0].total_time - 1e-9, r


@given(instances())
def test_every_result_is_its_replay(inst):
    for r in _results(inst):
        if r.feasible:
            assert r == sequence_time(inst, r.sequence, solver=r.solver)


@given(instances(), st.sampled_from([0.0, 0.5, 1.0]))
def test_dp_kernels_agree(inst, alpha):
    for z in range(1, inst.network.node_count + 1):
        sub = dataclasses.replace(inst, z=z, alpha=alpha)
        assert (dp_kernel_result(exact._dp_layers, sub)
                == dp_kernel_result(exact._dp_dict, sub)), sub


@st.composite
def integer_trees(draw):
    n = draw(st.integers(2, 7))
    w = st.sampled_from([1.0, 2.0])
    edges = [(draw(st.integers(0, v - 1)), v, draw(w), draw(w))
             for v in range(1, n)]
    return DiffusionInstance(InfluenceNetwork(n, edges),
                             seed=draw(st.integers(0, n - 1)), z=n)


@given(integer_trees())
def test_binarized_optimum_shifts_by_offset(inst):
    # Each rewritten edge becomes a block of at most 6 nodes.
    out, offset = binarize_weights(inst.network)
    split = solve_full_via_decomposition(
        DiffusionInstance(out, inst.seed, out.node_count), dp_optimal)
    assert _close(split.total_time, dp_optimal(inst).total_time + offset)
