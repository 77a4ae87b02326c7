"""Property tests: the exact solvers agree, every result is its replay,
the two subset-DP kernels give identical results, binarising integer
weights shifts the optimum by the rewritten weight, and the block split
from every seed matches a brute-force cut-node reference.

Solver instances are small connected networks (2-8 nodes) whose weights
include zeros, so unreachable nodes and infeasible targets are generated
too; the block split runs on block chains and random networks of 1-14
nodes.
"""

import dataclasses
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from stratdiff import (DiffusionInstance, InfluenceNetwork,  # noqa: E402
                       biconnected_components, binarize_weights,
                       brute_force_optimal, component_instances, dp_optimal,
                       greedy_sequence, majority_sequence, random_connected,
                       sequence_time, solve_full_via_decomposition,
                       tw_full_optimal, tw_partial_optimal)
from stratdiff import decompose, exact  # noqa: E402
from helpers import blocky_graph, dp_kernel_result  # noqa: E402

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


@st.composite
def block_networks(draw):
    n = draw(st.integers(1, 14))
    rng_seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        return blocky_graph(random.Random(rng_seed), n)
    return random_connected(n, draw(st.sampled_from([0.1, 0.3])),
                            rng_seed=rng_seed)


def _cut_nodes(net):
    """Nodes whose deletion disconnects the rest of the network."""
    n = net.node_count
    cuts = set()
    for v in range(n if n > 2 else 0):  # one node left is connected
        start = 1 if v == 0 else 0
        seen = {v, start}
        stack = [start]
        while stack:
            for w in net.neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) < n:
            cuts.add(v)
    return cuts


@given(block_networks())
def test_blocks_split_at_the_cut_nodes_from_every_seed(net):
    cuts = _cut_nodes(net)
    assert biconnected_components(net)[1] == cuts
    for seed in range(net.node_count):
        assert decompose._blocks(net, seed)[1] == cuts
        active = {seed}
        edges = []
        for comp in component_instances(DiffusionInstance(net, seed, net.node_count)):
            g = comp.to_global
            sub = comp.instance.network
            assert comp.entry in active and g[comp.instance.seed] == comp.entry
            active.update(g)
            edges += [(g[u], g[v], wuv, wvu) for u, v, wuv, wvu in sub.edges]
            for loc, glob in enumerate(g):
                assert sub.total_influence[loc] == \
                    pytest.approx(net.total_influence[glob], abs=1e-12)
        assert sorted(edges) == list(net.edges)
