"""Property tests: the exact solvers agree, every SOLVERS entry's result is
its replay under the entry's name, the two subset-DP kernels give identical
results, tw_partial_optimal at z = n is tw_full_optimal, binarising integer
weights shifts the optimum by the rewritten weight, and the block split
from every seed matches a brute-force cut-node reference.  A last test
checks that a failing property, under the project's warning filters, still
reports its falsifying example.

Solver instances are small connected networks (2-8 nodes) whose weights
include zeros, so unreachable nodes and infeasible targets are generated
too, and whose nodes may carry external influence, as the block split's
out-of-block weights do; the block split runs on block chains and random
networks of 1-14 nodes.
"""

import dataclasses
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from stratdiff import (SOLVERS, DiffusionInstance,  # noqa: E402
                       InfluenceNetwork, biconnected_components,
                       binarize_weights, component_instances, dp_optimal,
                       make_gk, random_connected, sequence_time,
                       solve_full_via_decomposition, tw_full_optimal,
                       tw_partial_optimal)
from stratdiff import decompose, exact  # noqa: E402
from helpers import blocky_graph, dp_kernel_result  # noqa: E402

POSITIVE = st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False)
WEIGHT = st.one_of(st.just(0.0), st.just(1.0), POSITIVE)
EXTERNAL = st.one_of(st.just(0.0), POSITIVE)


@st.composite
def instances(draw):
    n = draw(st.integers(2, 8))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n)
              if (u, v) not in pairs]
    if others:
        pairs |= set(draw(st.lists(st.sampled_from(others), max_size=n)))
    edges = [(u, v, draw(WEIGHT), draw(WEIGHT)) for u, v in sorted(pairs)]
    net = InfluenceNetwork(n, edges, [draw(EXTERNAL) for _ in range(n)])
    return DiffusionInstance(net, seed=draw(st.integers(0, n - 1)),
                             z=draw(st.integers(1, n)),
                             alpha=draw(st.sampled_from([0.5, 1.0])),
                             beta=draw(st.sampled_from([0.5, 1.0])))


def _close(a, b):
    if a == math.inf or b == math.inf:
        return a == b
    return abs(a - b) <= 1e-9 * max(1.0, abs(a))


def _results(inst, gk=False):
    """(name, traits, result) for every SOLVERS entry whose traits inst
    meets: "full" needs z = n, and "gk" entries run only when gk says inst
    is a G(k)."""
    full = inst.z == inst.network.node_count
    return [(name, traits, run(inst, None, False))
            for name, (run, traits) in SOLVERS.items()
            if ("gk" in traits) == gk and (full or "full" not in traits)]


@given(instances())
def test_exact_solvers_agree(inst):
    results = _results(inst)
    exact = [r for _, traits, r in results if "exact" in traits]
    for r in exact:
        assert _close(r.total_time, exact[0].total_time), (r, exact[0])
    for _, _, r in results:
        assert r.total_time >= exact[0].total_time - 1e-9, r


@given(st.one_of(instances().map(lambda inst: (inst, False)),
                 st.sampled_from([(make_gk(k), True) for k in (2, 3, 4)])))
def test_every_result_is_its_replay(case):
    # every entry, strategy A on G(2)-G(4), under the entry's own name
    inst, gk = case
    results = _results(inst, gk)
    assert results
    for name, _, r in results:
        assert r.solver == name
        if r.feasible:
            assert r == sequence_time(inst, r.sequence, solver=name)


@given(instances())
def test_tw_partial_at_full_z_is_tw_full(inst):
    inst = dataclasses.replace(inst, z=inst.network.node_count)
    assert tw_partial_optimal(inst) == dataclasses.replace(
        tw_full_optimal(inst), solver="tw-partial")


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
        assert {frozenset(nodes) for nodes, _ in decompose._blocks(net, seed)} \
            == set(biconnected_components(net)[0])
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


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # hypothesis reports a failure through libcst, whose import warns; under
    # the project's warning filters the run must still end as a plain test
    # failure that prints the example, not as a pytest INTERNALERROR
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "Falsifying example" in proc.stdout
