"""The incremental min-fill, the heuristics' frontier and the tree DP's
splice against their full-rescan references in tests/helpers.py, and the
work each does.

min_fill_decomposition counts each vertex's fill once and then updates it
as fill edges are added and vertices eliminated, heuristics._run
re-prices only the last activated node's neighbours, and
treewidth._reconstruct records each bag's new nodes before the placed node
they precede and flattens them once; all must return exactly what the
rescans return (the same decomposition, the same SolveResult and the same
random draws, the same sequence), while their counted work grows linearly
on paths and trees.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from stratdiff import (DiffusionInstance, InfluenceNetwork,  # noqa: E402
                       SizeGuardError, dp_optimal, greedy_sequence,
                       majority_sequence, min_fill_decomposition,
                       random_connected, solve_full_via_decomposition,
                       tw_full_optimal, tw_partial_optimal)
from stratdiff import heuristics, treewidth  # noqa: E402
from helpers import (blocky_graph, cycle_chord_block, path_net,  # noqa: E402
                     random_tree, reference_greedy, reference_majority,
                     reference_min_fill, reference_reconstruct, theta2_graph)

POSITIVE = st.floats(0.1, 3.0, allow_nan=False, allow_infinity=False)
WEIGHT = st.one_of(st.just(0.0), st.just(1.0), POSITIVE)


@st.composite
def graphs(draw, max_n=14):
    """Any edge set on 1..max_n nodes: empty, disconnected, dense, and the
    tie-heavy unit-weight cycles and cliques."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["random", "cycle", "clique", "union"]))
    if kind == "cycle" and n >= 3:
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "clique":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif kind == "union":  # two cliques or paths side by side, no edge across
        cut = draw(st.integers(0, n))
        pairs = [(u, v) for part in (range(cut), range(cut, n))
                 for u in part for v in part if u < v
                 and (v == u + 1 or draw(st.booleans()))]
    else:
        density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
        rng = random.Random(draw(st.integers(0, 2**16)))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
    pairs = sorted({(min(e), max(e)) for e in pairs})
    weight = st.just(1.0) if draw(st.booleans()) else WEIGHT
    return InfluenceNetwork(n, [(u, v, draw(weight), draw(weight))
                                for u, v in pairs])


@st.composite
def instances(draw):
    """Instances on graphs(), with zero-weight directions, external
    influence and zero-influence nodes (all in-weights 0, no external)."""
    net = draw(graphs())
    n = net.node_count
    ext = [draw(st.sampled_from([0.0, 0.0, 0.5, 1.0])) for _ in range(n)]
    if draw(st.booleans()):
        dead = draw(st.integers(0, n - 1))
        ext[dead] = 0.0
        edges = [(u, v, 0.0 if v == dead else wuv, 0.0 if u == dead else wvu)
                 for u, v, wuv, wvu in net.edges]
        net = InfluenceNetwork(n, edges, ext)
    else:
        net = InfluenceNetwork(n, net.edges, ext)
    return DiffusionInstance(net, seed=draw(st.integers(0, n - 1)),
                             z=draw(st.integers(1, n)),
                             alpha=draw(st.sampled_from([0.0, 0.5, 1.0])),
                             beta=draw(st.sampled_from([0.7, 1.0])))


@given(graphs())
def test_min_fill_equals_reference(net):
    assert min_fill_decomposition(net) == reference_min_fill(net)


def test_min_fill_equals_reference_where_fills_rise():
    # A neighbour's fill can rise when an elimination fills in edges; that
    # needs a few cycles, rare in small drawn graphs, so sweep sparse
    # random graphs of 10-16 nodes as well
    for s in range(300):
        rng = random.Random(s)
        n = rng.randint(10, 16)
        p = rng.choice([0.15, 0.25, 0.35])
        net = InfluenceNetwork(n, [(u, v, 1.0, 1.0) for u in range(n)
                                   for v in range(u + 1, n) if rng.random() < p])
        assert min_fill_decomposition(net) == reference_min_fill(net), s


def test_min_fill_equals_reference_on_wide_sparse_graphs():
    # 40-100 nodes of average degree 2-4 reach widths of 10-30, so a fill
    # edge has many common neighbours and fills rise and fall many times
    rng = random.Random(2143)
    widths = []
    for _ in range(40):
        n = rng.randint(40, 100)
        net = random_connected(n, rng.choice([2.0, 3.0, 4.0]) / n,
                               rng_seed=rng.randrange(2**31))
        td = min_fill_decomposition(net)
        assert td == reference_min_fill(net), len(widths)
        widths.append(td.width)
    assert min(widths) <= 10 and max(widths) >= 30


@pytest.mark.parametrize("net", [
    InfluenceNetwork(1),
    InfluenceNetwork(5),
    path_net(7),
    InfluenceNetwork(6, [(i, (i + 1) % 6, 1.0, 1.0) for i in range(6)]),
    InfluenceNetwork(5, [(u, v, 1.0, 1.0) for u in range(5) for v in range(u + 1, 5)]),
    InfluenceNetwork(9, [(r * 3 + c, r * 3 + c + 1, 1.0, 1.0)
                         for r in range(3) for c in range(2)]
                     + [(r * 3 + c, r * 3 + c + 3, 1.0, 1.0)
                        for r in range(2) for c in range(3)]),
], ids=["single", "edgeless", "path", "cycle", "clique", "grid"])
def test_min_fill_equals_reference_on_fixed_graphs(net):
    assert min_fill_decomposition(net) == reference_min_fill(net)


@given(instances(), st.integers(0, 2**32))
def test_heuristics_equal_reference(inst, s):
    for fast, ref in ((greedy_sequence, reference_greedy),
                      (majority_sequence, reference_majority)):
        assert fast(inst) == ref(inst)
        r1, r2 = random.Random(s), random.Random(s)
        assert fast(inst, rng=r1) == ref(inst, rng=r2)
        assert r1.getstate() == r2.getstate()


@pytest.mark.parametrize("solve", [greedy_sequence, majority_sequence])
def test_heuristics_price_each_edge_direction_once(monkeypatch, solve):
    # The full rescan priced every inactive node at every step, about
    # n^2 / 2 calls on a path; the frontier prices each inactive neighbour
    # of each activated node, at most 2|E| calls
    net = path_net(2000)
    calls = 0
    kernel = heuristics._step_time_masked

    def counting(*args):
        nonlocal calls
        calls += 1
        return kernel(*args)

    monkeypatch.setattr(heuristics, "_step_time_masked", counting)
    res = solve(DiffusionInstance(net, seed=0, z=2000))
    assert res.sequence == tuple(range(2000))
    assert calls <= 2 * len(net.edges) + net.node_count


def test_min_fill_counts_fills_linearly_on_a_tree(monkeypatch):
    # One count per vertex to start, then, after each leaf's elimination,
    # its parent and the parent's at most 2 other neighbours: at most 4
    # counts per vertex on a tree of degree at most 3 (the rescan made
    # about n^2 / 2)
    net = random_tree(2000, random.Random(2000), maxdeg=3)
    calls = 0
    fill = treewidth._fill

    def counting(*args):
        nonlocal calls
        calls += 1
        return fill(*args)

    monkeypatch.setattr(treewidth, "_fill", counting)
    td = min_fill_decomposition(net)
    assert td.width == 1
    assert calls <= 4 * net.node_count


def test_min_fill_counts_a_star_centre_once(monkeypatch):
    # Every leaf is simplicial, so eliminating it re-counts nothing: one
    # count per vertex to start (the rescan of the centre's neighbours made
    # about n^2 / 2)
    net = InfluenceNetwork(2001, [(0, i, 1.0, 1.0) for i in range(1, 2001)])
    calls = 0
    fill = treewidth._fill

    def counting(*args):
        nonlocal calls
        calls += 1
        return fill(*args)

    monkeypatch.setattr(treewidth, "_fill", counting)
    td = min_fill_decomposition(net)
    assert td.width == 1
    assert calls <= net.node_count
    # and the decomposition is the rescan's, centre first or not
    for centre in (0, 7, 39):
        star = InfluenceNetwork(40, [(centre, i, 1.0, 1.0)
                                     for i in range(40) if i != centre])
        assert min_fill_decomposition(star) == reference_min_fill(star)


def _block_chain(rng, blocks=10):
    """Cycle-and-chord blocks of 10-16 nodes, each sharing one cut node with
    the blocks before it, like the sparse benchmark's chains."""
    edges, n, cut = [], 1, 0
    for _ in range(blocks):
        block = cycle_chord_block(rng.randrange(10, 17), rng)
        ids = [cut] + list(range(n, n + block.node_count - 1))
        n += block.node_count - 1
        edges += [(ids[u], ids[v], a, b) for u, v, a, b in block.edges]
        cut = ids[rng.randrange(1, len(ids))]
    return InfluenceNetwork(n, edges)


@pytest.mark.parametrize("net", [
    random_connected(300, 1 / 300, rng_seed=2147),
    _block_chain(random.Random(2147)),
], ids=["sparse", "chain"])
def test_min_fill_counts_each_fill_once(monkeypatch, net):
    # Fills are counted once to start and then only updated, as fill edges
    # are added and vertices eliminated (re-counting the two hops around
    # each elimination made 6-15 counts per vertex on these two graphs)
    calls = 0
    fill = treewidth._fill

    def counting(*args):
        nonlocal calls
        calls += 1
        return fill(*args)

    monkeypatch.setattr(treewidth, "_fill", counting)
    td = min_fill_decomposition(net)
    assert td.width >= 3
    assert calls == net.node_count


def test_min_fill_decomposes_a_20001_node_star():
    # A star's centre is counted in O(d), not O(d^2), and each leaf is
    # simplicial: a few tenths of a second (the quadratic count took 6 s)
    net = InfluenceNetwork(20_001, [(0, i, 1.0, 1.0) for i in range(1, 20_001)])
    td = min_fill_decomposition(net)
    assert td.width == 1
    assert len(td.bags) == net.node_count


def test_reconstruct_equals_reference(monkeypatch):
    # Every tw_partial solve on sparse graphs, blocks and trees of up to
    # 300 nodes (at every z; every tenth, from n down, on the largest tree)
    # reconstructs the sequence that copying it at every bag and finding
    # each placed node by index gives.  Grounds above 7 nodes are refused
    # to keep the sweep to seconds: a ground of 9 enumerates up to 72 times
    # as many orderings, and one such graph took over a minute
    real, lengths = treewidth._reconstruct, []

    def checked(*args):
        got = real(*args)
        assert got == reference_reconstruct(*args)
        lengths.append(len(got))
        return got

    monkeypatch.setattr(treewidth, "_reconstruct", checked)
    monkeypatch.setattr(treewidth, "GROUND_CAP", 7)
    rng = random.Random(2153)
    nets = [random_connected(n, p, rng_seed=rng.randrange(2**31))
            for n in range(2, 31) for p in (0.05, 0.1, 0.2)]
    nets += [blocky_graph(rng, rng.randint(3, 40)) for _ in range(10)]
    nets += [theta2_graph(rng.randint(3, 60), rng) for _ in range(10)]
    nets += [random_tree(n, rng) for n in (10, 30, 100, 300)]
    refused = 0
    for net in nets:
        n = net.node_count
        seed = rng.randrange(n)
        for z in range(n, 0, -1 if n <= 100 else -10):
            try:
                tw_partial_optimal(DiffusionInstance(net, seed, z))
            except SizeGuardError:
                refused += 1
    assert len(lengths) > 1000 and refused > 500
    assert max(lengths) == 300


def test_tw_full_solves_a_10001_node_tree():
    # The splice costs O(n) in all, not a copy of the sequence per bag
    # (which took about 2 s here)
    net = random_tree(10_001, random.Random(2161))
    inst = DiffusionInstance(net, seed=0, z=net.node_count)
    res = tw_full_optimal(inst, min_fill_decomposition(net))
    want = solve_full_via_decomposition(inst, dp_optimal).total_time
    assert abs(res.total_time - want) <= 1e-9 * want
    assert res.sequence[0] == inst.seed
    assert sorted(res.sequence) == list(range(net.node_count))
